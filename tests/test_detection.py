import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cloudprobe.detection import (
    DetectedOutage,
    DetectionReport,
    DurationBin,
    SlaMetrics,
    detect_outages,
    detection_report,
    sla_metrics,
    true_sla_metrics,
    undetected_curve,
    undetected_monte_carlo,
    undetected_probability,
    write_undetected_curve,
)
from cloudprobe.model import (
    CLOUD,
    CLOUD_FAIL,
    NETWORK,
    NETWORK_FAIL,
    OUTCOMES,
    SUCCESS,
    AttemptLog,
    CampaignConfig,
    OutageEvent,
    Timeline,
)
from cloudprobe.simulate import (
    DurationDistribution,
    OutageProcess,
    generate_timeline,
    sample_campaign,
)

from conftest import Row, log_of

T = 600.0


def config(**kwargs):
    defaults = dict(probe_interval_s=T, horizon_days=1.0, vantage_points=1,
                    retry_max=9, retry_gap_s=1.0, seed=0)
    defaults.update(kwargs)
    return CampaignConfig(**defaults)


def slot_records(outcomes, vantage=0, interval=T):
    """One attempt per slot with the given outcomes."""
    return log_of(Row(ts_s=i * interval, vantage=vantage, slot=i, attempt=1, outcome=o)
                  for i, o in enumerate(outcomes))


def report(truth, log, cfg, **kwargs):
    return detection_report(truth, log, cfg, detect_outages(log, cfg), **kwargs)


class TestUndetectedProbability:
    def test_zero_when_interval_not_longer(self):
        assert undetected_probability(600.0, 600.0) == 0.0
        assert undetected_probability(900.0, 600.0) == 0.0

    def test_half_interval(self):
        assert undetected_probability(300.0, 600.0) == 0.5

    def test_vanishing_outage_limit(self):
        assert undetected_probability(1e-9, 600.0) == pytest.approx(1.0)

    def test_linear_form(self):
        assert undetected_probability(150.0, 600.0) == pytest.approx(0.75)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            undetected_probability(0.0, 600.0)
        with pytest.raises(ValueError):
            undetected_probability(60.0, 0.0)

    @pytest.mark.parametrize("duration_s, interval_s", [
        (math.nan, 600.0), (60.0, math.nan), (math.inf, 600.0), (60.0, math.inf),
        (-math.inf, 600.0), (60.0, -1.0)])
    def test_non_finite_rejected(self, duration_s, interval_s):
        with pytest.raises(ValueError, match="finite"):
            undetected_probability(duration_s, interval_s)


class TestUndetectedCurve:
    def test_boundary_and_linear_points(self):
        rows = dict(undetected_curve(T, [0.25 * T, 0.5 * T, T, 1.5 * T]))
        assert rows[0.25] == pytest.approx(0.75)
        assert rows[0.5] == pytest.approx(0.5)
        assert rows[1.0] == 0.0
        assert rows[1.5] == 0.0

    def test_monotone_nonincreasing(self):
        rows = undetected_curve(T)
        values = [p for _, p in rows]
        assert all(b <= a for a, b in zip(values, values[1:]))
        assert rows[-1][0] == pytest.approx(1.5)

    @pytest.mark.parametrize("interval_s", [math.nan, math.inf, 0.0, -600.0])
    def test_bad_interval_rejected(self, interval_s):
        with pytest.raises(ValueError, match="finite"):
            undetected_curve(interval_s)

    @pytest.mark.parametrize("duration_s", [math.nan, math.inf, 0.0])
    def test_bad_grid_duration_rejected(self, duration_s):
        with pytest.raises(ValueError, match="finite"):
            undetected_curve(T, [0.5 * T, duration_s])

    def test_csv_header_exact(self, tmp_path):
        path = tmp_path / "curve.csv"
        write_undetected_curve(path, undetected_curve(T))
        lines = path.read_text().splitlines()
        assert lines[0] == "l_over_t,p_nodet"
        ratio, p = lines[1].split(",")
        assert float(ratio) > 0 and 0.0 <= float(p) <= 1.0


class TestDetectOutages:
    def test_no_failures(self):
        records = slot_records([SUCCESS] * 8)
        assert detect_outages(records, config()) == []

    def test_three_consecutive_failed_slots(self):
        outcomes = [SUCCESS, SUCCESS, CLOUD_FAIL, CLOUD_FAIL, CLOUD_FAIL, SUCCESS]
        runs = detect_outages(slot_records(outcomes), config())
        assert len(runs) == 1
        assert runs[0].duration_s == pytest.approx(1800.0)
        assert runs[0].start_s == pytest.approx(2 * T)
        assert runs[0].slot_count == 3

    def test_run_splitting(self):
        outcomes = [SUCCESS] * 10
        for slot in (4, 5, 9):
            outcomes[slot] = CLOUD_FAIL
        runs = detect_outages(slot_records(outcomes), config())
        assert [(r.first_slot, r.slot_count) for r in runs] == [(4, 2), (9, 1)]

    def test_slot_recovered_on_retry_is_not_a_run(self):
        cfg = config(retry_max=2)
        records = log_of([
            Row(ts_s=0.0, vantage=0, slot=0, attempt=1, outcome=CLOUD_FAIL),
            Row(ts_s=1.0, vantage=0, slot=0, attempt=2, outcome=SUCCESS),
            Row(ts_s=T, vantage=0, slot=1, attempt=1, outcome=CLOUD_FAIL),
            Row(ts_s=T + 1.0, vantage=0, slot=1, attempt=2, outcome=CLOUD_FAIL),
        ])
        assert [(r.first_slot, r.slot_count) for r in detect_outages(records, cfg)] == [(1, 1)]

    def test_multi_vantage_log_uses_lowest_vantage(self):
        # vantage 1 comes first in the log and sees a different outage
        v1 = slot_records([CLOUD_FAIL, CLOUD_FAIL, SUCCESS, SUCCESS], vantage=1)
        v0 = slot_records([SUCCESS, SUCCESS, SUCCESS, CLOUD_FAIL], vantage=0)
        runs = detect_outages(AttemptLog.concat([v1, v0]), config())
        assert [(r.first_slot, r.slot_count) for r in runs] == [(3, 1)]


class TestSlaMetrics:
    def test_empty(self):
        assert sla_metrics([], 3600.0) == SlaMetrics(0, 0, 0.0)

    def test_hand_count(self):
        outages = [OutageEvent(0, 1800.0), OutageEvent(10000, 600.0), OutageEvent(50000, 7200.0)]
        metrics = sla_metrics(outages, 3600.0)
        assert metrics == SlaMetrics(failure_count=3, long_outage_count=1,
                                     cumulative_outage_s=9600.0)

    def test_zero_threshold_counts_everything_long(self):
        outages = [OutageEvent(0, 120.0), OutageEvent(10000, 60.0)]
        metrics = sla_metrics(outages, 0.0)
        assert metrics.long_outage_count == metrics.failure_count == 2

    def test_true_metrics_filter_cloud(self):
        tl = Timeline.from_events(86400.0, (
            OutageEvent(0, 1800.0, "cloud"), OutageEvent(40000, 30.0, "network")))
        metrics = true_sla_metrics(tl, 600.0)
        assert metrics.failure_count == 1
        assert metrics.cumulative_outage_s == 1800.0

    def test_invariant(self):
        with pytest.raises(ValueError):
            SlaMetrics(failure_count=1, long_outage_count=2, cumulative_outage_s=0.0)


class TestDetectionReport:
    def test_long_outage_always_detected(self):
        cfg = config()
        tl = Timeline.from_events(cfg.horizon_s, (OutageEvent(1000.0, 2 * T),))
        records = sample_campaign(tl, cfg)
        rep = report(tl, records, cfg)
        assert rep.total_true_outages == 1
        assert rep.detected == 1 and rep.undetected == 0
        (true_dur, est_dur), = rep.duration_estimates
        assert true_dur == pytest.approx(2 * T)
        assert est_dur in (2 * T, 3 * T)

    def test_detected_plus_undetected_partition(self):
        proc = OutageProcess(up_mean_s=2400.0,
                             duration_dist=DurationDistribution.exponential(90.0))
        cfg = config(horizon_days=5.0, seed=21)
        tl = generate_timeline(proc, cfg.horizon_s, cfg.seed)
        records = sample_campaign(tl, cfg)
        rep = report(tl, records, cfg)
        assert (rep.detected + rep.undetected == rep.total_true_outages
                == len(tl.intervals(CLOUD)[0]))
        for b in rep.per_duration_bins:
            if b.empirical_nodet is not None:
                assert 0.0 <= b.empirical_nodet <= 1.0

    def test_bin_rates_track_analytic(self):
        # pool many campaigns so every bin gets enough outages to compare
        proc = OutageProcess(up_mean_s=3000.0,
                             duration_dist=DurationDistribution.exponential(200.0))
        edges = [i * T / 4.0 for i in range(5)]
        weighted = {}
        for seed in range(40):
            cfg = config(horizon_days=5.0, seed=seed)
            tl = generate_timeline(proc, cfg.horizon_s, cfg.seed)
            rep = report(tl, sample_campaign(tl, cfg), cfg, bin_edges_s=edges)
            for b in rep.per_duration_bins:
                if b.empirical_nodet is None:
                    continue
                lo = weighted.setdefault((b.lo_s, b.hi_s, b.analytic_p_nodet), [0, 0])
                lo[0] += b.empirical_nodet * b.outages
                lo[1] += b.outages
        for (lo_s, hi_s, analytic), (num, den) in weighted.items():
            if den < 200:
                continue
            assert abs(num / den - analytic) < 0.1

    def test_censoring_direction(self):
        # with q=0 and no bursts the observer never sees more outages than exist
        proc = OutageProcess(up_mean_s=1800.0,
                             duration_dist=DurationDistribution.exponential(400.0))
        for seed in range(10):
            cfg = config(horizon_days=3.0, seed=seed)
            tl = generate_timeline(proc, cfg.horizon_s, cfg.seed)
            records = sample_campaign(tl, cfg)
            runs = detect_outages(records, cfg)
            assert len(runs) <= len(tl.intervals(CLOUD)[0])

    def test_duration_quantization_bound(self):
        # single outage, randomized length and placement, retries inside slot
        rng = np.random.default_rng(31)
        cfg = config(retry_gap_s=1.0)
        checked = 0
        for _ in range(300):
            dur = float(rng.uniform(0.1, 3.0)) * T
            start = float(rng.uniform(T, cfg.horizon_s - dur - T))
            tl = Timeline.from_events(cfg.horizon_s, (OutageEvent(start, dur),))
            records = sample_campaign(tl, cfg)
            rep = report(tl, records, cfg)
            if not rep.duration_estimates:
                continue
            (_, est), = rep.duration_estimates
            lo = T * max(1, math.floor(dur / T) - 1)
            hi = T * (math.ceil(dur / T) + 1)
            assert lo <= est <= hi
            checked += 1
        assert checked > 200

    def test_empty_log_reports_all_undetected(self):
        cfg = config()
        tl = Timeline.from_events(cfg.horizon_s, (OutageEvent(1000.0, 50.0),))
        rep = report(tl, log_of([]), cfg)
        assert rep.undetected == 1
        assert rep.duration_estimates == ()

    def test_partition_invariant_enforced(self):
        with pytest.raises(ValueError):
            DetectionReport(total_true_outages=2, detected=2, undetected=1,
                            per_duration_bins=(), duration_estimates=())


def per_trial_monte_carlo(duration_s, interval_s, trials, seed=0, retry_max=9,
                          retry_gap_s=1.0):
    """Reference: one Timeline, CampaignConfig and sampler run per trial."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(9,)))
    missed = 0
    for _ in range(trials):
        offset = float(rng.uniform(0.0, interval_s))
        start = interval_s + offset
        horizon = interval_s * (math.floor((start + duration_s) / interval_s) + 2)
        timeline = Timeline.from_events(horizon, (
            OutageEvent(start_s=start, duration_s=duration_s, cause=CLOUD),))
        cfg = CampaignConfig(probe_interval_s=interval_s, horizon_days=horizon / 86400.0,
                             vantage_points=1, retry_max=retry_max,
                             retry_gap_s=retry_gap_s, seed=0)
        records = sample_campaign(timeline, cfg)
        if not any(start <= ts < start + duration_s for ts in records.ts_s.tolist()):
            missed += 1
    return missed / trials


class TestMonteCarloMissRate:
    @pytest.mark.parametrize("retry_max", [1, 9])
    @pytest.mark.parametrize("l_over_t", [0.1, 0.5, 0.9, 1.0, 1.2, 1.7])
    def test_equals_per_trial_reference(self, l_over_t, retry_max):
        for interval_s in (T, 60.0):  # the benchmark's two intervals
            args = (l_over_t * interval_s, interval_s, 400)
            kwargs = dict(seed=11, retry_max=retry_max)
            assert undetected_monte_carlo(*args, **kwargs) == per_trial_monte_carlo(
                *args, **kwargs), interval_s

    def test_builds_no_event_or_run_objects(self, monkeypatch):
        want = per_trial_monte_carlo(0.5 * T, T, 50, seed=3)

        def refuse(self, *args, **kwargs):
            raise AssertionError(f"{type(self).__name__} built")

        monkeypatch.setattr(OutageEvent, "__post_init__", refuse)
        monkeypatch.setattr(DetectedOutage, "__init__", refuse)
        assert undetected_monte_carlo(0.5 * T, T, trials=50, seed=3) == want

    @pytest.mark.parametrize("trials", [10.5, 2.0, True, "3", 0, -1])
    def test_trials_must_be_a_positive_integer(self, trials):
        with pytest.raises(ValueError, match="trials"):
            undetected_monte_carlo(60.0, T, trials)

    def test_half_interval_quick(self):
        rate = undetected_monte_carlo(0.5 * T, T, trials=4000, seed=5)
        assert abs(rate - 0.5) < 0.03

    def test_interval_length_outage_never_missed(self):
        assert undetected_monte_carlo(T, T, trials=500, seed=6) == 0.0

    @pytest.mark.parametrize("duration_s, interval_s", [
        (math.inf, T), (60.0, math.inf), (math.nan, T), (60.0, math.nan), (0.0, T),
        (60.0, -T)])
    def test_non_finite_rejected(self, duration_s, interval_s):
        with pytest.raises(ValueError, match="finite"):
            undetected_monte_carlo(duration_s, interval_s, trials=10)

    def test_retries_do_not_change_detection_without_network_noise(self):
        lean = undetected_monte_carlo(0.3 * T, T, trials=3000, seed=7, retry_max=1)
        deep = undetected_monte_carlo(0.3 * T, T, trials=3000, seed=7, retry_max=9)
        assert abs(lean - deep) < 1e-12


# Per-event oracles: the scoring as it was before it became array operations.
# The array versions must give the same report, byte for byte.

def oracle_detect_outages(log, config):
    mine = log.vantage == (log.vantage.min() if len(log) else 0)
    recovered = log.slot[mine & (log.outcome == OUTCOMES.index(SUCCESS))]
    failed = np.setdiff1d(log.slot[mine], recovered)
    runs = np.split(failed, np.flatnonzero(np.diff(failed) != 1) + 1) if len(failed) else []
    return [DetectedOutage(start_s=run[0] * config.probe_interval_s,
                           duration_s=len(run) * config.probe_interval_s,
                           first_slot=run[0], slot_count=len(run))
            for run in map(np.ndarray.tolist, runs)]


def oracle_detection_report(truth, log, config, runs, bin_edges_s=None):
    cloud = [ev for ev in truth.events if ev.cause == CLOUD]
    ts = np.append(np.sort(log.ts_s), math.inf)
    starts = np.array([ev.start_s for ev in cloud])
    ends = np.array([ev.end_s for ev in cloud])
    flags = (ts[np.searchsorted(ts, starts)] < ends).tolist()
    detected = sum(flags)
    if bin_edges_s is None:
        bin_edges_s = [config.probe_interval_s * i / 4.0 for i in range(7)]
    return DetectionReport(
        total_true_outages=len(cloud), detected=detected, undetected=len(cloud) - detected,
        per_duration_bins=tuple(oracle_bin_rates(cloud, flags, bin_edges_s,
                                                 config.probe_interval_s)),
        duration_estimates=tuple(oracle_duration_estimates(cloud, flags, runs,
                                                           config.probe_interval_s)))


def oracle_bin_rates(events, flags, edges, interval_s):
    edges = sorted(edges)
    if len(edges) < 2:
        raise ValueError("need at least two bin edges")
    bins = []
    for lo, hi in zip(edges, edges[1:]):
        inside = [f for ev, f in zip(events, flags) if lo <= ev.duration_s < hi]
        mid = 0.5 * (lo + hi)
        analytic = (0.0 if interval_s <= mid else 1.0 - mid / interval_s) if mid > 0 else 1.0
        rate = None if not inside else 1.0 - sum(inside) / len(inside)
        bins.append(DurationBin(lo_s=lo, hi_s=hi, analytic_p_nodet=analytic,
                                empirical_nodet=rate, outages=len(inside)))
    return bins


def oracle_duration_estimates(cloud, flags, runs, interval):
    lasts = np.array([run.first_slot + run.slot_count - 1 for run in runs], dtype=np.int64)
    estimates = []
    for ev, seen in zip(cloud, flags):
        slot = max(0, math.ceil(ev.start_s / interval - 1e-9) - 1)
        k = np.searchsorted(lasts, slot)
        if seen and k < len(runs) and max(slot, runs[k].first_slot) * interval < ev.end_s:
            estimates.append((ev.duration_s, runs[k].duration_s))
    return estimates


def assert_matches_oracle(truth, log, cfg, bin_edges_s=None):
    runs = detect_outages(log, cfg)
    want_runs = oracle_detect_outages(log, cfg)
    assert repr(runs) == repr(want_runs)
    got = detection_report(truth, log, cfg, runs, bin_edges_s=bin_edges_s)
    want = oracle_detection_report(truth, log, cfg, want_runs, bin_edges_s=bin_edges_s)
    assert repr(got) == repr(want)  # also pins float vs int vs numpy scalar types
    return got


def _events(draw, cause, horizon, interval):
    """Disjoint events of one cause, often starting and ending on slot epochs."""
    lengths = st.one_of(st.sampled_from([0.5, 1.0, 2.0, 3.0]).map(lambda m: m * interval),
                        st.floats(1e-3 * interval, 3 * interval))
    events, t = [], 0.0
    for gap, duration in draw(st.lists(st.tuples(st.one_of(st.just(0.0), lengths), lengths),
                                       max_size=12)):
        start = t + gap
        if start + duration > horizon:
            break
        events.append(OutageEvent(start, duration, cause))
        t = start + duration
    return events


@st.composite
def scored_campaigns(draw):
    interval = draw(st.sampled_from([7.5, 60.0, 600.0]))
    retry_max = draw(st.integers(1, 4))
    gap = draw(st.sampled_from([0.0, 1.0, interval / 8]))
    vantages = draw(st.integers(1, 3))
    slots = draw(st.integers(1, 30))
    cfg = CampaignConfig(probe_interval_s=interval, horizon_days=slots * interval / 86400.0,
                         vantage_points=vantages, retry_max=retry_max, retry_gap_s=gap,
                         seed=draw(st.integers(0, 9)))
    horizon = slots * interval
    events = []
    if draw(st.booleans()):
        events += _events(draw, CLOUD, horizon, interval)
    if draw(st.booleans()):
        events += _events(draw, NETWORK, horizon, interval)
    truth = Timeline.from_events(horizon, tuple(events))
    if draw(st.booleans()):
        # the real sampler; network noise leaves slots recovered on retry
        offsets = draw(st.none() | st.lists(st.sampled_from([0.0, 1.0, interval / 2]),
                                            min_size=vantages, max_size=vantages))
        q = draw(st.sampled_from([0.0, 0.3, 0.7]))
        log = sample_campaign(truth, cfg, q, phase_offsets=offsets)
    else:
        # attempts placed and failed at random, unrelated to the truth
        log = log_of(Row(ts_s=draw(st.floats(0.0, horizon)), vantage=draw(st.integers(0, 2)),
                         slot=draw(st.integers(0, slots)), attempt=1,
                         outcome=draw(st.sampled_from([SUCCESS, CLOUD_FAIL, NETWORK_FAIL])))
                     for _ in range(draw(st.integers(0, 40))))
    edges = draw(st.none() | st.lists(
        st.sampled_from([0, 0.0, 0.25, 0.5, 1.0, 1.5, 3.0, math.inf]).map(lambda m: m * interval)
        | st.floats(0.0, 4 * interval), min_size=2, max_size=6))
    return truth, log, cfg, edges


class TestMatchesPerEventOracle:
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(campaign=scored_campaigns())
    def test_random_campaigns(self, campaign):
        assert_matches_oracle(*campaign)

    def test_events_on_slot_boundaries(self):
        cfg = config(retry_max=3)
        tl = Timeline.from_events(cfg.horizon_s, (
            OutageEvent(T, T), OutageEvent(3 * T, 2 * T), OutageEvent(5 * T, 0.5 * T),
            OutageEvent(10 * T - 1.0, 1.0)))
        rep = assert_matches_oracle(tl, sample_campaign(tl, cfg), cfg)
        assert rep.total_true_outages == 4 and rep.undetected == 1
        # back-to-back outages merge into one run, paired with both
        assert rep.duration_estimates == ((T, T), (2 * T, 3 * T), (0.5 * T, 3 * T))

    @pytest.mark.parametrize("events", [(), (OutageEvent(1000.0, 300.0, NETWORK),)],
                             ids=["no-events", "network-only"])
    def test_no_cloud_events(self, events):
        cfg = config()
        tl = Timeline.from_events(cfg.horizon_s, events)
        rep = assert_matches_oracle(tl, sample_campaign(tl, cfg, 0.2), cfg)
        assert rep.total_true_outages == 0 and rep.duration_estimates == ()
        assert all(b.outages == 0 and b.empirical_nodet is None for b in rep.per_duration_bins)

    def test_multi_vantage_log(self):
        cfg = config(vantage_points=3)
        tl = Timeline.from_events(cfg.horizon_s, (
            OutageEvent(250.0, 100.0), OutageEvent(2 * T + 10.0, 3 * T)))
        log = sample_campaign(tl, cfg, phase_offsets=[0.0, 300.0, 300.0])
        rep = assert_matches_oracle(tl, log, cfg)
        # only the offset vantages see the short outage, so it has no run
        assert rep.detected == 2 and len(rep.duration_estimates) == 1

    def test_slots_recovered_on_retry(self):
        cfg = config(retry_max=3, retry_gap_s=5.0)
        # a long outage makes a run over slots 1-2; each later one ends
        # between a slot's first attempt and its retry, after every run
        tl = Timeline.from_events(cfg.horizon_s, (OutageEvent(T / 2, 2.5 * T),) + tuple(
            OutageEvent(k * T - 20.0, 22.0) for k in range(5, 10)))
        log = sample_campaign(tl, cfg)
        rep = assert_matches_oracle(tl, log, cfg)
        assert [(r.first_slot, r.slot_count) for r in detect_outages(log, cfg)] == [(1, 2)]
        assert rep.detected == 6 and rep.duration_estimates == ((2.5 * T, 2 * T),)

    @pytest.mark.parametrize("edges", [[T, 0.0, T / 2], [0.0, T / 2, T / 2, T],
                                       [0.0, 0.0], [T, math.inf, 0.0]],
                             ids=["unsorted", "duplicate", "all-equal", "infinite"])
    def test_bin_edges(self, edges):
        cfg = config()
        tl = Timeline.from_events(cfg.horizon_s, (
            OutageEvent(100.0, T / 2), OutageEvent(2000.0, T / 4), OutageEvent(9000.0, 2 * T)))
        rep = assert_matches_oracle(tl, sample_campaign(tl, cfg), cfg, bin_edges_s=edges)
        assert [b.lo_s for b in rep.per_duration_bins] == sorted(edges)[:-1]
        assert sum(b.outages for b in rep.per_duration_bins) == sum(
            min(edges) <= d < max(edges) for d in (T / 2, T / 4, 2 * T))

    def test_too_few_edges_rejected(self):
        cfg = config()
        tl = Timeline(cfg.horizon_s, [], [])
        with pytest.raises(ValueError, match="two bin edges"):
            report(tl, log_of([]), cfg, bin_edges_s=[T])
