import csv
import io
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import cloudprobe
from cloudprobe.detection import (
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
    Timeline,
)
from cloudprobe.simulate import (
    DurationDistribution,
    OutageProcess,
    generate_timeline,
    sample_campaign,
)

from conftest import Outage, Row, log_of, make_random_log, outages_of, rows_of, timeline_of

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
    return detection_report(truth, log, cfg, detect_outages(log), **kwargs)


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
        rows = dict(undetected_curve(T))
        assert len(rows) == 60 and min(rows) == 0.025
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

    def test_csv_header_exact(self, tmp_path):
        path = tmp_path / "curve.csv"
        write_undetected_curve(path, undetected_curve(T))
        lines = path.read_text().splitlines()
        assert lines[0] == "l_over_t,p_nodet"
        ratio, p = lines[1].split(",")
        assert float(ratio) > 0 and 0.0 <= float(p) <= 1.0


    def test_csv_bytes_are_csv_writers(self, tmp_path):
        # each line, the header too, as csv.writer writes it: ended by \r\n
        path = tmp_path / "curve.csv"
        rows = undetected_curve(7.3)
        write_undetected_curve(path, rows)
        want = io.StringIO(newline="")
        writer = csv.writer(want)
        writer.writerow(["l_over_t", "p_nodet"])
        writer.writerows([f"{ratio:.6g}", f"{p:.6g}"] for ratio, p in rows)
        assert path.read_bytes() == want.getvalue().encode()


class TestDetectOutages:
    def test_no_failures(self):
        records = slot_records([SUCCESS] * 8)
        runs = detect_outages(records)
        assert runs.shape == (0, 2) and runs.dtype == np.int64

    def test_three_consecutive_failed_slots(self):
        outcomes = [SUCCESS, SUCCESS, CLOUD_FAIL, CLOUD_FAIL, CLOUD_FAIL, SUCCESS]
        runs = detect_outages(slot_records(outcomes))
        assert runs.dtype == np.int64 and runs.tolist() == [[2, 3]]  # first_slot, slot_count

    def test_run_splitting(self):
        outcomes = [SUCCESS] * 10
        for slot in (4, 5, 9):
            outcomes[slot] = CLOUD_FAIL
        runs = detect_outages(slot_records(outcomes))
        assert runs.tolist() == [[4, 2], [9, 1]]

    def test_slot_recovered_on_retry_is_not_a_run(self):
        records = log_of([
            Row(ts_s=0.0, vantage=0, slot=0, attempt=1, outcome=CLOUD_FAIL),
            Row(ts_s=1.0, vantage=0, slot=0, attempt=2, outcome=SUCCESS),
            Row(ts_s=T, vantage=0, slot=1, attempt=1, outcome=CLOUD_FAIL),
            Row(ts_s=T + 1.0, vantage=0, slot=1, attempt=2, outcome=CLOUD_FAIL),
        ])
        assert detect_outages(records).tolist() == [[1, 1]]

    def test_multi_vantage_log_uses_lowest_vantage(self):
        # vantage 1 comes first in the log and sees a different outage
        v1 = slot_records([CLOUD_FAIL, CLOUD_FAIL, SUCCESS, SUCCESS], vantage=1)
        v0 = slot_records([SUCCESS, SUCCESS, SUCCESS, CLOUD_FAIL], vantage=0)
        runs = detect_outages(AttemptLog.concat([v1, v0]))
        assert runs.tolist() == [[3, 1]]

    @staticmethod
    def oracle_runs(log):
        """detect_outages by one Python step per record, then per slot."""
        rows = rows_of(log)
        observer = min((r.vantage for r in rows), default=0)
        recovered = {}
        for r in rows:
            if r.vantage == observer:
                recovered[r.slot] = recovered.get(r.slot, False) or r.outcome == SUCCESS
        runs = []
        for slot in sorted(recovered):
            if recovered[slot]:
                continue
            if runs and runs[-1][0] + runs[-1][1] == slot:
                runs[-1][1] += 1
            else:
                runs.append([slot, 1])
        return runs

    def assert_matches_oracle(self, log):
        runs = detect_outages(log)
        want = self.oracle_runs(log)
        assert runs.dtype == np.int64 and runs.shape == (len(want), 2)
        assert runs.tolist() == want

    @settings(max_examples=300, deadline=None)
    @given(rows=st.lists(st.tuples(st.integers(1, 4), st.integers(0, 30), st.integers(1, 3),
                                   st.sampled_from(OUTCOMES)), max_size=150))
    def test_matches_per_slot_oracle(self, rows):
        # any order, several vantages (none of them 0), repeated and missing slots
        self.assert_matches_oracle(log_of([Row(float(i), v, s, a, o)
                                           for i, (v, s, a, o) in enumerate(rows)]))

    @pytest.mark.parametrize("seed", range(12))
    def test_retry_logs_match_per_slot_oracle(self, seed):
        rng = np.random.default_rng(seed)
        log, _ = make_random_log(rng)
        self.assert_matches_oracle(log)
        self.assert_matches_oracle(log[rng.permutation(len(log))])

    @pytest.mark.parametrize("rows", [
        [], [Row(0.0, 3, 0, 1, SUCCESS), Row(1.0, 3, 1, 1, CLOUD_FAIL), Row(1.5, 3, 1, 2, SUCCESS)],
        [Row(0.0, 1, 5, 1, CLOUD_FAIL), Row(0.0, 0, 5, 1, SUCCESS)]],
        ids=["empty", "retries-recover-every-slot", "observer-sees-no-failure"])
    def test_no_failed_slot_matches_oracle(self, rows):
        log = log_of(rows)
        self.assert_matches_oracle(log)
        assert detect_outages(log).shape == (0, 2)


class TestSlaMetrics:
    def test_empty(self):
        assert sla_metrics([], 3600.0) == SlaMetrics(0, 0, 0.0)

    def test_hand_count(self):
        metrics = sla_metrics(np.array([1800.0, 600.0, 7200.0]), 3600.0)
        assert metrics == SlaMetrics(failure_count=3, long_outage_count=1,
                                     cumulative_outage_s=9600.0)

    def test_zero_threshold_counts_everything_long(self):
        metrics = sla_metrics([120.0, 60.0], 0.0)
        assert metrics.long_outage_count == metrics.failure_count == 2

    def test_cumulative_is_summed_in_order(self):
        # Python's sum in order gives 0.9999999999999999 on Python 3.11, where
        # numpy's pairwise sum gives 1.0
        metrics = sla_metrics(np.full(10, 0.1), 0.0)
        assert metrics.cumulative_outage_s == sum([0.1] * 10)
        assert type(metrics.cumulative_outage_s) is float and type(metrics.failure_count) is int

    def test_true_metrics_filter_cloud(self):
        tl = timeline_of(86400.0, (Outage(0, 1800.0, "cloud"), Outage(40000, 30.0, "network")))
        metrics = true_sla_metrics(tl, 600.0)
        assert metrics.failure_count == 1
        assert metrics.cumulative_outage_s == 1800.0

    def test_invariant(self):
        with pytest.raises(ValueError):
            SlaMetrics(failure_count=1, long_outage_count=2, cumulative_outage_s=0.0)


class TestDetectionReport:
    def test_long_outage_always_detected(self):
        cfg = config()
        tl = timeline_of(cfg.horizon_s, (Outage(1000.0, 2 * T),))
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
        weighted = {}
        for seed in range(40):
            cfg = config(horizon_days=5.0, seed=seed)
            tl = generate_timeline(proc, cfg.horizon_s, cfg.seed)
            rep = report(tl, sample_campaign(tl, cfg), cfg)
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
            runs = detect_outages(records)
            assert len(runs) <= len(tl.intervals(CLOUD)[0])

    def test_duration_quantization_bound(self):
        # single outage, randomized length and placement, retries inside slot
        rng = np.random.default_rng(31)
        cfg = config(retry_gap_s=1.0)
        checked = 0
        for _ in range(300):
            dur = float(rng.uniform(0.1, 3.0)) * T
            start = float(rng.uniform(T, cfg.horizon_s - dur - T))
            tl = timeline_of(cfg.horizon_s, (Outage(start, dur),))
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
        tl = timeline_of(cfg.horizon_s, (Outage(1000.0, 50.0),))
        rep = report(tl, log_of([]), cfg)
        assert rep.undetected == 1
        assert rep.duration_estimates == ()

    def test_partition_invariant_enforced(self):
        with pytest.raises(ValueError):
            DetectionReport(total_true_outages=2, detected=2, undetected=1,
                            per_duration_bins=(), duration_estimates=())


def per_trial_monte_carlo(duration_s, interval_s, trials, seed=0, retry_max=9,
                          retry_gap_s=1.0):
    """Reference: each trial's attempt times walked in plain Python from the
    schedule, with no sampler. Attempt a of slot k is at k*T + (a-1)*g, and a
    slot's retries stop at its first attempt outside the outage."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(9,)))
    missed = 0
    for _ in range(trials):
        offset = float(rng.uniform(0.0, interval_s))
        start = interval_s + offset
        end = start + duration_s
        seen = False
        for k in range(math.floor(end / interval_s) + 2):
            for a in range(1, retry_max + 1):
                if not start <= k * interval_s + (a - 1) * retry_gap_s < end:
                    break
                seen = True
        missed += not seen
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

    def test_no_event_or_run_classes_exported(self):
        # the truth is only a Timeline and the runs only an array
        for name in ("OutageEvent", "DetectedOutage"):
            assert name not in cloudprobe.__all__ and not hasattr(cloudprobe, name)

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

def oracle_detect_outages(log):
    """[first_slot, slot_count] of each run."""
    mine = log.vantage == (log.vantage.min() if len(log) else 0)
    recovered = log.slot[mine & (log.outcome == OUTCOMES.index(SUCCESS))]
    failed = np.setdiff1d(log.slot[mine], recovered)
    runs = np.split(failed, np.flatnonzero(np.diff(failed) != 1) + 1) if len(failed) else []
    return [[run[0], len(run)] for run in map(np.ndarray.tolist, runs)]


def oracle_detection_report(truth, log, config, runs):
    cloud = [ev for ev in outages_of(truth) if ev.cause == CLOUD]
    ts = np.append(np.sort(log.ts_s), math.inf)
    starts = np.array([ev.start_s for ev in cloud])
    ends = np.array([ev.start_s + ev.duration_s for ev in cloud])
    flags = (ts[np.searchsorted(ts, starts)] < ends).tolist()
    detected = sum(flags)
    return DetectionReport(
        total_true_outages=len(cloud), detected=detected, undetected=len(cloud) - detected,
        per_duration_bins=tuple(oracle_bin_rates(cloud, flags, config.probe_interval_s)),
        duration_estimates=tuple(oracle_duration_estimates(cloud, flags, runs,
                                                           config.probe_interval_s)))


def oracle_bin_rates(events, flags, interval_s):
    edges = [interval_s * i / 4.0 for i in range(7)]
    bins = []
    for lo, hi in zip(edges, edges[1:]):
        inside = [f for ev, f in zip(events, flags) if lo <= ev.duration_s < hi]
        mid = 0.5 * (lo + hi)
        analytic = 0.0 if interval_s <= mid else 1.0 - mid / interval_s
        rate = None if not inside else 1.0 - sum(inside) / len(inside)
        bins.append(DurationBin(lo_s=lo, hi_s=hi, analytic_p_nodet=analytic,
                                empirical_nodet=rate, outages=len(inside)))
    return bins


def oracle_duration_estimates(cloud, flags, runs, interval):
    lasts = np.array([first + count - 1 for first, count in runs], dtype=np.int64)
    estimates = []
    for ev, seen in zip(cloud, flags):
        slot = max(0, math.ceil(ev.start_s / interval - 1e-9) - 1)
        k = np.searchsorted(lasts, slot)
        if seen and k < len(runs) and (max(slot, runs[k][0]) * interval
                                       < ev.start_s + ev.duration_s):
            estimates.append((ev.duration_s, runs[k][1] * interval))
    return estimates


def assert_matches_oracle(truth, log, cfg):
    runs = detect_outages(log)
    want_runs = oracle_detect_outages(log)
    assert runs.dtype == np.int64 and runs.shape == (len(want_runs), 2)
    assert runs.tolist() == want_runs
    got = detection_report(truth, log, cfg, runs)
    want = oracle_detection_report(truth, log, cfg, want_runs)
    assert repr(got) == repr(want)  # also pins float vs int vs numpy scalar types
    return got


def _events(draw, cause, horizon, interval):
    """Disjoint outages of one cause, often starting and ending on slot epochs."""
    lengths = st.one_of(st.sampled_from([0.5, 1.0, 2.0, 3.0]).map(lambda m: m * interval),
                        st.floats(1e-3 * interval, 3 * interval))
    events, t = [], 0.0
    for gap, duration in draw(st.lists(st.tuples(st.one_of(st.just(0.0), lengths), lengths),
                                       max_size=12)):
        start = t + gap
        if start + duration > horizon:
            break
        events.append(Outage(start, duration, cause))
        t = start + duration
    return events


def staggered_log(truth, cfg, offsets, q=0.0):
    """A log whose vantage v probes offsets[v] s after each slot epoch: its records
    from the sampler run on the truth moved offsets[v] earlier, then moved back.
    Each offset plus the last retry's delay must stay below the probe interval."""
    rows = []
    for vantage, offset in enumerate(offsets):
        shifted = []
        for o in outages_of(truth):
            start, end = max(o.start_s - offset, 0.0), o.start_s + o.duration_s - offset
            if end > 0.0:
                shifted.append(Outage(start, end - start, o.cause))
        log = sample_campaign(timeline_of(truth.horizon_s, shifted), cfg, q)
        rows += [r._replace(ts_s=r.ts_s + offset) for r in rows_of(log) if r.vantage == vantage]
    return log_of(sorted(rows, key=lambda r: (r.ts_s, r.vantage, r.attempt)))


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
    truth = timeline_of(horizon, events)
    if draw(st.booleans()):
        # the real sampler, its vantages staggered or not; network noise leaves
        # slots recovered on retry
        offsets = draw(st.none() | st.lists(st.sampled_from([0.0, 1.0, interval / 2]),
                                            min_size=vantages, max_size=vantages))
        q = draw(st.sampled_from([0.0, 0.3, 0.7]))
        log = sample_campaign(truth, cfg, q) if offsets is None else staggered_log(
            truth, cfg, offsets, q)
    else:
        # attempts placed and failed at random, unrelated to the truth
        log = log_of(Row(ts_s=draw(st.floats(0.0, horizon)), vantage=draw(st.integers(0, 2)),
                         slot=draw(st.integers(0, slots)), attempt=1,
                         outcome=draw(st.sampled_from([SUCCESS, CLOUD_FAIL, NETWORK_FAIL])))
                     for _ in range(draw(st.integers(0, 40))))
    return truth, log, cfg


class TestMatchesPerEventOracle:
    @settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(campaign=scored_campaigns())
    def test_random_campaigns(self, campaign):
        assert_matches_oracle(*campaign)

    def test_events_on_slot_boundaries(self):
        cfg = config(retry_max=3)
        tl = timeline_of(cfg.horizon_s, (
            Outage(T, T), Outage(3 * T, 2 * T), Outage(5 * T, 0.5 * T), Outage(10 * T - 1.0, 1.0)))
        rep = assert_matches_oracle(tl, sample_campaign(tl, cfg), cfg)
        assert rep.total_true_outages == 4 and rep.undetected == 1
        # back-to-back outages merge into one run, paired with both
        assert rep.duration_estimates == ((T, T), (2 * T, 3 * T), (0.5 * T, 3 * T))

    @pytest.mark.parametrize("events", [(), (Outage(1000.0, 300.0, NETWORK),)],
                             ids=["no-events", "network-only"])
    def test_no_cloud_events(self, events):
        cfg = config()
        tl = timeline_of(cfg.horizon_s, events)
        rep = assert_matches_oracle(tl, sample_campaign(tl, cfg, 0.2), cfg)
        assert rep.total_true_outages == 0 and rep.duration_estimates == ()
        assert all(b.outages == 0 and b.empirical_nodet is None for b in rep.per_duration_bins)

    def test_multi_vantage_log(self):
        cfg = config(vantage_points=3)
        tl = timeline_of(cfg.horizon_s, (Outage(250.0, 100.0), Outage(2 * T + 10.0, 3 * T)))
        log = staggered_log(tl, cfg, [0.0, 300.0, 300.0])
        rep = assert_matches_oracle(tl, log, cfg)
        # only the offset vantages see the short outage, so it has no run
        assert rep.detected == 2 and len(rep.duration_estimates) == 1

    def test_slots_recovered_on_retry(self):
        cfg = config(retry_max=3, retry_gap_s=5.0)
        # a long outage makes a run over slots 1-2; each later one ends
        # between a slot's first attempt and its retry, after every run
        tl = timeline_of(cfg.horizon_s, [Outage(T / 2, 2.5 * T)] + [
            Outage(k * T - 20.0, 22.0) for k in range(5, 10)])
        log = sample_campaign(tl, cfg)
        rep = assert_matches_oracle(tl, log, cfg)
        assert detect_outages(log).tolist() == [[1, 2]]
        assert rep.detected == 6 and rep.duration_estimates == ((2.5 * T, 2 * T),)
