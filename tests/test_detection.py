import math

import numpy as np
import pytest

from cloudprobe.detection import (
    DetectionReport,
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
        tl = Timeline(horizon_s=86400.0, events=(
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
        tl = Timeline(horizon_s=cfg.horizon_s, events=(OutageEvent(1000.0, 2 * T),))
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
        assert rep.detected + rep.undetected == rep.total_true_outages == len(tl.events_of(CLOUD))
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
            assert len(runs) <= len(tl.events_of(CLOUD))

    def test_duration_quantization_bound(self):
        # single outage, randomized length and placement, retries inside slot
        rng = np.random.default_rng(31)
        cfg = config(retry_gap_s=1.0)
        checked = 0
        for _ in range(300):
            dur = float(rng.uniform(0.1, 3.0)) * T
            start = float(rng.uniform(T, cfg.horizon_s - dur - T))
            tl = Timeline(horizon_s=cfg.horizon_s, events=(OutageEvent(start, dur),))
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
        tl = Timeline(horizon_s=cfg.horizon_s, events=(OutageEvent(1000.0, 50.0),))
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
        timeline = Timeline(horizon_s=horizon, events=(
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
    @pytest.mark.parametrize("l_over_t", [0.1, 0.5, 0.9, 1.0, 1.7])
    def test_equals_per_trial_reference(self, l_over_t, retry_max):
        args = (l_over_t * T, T, 400)
        kwargs = dict(seed=11, retry_max=retry_max)
        assert undetected_monte_carlo(*args, **kwargs) == per_trial_monte_carlo(*args, **kwargs)

    def test_half_interval_quick(self):
        rate = undetected_monte_carlo(0.5 * T, T, trials=4000, seed=5)
        assert abs(rate - 0.5) < 0.03

    def test_interval_length_outage_never_missed(self):
        assert undetected_monte_carlo(T, T, trials=500, seed=6) == 0.0

    def test_retries_do_not_change_detection_without_network_noise(self):
        lean = undetected_monte_carlo(0.3 * T, T, trials=3000, seed=7, retry_max=1)
        deep = undetected_monte_carlo(0.3 * T, T, trials=3000, seed=7, retry_max=9)
        assert abs(lean - deep) < 1e-12
