import bisect
import math
import statistics

import numpy as np
import pytest

from cloudprobe.model import (
    CLOUD,
    CLOUD_FAIL,
    NETWORK,
    NETWORK_FAIL,
    SUCCESS,
    CampaignConfig,
    OutageEvent,
    Timeline,
    aggregate_counts,
    expected_tries,
)
from cloudprobe.estimators import (
    first_try_availability,
    overestimation_factor,
    retry_filtered_availability,
)
from cloudprobe.simulate import (
    DurationDistribution,
    NetworkBurst,
    OutageProcess,
    generate_timeline,
    iid_attempt_log,
    sample_campaign,
    true_unavailability,
)
from cloudprobe import logs

from conftest import Row, rows_of

DAY = 86400.0


def small_config(**kwargs):
    defaults = dict(probe_interval_s=600.0, horizon_days=1.0, vantage_points=1,
                    retry_max=9, retry_gap_s=1.0, seed=0)
    defaults.update(kwargs)
    return CampaignConfig(**defaults)


class TestDurationDistribution:
    # a NaN parameter used to loop generate_timeline forever
    @pytest.mark.parametrize("make", [
        lambda: DurationDistribution.fixed(math.nan),
        lambda: DurationDistribution.exponential(math.nan),
        lambda: DurationDistribution.generalized_pareto(shape=math.nan, scale=1),
        lambda: DurationDistribution.generalized_pareto(shape=0.1, scale=math.nan),
        lambda: DurationDistribution.generalized_pareto(shape=0.1, scale=1, location=math.nan),
        lambda: DurationDistribution.empirical([10.0, math.nan]),
        lambda: NetworkBurst(rate_per_day=math.inf, duration_s=1.0),
        lambda: NetworkBurst(rate_per_day=1.0, duration_s=math.nan),
        lambda: OutageProcess(up_mean_s=math.nan, duration_dist=DurationDistribution.fixed(1.0)),
    ])
    def test_non_finite_parameters_rejected(self, make):
        with pytest.raises(ValueError):
            make()

    def test_fixed_zero_rejected(self):
        with pytest.raises(ValueError):
            DurationDistribution.fixed(0)

    def test_exponential_needs_positive_mean(self):
        with pytest.raises(ValueError):
            DurationDistribution.exponential(-1)

    def test_gpd_needs_positive_scale(self):
        with pytest.raises(ValueError):
            DurationDistribution.generalized_pareto(shape=0.1, scale=0)

    def test_gpd_needs_nonnegative_location(self):
        with pytest.raises(ValueError):
            DurationDistribution.generalized_pareto(shape=0.1, scale=1, location=-1)

    def test_empirical_needs_positive_values(self):
        with pytest.raises(ValueError):
            DurationDistribution.empirical([10, 0])
        with pytest.raises(ValueError):
            DurationDistribution.empirical([])

    def test_gpd_zero_shape_matches_exponential_mean(self):
        rng = np.random.default_rng(1)
        dist = DurationDistribution.generalized_pareto(shape=0.0, scale=50.0, location=5.0)
        draws = [dist.sample(rng) for _ in range(20000)]
        assert min(draws) >= 5.0
        assert math.isclose(statistics.mean(draws), 55.0, rel_tol=0.05)

    def test_gpd_positive_shape_mean(self):
        # mean = location + scale / (1 - shape) for shape < 1
        rng = np.random.default_rng(2)
        dist = DurationDistribution.generalized_pareto(shape=0.2, scale=40.0)
        draws = [dist.sample(rng) for _ in range(40000)]
        assert math.isclose(statistics.mean(draws), 50.0, rel_tol=0.06)

    def test_gpd_negative_shape_bounded(self):
        rng = np.random.default_rng(3)
        dist = DurationDistribution.generalized_pareto(shape=-0.5, scale=30.0)
        draws = [dist.sample(rng) for _ in range(5000)]
        assert all(0 < d <= 60.0 + 1e-9 for d in draws)

    def test_empirical_samples_members(self):
        rng = np.random.default_rng(4)
        dist = DurationDistribution.empirical([12.0, 120.0, 1200.0])
        draws = {dist.sample(rng) for _ in range(200)}
        assert draws <= {12.0, 120.0, 1200.0}
        assert len(draws) == 3


class TestGenerateTimeline:
    def test_quiet_process_yields_no_events(self):
        horizon = 1000.0
        proc = OutageProcess(up_mean_s=horizon * 1e6,
                             duration_dist=DurationDistribution.fixed(10))
        total = sum(len(generate_timeline(proc, horizon, seed).events) for seed in range(1000))
        # total event count is ~Poisson(1000 * horizon/up_mean) = Poisson(1e-3)
        assert total <= 1e-3 + 3 * math.sqrt(1e-3) + 1

    def test_event_count_tracks_renewal_rate(self):
        proc = OutageProcess(up_mean_s=3600.0,
                             duration_dist=DurationDistribution.fixed(120.0))
        horizon = 30 * DAY
        counts = [len(generate_timeline(proc, horizon, seed).events) for seed in range(30)]
        lam = horizon / 3720.0  # one event per up+down cycle
        assert abs(statistics.mean(counts) - lam) < 3 * math.sqrt(lam / 30)

    def test_renewal_reward_unavailability(self):
        proc = OutageProcess(up_mean_s=3600.0,
                             duration_dist=DurationDistribution.fixed(120.0))
        vals = [true_unavailability(generate_timeline(proc, 30 * DAY, seed), CLOUD)
                for seed in range(100)]
        assert abs(statistics.mean(vals) - 120.0 / 3720.0) < 0.003

    def test_deterministic_given_seed(self):
        proc = OutageProcess(up_mean_s=1800.0,
                             duration_dist=DurationDistribution.exponential(300.0),
                             network_burst=NetworkBurst(rate_per_day=4.0, duration_s=5.0))
        a = generate_timeline(proc, 5 * DAY, 42)
        b = generate_timeline(proc, 5 * DAY, 42)
        assert a.events == b.events

    @pytest.mark.parametrize("horizon_s", [math.nan, math.inf, 0.0, -1.0])
    def test_horizon_must_be_finite_and_positive(self, horizon_s):
        # a NaN horizon never ended the draw loop, so it is refused before it
        proc = OutageProcess(up_mean_s=600.0, duration_dist=DurationDistribution.fixed(10.0))
        with pytest.raises(ValueError, match="horizon_s must be finite and > 0"):
            generate_timeline(proc, horizon_s, 1)

    def test_events_stay_inside_horizon(self):
        proc = OutageProcess(up_mean_s=600.0,
                             duration_dist=DurationDistribution.exponential(4000.0))
        tl = generate_timeline(proc, DAY, 11)
        assert all(e.end_s <= DAY for e in tl.events)

    def test_bursts_disjoint_after_merge(self):
        proc = OutageProcess(up_mean_s=1e12,
                             duration_dist=DurationDistribution.fixed(1),
                             network_burst=NetworkBurst(rate_per_day=2000.0, duration_s=120.0))
        tl = generate_timeline(proc, DAY, 5)
        bursts = [e for e in tl.events if e.cause == NETWORK]
        assert bursts
        for a, b in zip(bursts, bursts[1:]):
            assert a.end_s <= b.start_s


class TestSampleCampaign:
    def test_fault_free_campaign(self):
        config = small_config()
        tl = Timeline(config.horizon_s, [], [])
        records = sample_campaign(tl, config)
        counts = aggregate_counts(records, retry_max=config.retry_max)
        assert counts.attempts[0] == expected_tries(config)
        assert counts.successes[0] == counts.attempts[0]

    def test_total_outage_campaign(self):
        config = small_config()
        tl = Timeline.from_events(config.horizon_s, (OutageEvent(0.0, config.horizon_s),))
        records = sample_campaign(tl, config)
        counts = aggregate_counts(records, retry_max=config.retry_max)
        assert counts.attempts == tuple([config.slots] * config.retry_max)
        assert counts.successes == tuple([0] * config.retry_max)
        assert first_try_availability(counts) == 0.0

    def test_deterministic_byte_identical(self):
        proc = OutageProcess(up_mean_s=3600.0,
                             duration_dist=DurationDistribution.exponential(120.0),
                             network_fail_prob=0.01)
        config = small_config(vantage_points=3, seed=99)
        tl = generate_timeline(proc, config.horizon_s, config.seed)
        a = sample_campaign(tl, config, proc.network_fail_prob)
        b = sample_campaign(tl, config, proc.network_fail_prob)
        assert [logs.attempt_line(*r) for r in rows_of(a)] == [logs.attempt_line(*r) for r in rows_of(b)]

    def test_slots_stop_at_first_success_or_retry_max(self):
        proc = OutageProcess(up_mean_s=1200.0,
                             duration_dist=DurationDistribution.exponential(300.0))
        config = small_config(seed=3)
        tl = generate_timeline(proc, config.horizon_s, config.seed)
        records = sample_campaign(tl, config)
        by_slot = {}
        for r in rows_of(records):
            by_slot.setdefault(r.slot, []).append(r)
        for seq in by_slot.values():
            for r in seq[:-1]:
                assert r.outcome != SUCCESS
            assert seq[-1].outcome == SUCCESS or len(seq) == config.retry_max
        aggregate_counts(records, retry_max=config.retry_max)  # must not raise

    def test_cloud_outage_dominates_network_overlay(self):
        config = small_config(retry_max=1)
        tl = Timeline.from_events(config.horizon_s, (
            OutageEvent(0.0, config.horizon_s, CLOUD),
            OutageEvent(0.0, config.horizon_s, NETWORK),
        ))
        records = sample_campaign(tl, config, network_fail_prob=0.5)
        assert {r.outcome for r in rows_of(records)} == {CLOUD_FAIL}

    def test_burst_failures_marked_network(self):
        config = small_config(retry_max=1)
        tl = Timeline.from_events(config.horizon_s, (OutageEvent(0.0, config.horizon_s, NETWORK),))
        records = sample_campaign(tl, config)
        assert {r.outcome for r in rows_of(records)} == {NETWORK_FAIL}

    def test_network_fail_prob_rate(self):
        config = small_config(horizon_days=10.0, retry_max=1, seed=8)
        tl = Timeline(config.horizon_s, [], [])
        records = sample_campaign(tl, config, network_fail_prob=0.2)
        fails = sum(r.outcome == NETWORK_FAIL for r in rows_of(records))
        assert abs(fails / len(records) - 0.2) < 0.02

    def test_phase_offsets_shift_epochs(self):
        config = small_config(vantage_points=2, retry_max=1)
        tl = Timeline(config.horizon_s, [], [])
        records = sample_campaign(tl, config, phase_offsets=[0.0, 30.0])
        first = {r.vantage: r.ts_s for r in rows_of(records) if r.slot == 0}
        assert first == {0: 0.0, 1: 30.0}

    def test_short_timeline_rejected(self):
        config = small_config()
        with pytest.raises(ValueError):
            sample_campaign(Timeline(config.horizon_s / 2, [], []), config)


def per_record_sample(timeline, config, q=0.0, phase_offsets=None):
    """Reference: the per-record sampler, one scalar draw and two bisects per attempt."""
    def inside(t, cause):
        events = [e for e in timeline.events if e.cause == cause]
        i = bisect.bisect_right([e.start_s for e in events], t) - 1
        return i >= 0 and t < events[i].end_s

    records = []
    for vantage in range(config.vantage_points):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=config.seed,
                                                           spawn_key=(1, vantage)))
        offset = phase_offsets[vantage] if phase_offsets else 0.0
        for slot in range(config.slots):
            epoch = slot * config.probe_interval_s + offset
            for attempt in range(1, config.retry_max + 1):
                ts = epoch + (attempt - 1) * config.retry_gap_s
                if inside(ts, CLOUD):
                    outcome = CLOUD_FAIL
                elif inside(ts, NETWORK) or (q > 0.0 and rng.random() < q):
                    outcome = NETWORK_FAIL
                else:
                    outcome = SUCCESS
                records.append(Row(ts_s=ts, vantage=vantage, slot=slot, attempt=attempt,
                                   outcome=outcome))
                if outcome == SUCCESS:
                    break
    records.sort(key=lambda r: (r.ts_s, r.vantage, r.attempt))
    return records


def per_record_iid(success_prob, slots, retry_max, seed, vantage=0):
    """Reference: the per-record i.i.d. hook."""
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(3,)))
    out = []
    for slot in range(slots):
        for attempt in range(1, retry_max + 1):
            ok = rng.random() < success_prob
            out.append(Row(ts_s=float(slot) + (attempt - 1) * 1e-3, vantage=vantage,
                           slot=slot, attempt=attempt, outcome=SUCCESS if ok else CLOUD_FAIL))
            if ok:
                break
    return out


class TestMatchesPerRecordReference:
    @pytest.mark.parametrize("q", [0.0, 0.002, 0.5])
    @pytest.mark.parametrize("bursts", [False, True])
    @pytest.mark.parametrize("retry_max", [1, 9])
    def test_sampler_columns_equal(self, q, bursts, retry_max):
        proc = OutageProcess(
            up_mean_s=2400.0, duration_dist=DurationDistribution.exponential(500.0),
            network_burst=NetworkBurst(rate_per_day=30.0, duration_s=200.0) if bursts else None)
        for seed, offsets in ((1, None), (2, [0.0, 17.5, 333.25]), (7, [2.0, 0.0, 1.0]),
                              (3, [5.0, 0.0, 5.0])):  # vantages sharing an offset
            config = small_config(horizon_days=2.0, vantage_points=3, retry_max=retry_max,
                                  seed=seed)
            tl = generate_timeline(proc, config.horizon_s, seed)
            log = sample_campaign(tl, config, q, phase_offsets=offsets)
            want = per_record_sample(tl, config, q, phase_offsets=offsets)
            assert len(log) == len(want)
            for name in ("ts_s", "vantage", "slot", "attempt", "outcome"):
                assert [getattr(r, name) for r in rows_of(log)] == [getattr(r, name) for r in want], name

    @pytest.mark.parametrize("q", [0.0, 0.5])
    def test_zero_gap_ties_equal(self, q):
        # every attempt of a slot, and of vantages sharing an offset, has one ts_s
        proc = OutageProcess(up_mean_s=2400.0,
                             duration_dist=DurationDistribution.exponential(500.0))
        config = small_config(horizon_days=1.0, vantage_points=4, retry_max=4,
                              retry_gap_s=0.0, seed=5)
        tl = generate_timeline(proc, config.horizon_s, 5)
        for offsets in (None, [3.0, 0.0, 3.0, 0.0]):
            log = sample_campaign(tl, config, q, phase_offsets=offsets)
            assert rows_of(log) == per_record_sample(tl, config, q, phase_offsets=offsets)

    @pytest.mark.parametrize("p, retry_max", [(0.0, 3), (0.3, 1), (0.5, 9), (1.0, 4)])
    def test_iid_hook_equal(self, p, retry_max):
        assert rows_of(iid_attempt_log(p, 500, retry_max, seed=4, vantage=2)) == \
            per_record_iid(p, 500, retry_max, seed=4, vantage=2)


class TestPersistenceExtreme:
    """Outages far outlasting the retry window: retries filter nothing."""

    PROC = OutageProcess(up_mean_s=7200.0, duration_dist=DurationDistribution.fixed(3600.0))

    def _run(self, seed, gap):
        config = small_config(horizon_days=7.0, retry_gap_s=gap, seed=seed)
        tl = generate_timeline(self.PROC, config.horizon_s, config.seed)
        records = sample_campaign(tl, config)
        counts = aggregate_counts(records, retry_max=config.retry_max)
        return first_try_availability(counts), retry_filtered_availability(counts)

    def test_zero_gap_exact_for_any_seed(self):
        for seed in range(10):
            p_first, p_filtered = self._run(seed, gap=0.0)
            assert p_filtered == p_first

    def test_spaced_retries_exact_for_seeded_campaign(self):
        p_first, p_filtered = self._run(seed=0, gap=1.0)
        assert 0 < p_first < 1
        assert p_filtered == p_first

    def test_spaced_retries_can_straddle_outage_end(self):
        # the boundary effect that keeps the equality from being unconditional
        p_first, p_filtered = self._run(seed=1, gap=1.0)
        assert p_filtered > p_first

    def test_every_in_outage_retry_fails(self):
        config = small_config(horizon_days=7.0, retry_gap_s=1.0, seed=4)
        tl = generate_timeline(self.PROC, config.horizon_s, config.seed)
        records = sample_campaign(tl, config)
        for rec in rows_of(records):
            if tl.in_outage(rec.ts_s, CLOUD):
                assert rec.outcome == CLOUD_FAIL


class TestIndependenceExtreme:
    """The i.i.d. per-attempt hook matches the geometric slot-success prediction."""

    def test_slot_success_rate_matches_geometric_sum(self):
        p = 0.5
        slots = 20000
        for n in (1, 2, 3, 5, 8):
            records = iid_attempt_log(p, slots, n, seed=100 + n)
            counts = aggregate_counts(records, retry_max=n)
            got = retry_filtered_availability(counts)
            want = 1.0 - (1.0 - p) ** n
            assert abs(got - want) < 0.02
            assert abs(got / p - overestimation_factor(p, n)) < 0.05

    def test_nondecreasing_in_retry_budget_with_limit_one(self):
        p = 0.3
        slots = 30000
        rates = []
        for n in (1, 2, 4, 8, 16):
            records = iid_attempt_log(p, slots, n, seed=55)
            counts = aggregate_counts(records, retry_max=n)
            rates.append(retry_filtered_availability(counts))
        assert all(b >= a - 0.01 for a, b in zip(rates, rates[1:]))
        assert rates[-1] > 0.99  # pushed far enough, the estimate saturates at 1

    def test_hook_validates_inputs(self):
        with pytest.raises(ValueError):
            iid_attempt_log(1.5, 10, 3, seed=0)
        with pytest.raises(ValueError):
            iid_attempt_log(0.5, 10, 0, seed=0)


class TestTrueUnavailability:
    def test_empty_timeline(self):
        assert true_unavailability(Timeline(1000.0, [], [])) == 0.0

    def test_full_horizon_outage(self):
        tl = Timeline.from_events(1000.0, (OutageEvent(0.0, 1000.0),))
        assert true_unavailability(tl) == 1.0

    def test_hand_sum(self):
        tl = Timeline.from_events(10000.0, (OutageEvent(100.0, 100.0), OutageEvent(5000.0, 200.0)))
        assert true_unavailability(tl) == pytest.approx(0.03)

    def test_cause_filter(self):
        tl = Timeline.from_events(10000.0, (
            OutageEvent(100.0, 100.0, CLOUD), OutageEvent(5000.0, 300.0, NETWORK)))
        assert true_unavailability(tl, CLOUD) == pytest.approx(0.01)
        assert true_unavailability(tl, NETWORK) == pytest.approx(0.03)
        assert true_unavailability(tl) == pytest.approx(0.04)
