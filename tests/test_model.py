import dataclasses

import numpy as np
import pytest

from cloudprobe.model import (
    CLOUD_FAIL,
    SUCCESS,
    AttemptCounts,
    AttemptRecord,
    CampaignConfig,
    ConfigError,
    MalformedLogError,
    OutageEvent,
    Timeline,
    aggregate_counts,
    expected_tries,
)
from cloudprobe import logs

from conftest import make_random_log


def rec(slot, attempt, outcome, vantage=0, gap=1.0, interval=60.0):
    return AttemptRecord(ts_s=slot * interval + (attempt - 1) * gap, vantage=vantage,
                         slot=slot, attempt=attempt, outcome=outcome)


def slots_to_records(patterns, retry_max):
    """patterns like ["S", "FS", "FFS", "FFF"], one string per slot."""
    records = []
    for slot, pat in enumerate(patterns):
        assert len(pat) <= retry_max
        for i, ch in enumerate(pat):
            records.append(rec(slot, i + 1, SUCCESS if ch == "S" else CLOUD_FAIL))
    return records


class TestAggregateCounts:
    def test_empty_log(self):
        counts = aggregate_counts([])
        assert counts.attempts == (0,) and counts.successes == (0,)

    def test_empty_log_with_retry_max(self):
        counts = aggregate_counts([], retry_max=4)
        assert counts.attempts == (0, 0, 0, 0)
        assert counts.successes == (0, 0, 0, 0)

    def test_all_first_attempts_succeed(self):
        records = [rec(s, 1, SUCCESS) for s in range(10)]
        counts = aggregate_counts(records, retry_max=9)
        assert counts.attempts[0] == 10 and counts.successes[0] == 10
        assert all(a == 0 for a in counts.attempts[1:])

    def test_hand_counted_example(self):
        # slots (S), (F,S), (F,F,S), (F,F,F) with retry_max 3
        records = slots_to_records(["S", "FS", "FFS", "FFF"], retry_max=3)
        counts = aggregate_counts(records, retry_max=3)
        assert counts.attempts == (4, 3, 2)
        assert counts.successes == (1, 1, 1)

    def test_infers_retry_max(self):
        records = slots_to_records(["S", "FS", "FFS", "FFF"], retry_max=3)
        assert aggregate_counts(records).retry_max == 3

    def test_attempt_gap_rejected(self):
        records = [rec(0, 1, CLOUD_FAIL), rec(0, 3, SUCCESS)]
        with pytest.raises(MalformedLogError) as err:
            aggregate_counts(records, retry_max=3)
        assert "slot=0" in str(err.value)

    def test_attempt_after_success_rejected(self):
        records = [rec(0, 1, SUCCESS), rec(0, 2, SUCCESS)]
        with pytest.raises(MalformedLogError):
            aggregate_counts(records, retry_max=3)

    def test_attempts_beyond_retry_max_rejected(self):
        records = slots_to_records(["FFS"], retry_max=3)
        with pytest.raises(MalformedLogError):
            aggregate_counts(records, retry_max=2)

    def test_incomplete_slot_rejected(self):
        # a slot that gave up after one failure while another shows 3 ranks
        records = slots_to_records(["FFS"], retry_max=3) + [rec(9, 1, CLOUD_FAIL)]
        with pytest.raises(MalformedLogError) as err:
            aggregate_counts(records, retry_max=3)
        assert "slot=9" in str(err.value)

    def test_recurrence_identity_randomized(self):
        rng = np.random.default_rng(20240817)
        for _ in range(200):
            records, n = make_random_log(rng)
            counts = aggregate_counts(records, retry_max=n)
            for i in range(n):
                assert counts.attempts[i] == counts.attempts[0] - sum(counts.successes[:i])


class TestExpectedTries:
    def test_campaign_one(self):
        config = CampaignConfig(probe_interval_s=600, horizon_days=33, vantage_points=23)
        assert expected_tries(config) == 109296

    def test_campaign_two_within_vantage_rounding(self):
        config = CampaignConfig(probe_interval_s=660, horizon_days=75, vantage_points=54)
        got = expected_tries(config)
        assert got == 54 * 9818  # exact floor arithmetic
        assert abs(got - 530182) <= 54  # published tally rounds per vantage

    def test_single_slot(self):
        config = CampaignConfig(probe_interval_s=86400, horizon_days=1, vantage_points=1)
        assert expected_tries(config) == 1


class TestCampaignConfig:
    def test_retries_must_fit_in_slot(self):
        with pytest.raises(ConfigError):
            CampaignConfig(probe_interval_s=10, horizon_days=1, retry_max=9, retry_gap_s=2)

    def test_zero_gap_allowed(self):
        config = CampaignConfig(probe_interval_s=10, horizon_days=1, retry_max=9, retry_gap_s=0)
        assert config.retry_gap_s == 0

    @pytest.mark.parametrize("kwargs", [
        {"probe_interval_s": 0, "horizon_days": 1},
        {"probe_interval_s": 60, "horizon_days": 0},
        {"probe_interval_s": 60, "horizon_days": 1, "vantage_points": 0},
        {"probe_interval_s": 60, "horizon_days": 1, "retry_max": 0},
        {"probe_interval_s": 60, "horizon_days": 1, "retry_gap_s": -1},
        {"probe_interval_s": float("nan"), "horizon_days": 1},
        {"probe_interval_s": 60, "horizon_days": float("inf")},
        {"probe_interval_s": 60, "horizon_days": 1, "retry_gap_s": float("nan")},
        {"probe_interval_s": 60, "horizon_days": 1, "mode": "other"},
        {"probe_interval_s": 60, "horizon_days": 1, "mode": "live"},  # no target
        {"probe_interval_s": 60, "horizon_days": 1, "seed": -1},
    ])
    def test_invalid_configs(self, kwargs):
        with pytest.raises(ConfigError):
            CampaignConfig(**kwargs)


class TestTimeline:
    def test_events_sorted_and_validated(self):
        tl = Timeline(horizon_s=1000, events=(
            OutageEvent(500, 10), OutageEvent(100, 50)))
        assert [e.start_s for e in tl.events] == [100, 500]
        assert [f.name for f in dataclasses.fields(tl)] == ["horizon_s", "events"]

    def test_same_cause_overlap_rejected(self):
        with pytest.raises(ValueError):
            Timeline(horizon_s=1000, events=(OutageEvent(0, 100), OutageEvent(50, 10)))

    def test_different_cause_overlap_allowed(self):
        tl = Timeline(horizon_s=1000, events=(
            OutageEvent(0, 100, "cloud"), OutageEvent(50, 10, "network")))
        assert len(tl.events) == 2

    def test_event_beyond_horizon_rejected(self):
        with pytest.raises(ValueError):
            Timeline(horizon_s=100, events=(OutageEvent(90, 20),))

    def test_half_open_membership(self):
        tl = Timeline(horizon_s=1000, events=(OutageEvent(100, 50),))
        assert tl.in_outage(100, "cloud")
        assert tl.in_outage(149.999, "cloud")
        assert not tl.in_outage(150, "cloud")  # probe at outage end succeeds
        assert not tl.in_outage(99.999, "cloud")

    def test_zero_duration_event_rejected(self):
        with pytest.raises(ValueError):
            OutageEvent(0, 0)


class TestAttemptCountsInvariants:
    def test_recurrence_enforced(self):
        with pytest.raises(ValueError):
            AttemptCounts(retry_max=2, attempts=(4, 2), successes=(1, 1))

    def test_successes_bounded(self):
        with pytest.raises(ValueError):
            AttemptCounts(retry_max=1, attempts=(4,), successes=(5,))

    def test_valid(self):
        counts = AttemptCounts(retry_max=3, attempts=(4, 3, 2), successes=(1, 1, 1))
        assert counts.total_attempts == 9
        assert counts.total_successes == 3


class TestJsonlRoundTrip:
    def test_counts_preserved(self, tmp_path):
        rng = np.random.default_rng(7)
        for i in range(25):
            records, n = make_random_log(rng)
            path = tmp_path / f"log{i}.jsonl"
            logs.write_attempt_log(path, records)
            back = logs.read_attempt_log(path)
            assert aggregate_counts(back, retry_max=n) == aggregate_counts(records, retry_max=n)

    def test_records_roundtrip_exactly(self, tmp_path):
        records = [
            AttemptRecord(ts_s=0.125, vantage=0, slot=0, attempt=1, outcome="success",
                          latency_ms=12.5),
            AttemptRecord(ts_s=60.0, vantage=0, slot=1, attempt=1, outcome="fail",
                          reason="timeout"),
        ]
        path = tmp_path / "log.jsonl"
        logs.write_attempt_log(path, records)
        assert logs.read_attempt_log(path) == records

    def test_decreasing_ts_rejected(self, tmp_path):
        records = [rec(1, 1, SUCCESS), rec(0, 1, SUCCESS)]
        path = tmp_path / "log.jsonl"
        logs.write_attempt_log(path, records)
        with pytest.raises(MalformedLogError):
            logs.read_attempt_log(path)

    def test_decreasing_ts_across_vantages_ok(self, tmp_path):
        records = [rec(1, 1, SUCCESS, vantage=0), rec(0, 1, SUCCESS, vantage=1)]
        path = tmp_path / "log.jsonl"
        logs.write_attempt_log(path, records)
        assert len(logs.read_attempt_log(path)) == 2

    def test_garbage_line_rejected(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text('{"ts_s": 0}\n', encoding="utf-8")
        with pytest.raises(MalformedLogError):
            logs.read_attempt_log(path)

    def test_truth_roundtrip(self, tmp_path):
        tl = Timeline(horizon_s=1000, events=(
            OutageEvent(100, 50, "cloud"), OutageEvent(400, 5, "network")))
        path = tmp_path / "truth.jsonl"
        logs.write_truth(path, tl)
        assert logs.read_truth(path) == tl.events
