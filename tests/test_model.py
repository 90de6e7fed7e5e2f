import dataclasses
import json
import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from cloudprobe.model import (
    _COLUMNS,
    CAUSES,
    CLOUD_FAIL,
    OUTCOMES,
    SUCCESS,
    AttemptCounts,
    AttemptLog,
    CampaignConfig,
    ConfigError,
    MalformedLogError,
    Timeline,
    aggregate_counts,
    expected_tries,
    row_fault,
)
from cloudprobe import logs
from cloudprobe.detection import sla_metrics
from cloudprobe.estimators import SlaClaim, sla_test
from cloudprobe.report import merge_fragments
from cloudprobe.simulate import sample_campaign

from conftest import (Outage, Row, column_bytes, first_campaign, log_of, make_random_log,
                      outages_of, reference_aggregate_counts, rows_of, timeline_of)


def rec(slot, attempt, outcome, vantage=0, gap=1.0, interval=60.0):
    return Row(ts_s=slot * interval + (attempt - 1) * gap, vantage=vantage,
               slot=slot, attempt=attempt, outcome=outcome)


def slots_to_records(patterns, retry_max):
    """patterns like ["S", "FS", "FFS", "FFF"], one string per slot."""
    records = []
    for slot, pat in enumerate(patterns):
        assert len(pat) <= retry_max
        for i, ch in enumerate(pat):
            records.append(rec(slot, i + 1, SUCCESS if ch == "S" else CLOUD_FAIL))
    return records


def dict_aggregate_counts(records, retry_max=None):
    """Reference: the dict-of-lists tally, one Python pass per record."""
    slots = {}
    for r in records:
        slots.setdefault((r.vantage, r.slot), []).append(r)
    max_seen = 0
    for (vantage, slot), seq in slots.items():
        for i, r in enumerate(seq):
            if r.attempt != i + 1:
                raise MalformedLogError(vantage, slot,
                                        f"expected attempt {i + 1}, found {r.attempt}")
            if r.outcome == SUCCESS and i + 1 < len(seq):
                raise MalformedLogError(vantage, slot, f"attempt after success at attempt {i + 1}")
        max_seen = max(max_seen, len(seq))
    n = max(max_seen, 1) if retry_max is None else retry_max
    if max_seen > n:
        offender = next(k for k, seq in slots.items() if len(seq) > n)
        raise MalformedLogError(*offender, f"{max_seen} attempts exceed retry_max={n}")
    attempts, successes = [0] * n, [0] * n
    for (vantage, slot), seq in slots.items():
        if seq[-1].outcome != SUCCESS and len(seq) < n:
            raise MalformedLogError(vantage, slot,
                                    f"slot ended after failed attempt {len(seq)} of {n}")
        for i, r in enumerate(seq):
            attempts[i] += 1
            successes[i] += r.outcome == SUCCESS
    return AttemptCounts(retry_max=n, attempts=tuple(attempts), successes=tuple(successes))


def corrupt(records, rng):
    """The records with one random structural fault (or none)."""
    records = rows_of(records)
    if not records:
        return records
    i = int(rng.integers(len(records)))
    kind = int(rng.integers(6))
    if kind == 0:
        del records[i]
    elif kind == 1:
        records.insert(i, records[i])
    elif kind == 2:
        records[i] = records[i]._replace(attempt=int(rng.integers(1, 5)))
    elif kind == 3:
        records[i] = records[i]._replace(
            outcome=CLOUD_FAIL if records[i].outcome == SUCCESS else SUCCESS)
    elif kind == 4:
        j = int(rng.integers(len(records)))
        records[i], records[j] = records[j], records[i]
    return records


def outcome_of(fn):
    try:
        return fn()
    except MalformedLogError as exc:
        return (exc.vantage, exc.slot, str(exc))


class TestAggregateCounts:
    def test_empty_log(self):
        counts = aggregate_counts(log_of([]))
        assert counts.attempts == (0,) and counts.successes == (0,)

    def test_empty_log_with_retry_max(self):
        counts = aggregate_counts(log_of([]), retry_max=4)
        assert counts.attempts == (0, 0, 0, 0)
        assert counts.successes == (0, 0, 0, 0)

    def test_all_first_attempts_succeed(self):
        records = log_of([rec(s, 1, SUCCESS) for s in range(10)])
        counts = aggregate_counts(records, retry_max=9)
        assert counts.attempts[0] == 10 and counts.successes[0] == 10
        assert all(a == 0 for a in counts.attempts[1:])

    def test_hand_counted_example(self):
        # slots (S), (F,S), (F,F,S), (F,F,F) with retry_max 3
        records = log_of(slots_to_records(["S", "FS", "FFS", "FFF"], retry_max=3))
        counts = aggregate_counts(records, retry_max=3)
        assert counts.attempts == (4, 3, 2)
        assert counts.successes == (1, 1, 1)

    def test_infers_retry_max(self):
        records = log_of(slots_to_records(["S", "FS", "FFS", "FFF"], retry_max=3))
        assert aggregate_counts(records).retry_max == 3

    def test_attempt_gap_rejected(self):
        records = log_of([rec(0, 1, CLOUD_FAIL), rec(0, 3, SUCCESS)])
        with pytest.raises(MalformedLogError) as err:
            aggregate_counts(records, retry_max=3)
        assert "slot=0" in str(err.value)

    def test_attempt_after_success_rejected(self):
        records = log_of([rec(0, 1, SUCCESS), rec(0, 2, SUCCESS)])
        with pytest.raises(MalformedLogError):
            aggregate_counts(records, retry_max=3)

    def test_attempts_beyond_retry_max_rejected(self):
        records = log_of(slots_to_records(["FFS"], retry_max=3))
        with pytest.raises(MalformedLogError):
            aggregate_counts(records, retry_max=2)

    def test_incomplete_slot_rejected(self):
        # a slot that gave up after one failure while another shows 3 ranks
        records = log_of(slots_to_records(["FFS"], retry_max=3) + [rec(9, 1, CLOUD_FAIL)])
        with pytest.raises(MalformedLogError) as err:
            aggregate_counts(records, retry_max=3)
        assert "slot=9" in str(err.value)

    @pytest.mark.parametrize("retry_max", [None, "n", 2])
    def test_equals_dict_reference(self, retry_max):
        rng = np.random.default_rng(20261018)
        raised = 0
        for _ in range(300):
            log, n = make_random_log(rng)
            records = corrupt(log, rng)
            cap = n if retry_max == "n" else retry_max
            want = outcome_of(lambda: dict_aggregate_counts(records, retry_max=cap))
            assert outcome_of(lambda: aggregate_counts(log_of(records), retry_max=cap)) == want
            raised += isinstance(want, tuple)
        assert 0 < raised < 300  # both outcomes are exercised

    @settings(max_examples=400, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), faults=st.integers(0, 3),
           retry_max=st.sampled_from([None, "n", 1, 2, 4]))
    def test_equals_reference_on_corrupted_logs(self, seed, faults, retry_max):
        # the tally that checked its rules through per-row rank, size and first-seen
        # arrays: equal counts, or the same slot named with the same text
        rng = np.random.default_rng(seed)
        log, n = make_random_log(rng)
        records = rows_of(log)
        for _ in range(faults):
            records = corrupt(log_of(records), rng)
        cap = n if retry_max == "n" else retry_max
        want = outcome_of(lambda: reference_aggregate_counts(log_of(records), cap, "x.jsonl"))
        assert outcome_of(lambda: aggregate_counts(log_of(records), cap, "x.jsonl")) == want

    def test_peak_memory_above_the_log(self):
        # the peak above the log includes the slot table by_slot leaves cached on it
        timeline, config, q = first_campaign(5.0)
        log = sample_campaign(timeline, config, q)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            counts = aggregate_counts(log, retry_max=config.retry_max)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert counts.first_attempts == 23 * config.slots
        assert peak <= 1.25 * column_bytes(log)

    def test_recurrence_identity_randomized(self):
        rng = np.random.default_rng(20240817)
        for _ in range(200):
            records, n = make_random_log(rng)
            counts = aggregate_counts(records, retry_max=n)
            for i in range(n):
                assert counts.attempts[i] == counts.attempts[0] - sum(counts.successes[:i])


def dict_by_slot(rows):
    """by_slot by a loop over the records: each (vantage, slot)'s rows in log order,
    the slots in (vantage, slot) order."""
    rows_of_slot = {}
    for i, row in enumerate(rows):
        rows_of_slot.setdefault((row.vantage, row.slot), []).append(i)
    order, starts, succeeded = [], [], []
    for key in sorted(rows_of_slot):
        starts.append(len(order))
        order += rows_of_slot[key]
        succeeded.append(any(rows[i].outcome == SUCCESS for i in rows_of_slot[key]))
    return order, starts, succeeded


# any records, valid or not: vantage 0 absent or not, retries, missing and repeated
# slots and attempts, in any row order
_ANY_RECORDS = st.lists(st.builds(
    Row, ts_s=st.just(0.0), vantage=st.integers(0, 3), slot=st.integers(0, 5),
    attempt=st.integers(1, 3), outcome=st.sampled_from(OUTCOMES)), max_size=40)


@settings(max_examples=300, deadline=None)
@given(rows=_ANY_RECORDS)
@example(rows=[])
@example(rows=[Row(0.0, 2, 1, 1, CLOUD_FAIL), Row(0.0, 5, 0, 1, SUCCESS),
               Row(0.0, 2, 1, 2, SUCCESS), Row(0.0, 2, 0, 1, CLOUD_FAIL)])
def test_by_slot_matches_a_loop_over_the_records(rows):
    log = log_of(rows)
    order, starts, succeeded = log.by_slot
    assert (order.tolist(), starts.tolist(), succeeded.tolist()) == dict_by_slot(rows)
    assert succeeded.dtype == bool and log.by_slot is log.by_slot  # built once per log


def _columns_refuse_writes(log):
    for name in _COLUMNS:
        with pytest.raises(ValueError, match="read-only"):
            getattr(log, name)[...] = 0


def test_every_column_of_every_log_is_read_only(tmp_path):
    records, _ = make_random_log(np.random.default_rng(5), retry_max=3, slots=6, vantages=2)
    logs.write_attempt_log(tmp_path / "log.jsonl", records)
    config = CampaignConfig(probe_interval_s=600.0, horizon_days=1.0, vantage_points=2)
    timeline = Timeline(config.horizon_s, [1000.0], [700.0])
    made = {"built": records, "empty": log_of([]), "mask": records[records.vantage == 1],
            "slice": records[2:5], "rows": records[[3, 1]],
            "concat": AttemptLog.concat([records, records]),
            "sidecar": logs.read_attempt_log(tmp_path / "log.jsonl"),
            "one vantage": sample_campaign(timeline, dataclasses.replace(config, vantage_points=1)),
            "vantages": sample_campaign(timeline, config)}
    os.remove(logs.sidecar_path(tmp_path / "log.jsonl"))
    made["parse"] = logs.read_attempt_log(tmp_path / "log.jsonl")
    for log in made.values():
        _columns_refuse_writes(log)


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
        tl = timeline_of(1000, (Outage(500, 10), Outage(100, 50)))
        assert tl.start_s.tolist() == [100, 500] and len(tl) == 2
        assert [f.name for f in dataclasses.fields(tl)] == [
            "horizon_s", "start_s", "duration_s", "cause"]

    @pytest.mark.parametrize("code", [np.int64(256), 0.5, -1, "network", None],
                             ids=["wraps", "fraction", "negative", "name", "none"])
    def test_cause_code_checked_before_the_cast(self, code):
        cause = np.array([code])
        with pytest.raises(ValueError) as err:
            Timeline(10, [1.0], [1.0], cause)
        assert str(err.value) == (
            f"cause must be one of the codes 0 (cloud), 1 (network), got {cause.item(0)!r}")

    @pytest.mark.parametrize("cause, valid", [
        (np.array([False, True]), True), (np.array([0, 1], np.int8), True),
        (np.array([1, 0], np.uint64), True), (np.array([0.0, 1.0], np.float32), True),
        (np.array([-0.0]), True), (np.array([0.5]), False), (np.array([np.nan]), False),
        (np.array([-1]), False), (np.array([256]), False), (np.array([2], np.uint8), False),
        (np.array([0j]), False), (np.array(["0"]), False), (np.array([0], object), False),
    ], ids=repr)
    def test_cause_codes_by_dtype(self, cause, valid):
        fault = row_fault(np.zeros(len(cause)), np.ones(len(cause)), cause)
        assert fault is None if valid else fault[1].startswith("cause must be one of the codes")

    def test_columns_default_to_cloud_and_are_read_only(self):
        tl = Timeline(1000, [500.0, 100.0], [10.0, 50.0])
        assert tl.cause.tolist() == [CAUSES.index("cloud")] * 2
        assert outages_of(tl) == [Outage(100.0, 50.0), Outage(500.0, 10.0)]
        for column in (tl.start_s, tl.duration_s, tl.cause):
            with pytest.raises(ValueError):
                column[0] = 1

    def test_same_cause_overlap_rejected(self):
        with pytest.raises(ValueError):
            timeline_of(1000, (Outage(0, 100), Outage(50, 10)))

    def test_different_cause_overlap_allowed(self):
        tl = timeline_of(1000, (Outage(0, 100, "cloud"), Outage(50, 10, "network")))
        assert len(tl) == 2

    def test_event_beyond_horizon_rejected(self):
        with pytest.raises(ValueError):
            timeline_of(100, (Outage(90, 20),))

    def test_half_open_membership(self):
        tl = timeline_of(1000, (Outage(100, 50),))
        assert tl.in_outage(100, "cloud")
        assert tl.in_outage(149.999, "cloud")
        assert not tl.in_outage(150, "cloud")  # probe at outage end succeeds
        assert not tl.in_outage(99.999, "cloud")

    def test_zero_duration_event_rejected(self):
        with pytest.raises(ValueError, match="duration_s must be finite and > 0, got 0.0"):
            Timeline(1000, [0.0], [0.0])

    def test_intervals_are_read_only_and_per_cause(self):
        tl = timeline_of(1000, (
            Outage(500, 0.1), Outage(100.3, 0.2), Outage(50, 10, "network")))
        starts, ends, durations = tl.intervals("cloud")
        assert starts.tolist() == [100.3, 500]
        assert ends.tolist() == [100.3 + 0.2, 500.1]
        # the stored durations, not end - start, which rounds differently
        assert durations.tolist() == [0.2, 0.1] != (ends - starts).tolist()
        assert [a.tolist() for a in tl.intervals("network")] == [[50], [60], [10]]
        with pytest.raises(ValueError):
            starts[0] = 0.0
        assert [a.tolist() for a in Timeline(1, [], []).intervals("cloud")] == [[], [], []]

    @pytest.mark.parametrize("outages, message", [
        ((Outage(0.0, 100.0), Outage(50.0, 10.0)), "overlapping cloud events at 50.0"),
        ((Outage(90.0, 20.0),), "event ending at 110.0 exceeds horizon 100"),
        # both faults at one outage: the horizon is named
        ((Outage(0.0, 50.0, "network"), Outage(40.0, 70.0, "network")),
         "event ending at 110.0 exceeds horizon 100"),
        # the first faulty outage in start order, whatever the input order
        ((Outage(80.0, 30.0), Outage(10.0, 20.0), Outage(20.0, 5.0)),
         "overlapping cloud events at 20.0"),
    ], ids=["overlap", "overrun", "overrun-and-overlap", "first-in-start-order"])
    def test_first_fault_named(self, outages, message):
        with pytest.raises(ValueError) as err:
            timeline_of(100, outages)
        rows = [(start, duration, CAUSES.index(cause)) for start, duration, cause in outages]
        assert str(err.value) == message == oracle_timeline(100, rows)

    @pytest.mark.parametrize("columns", [([1.0, 2.0], [1.0]), ([[1.0]], [[1.0]]),
                                         ([1.0], [1.0], [0, 1]), (1.0, 1.0)],
                             ids=["lengths", "2-D", "cause-length", "scalars"])
    def test_columns_must_be_1d_and_equal_length(self, columns):
        with pytest.raises(ValueError) as err:
            Timeline(10, *columns)
        assert str(err.value) == "start_s, duration_s and cause must be 1-D and of equal length"


def oracle_timeline(horizon_s, rows):
    """The per-outage validation loop the Timeline replaced, over (start_s,
    duration_s, cause code) rows: its error message, or the outages sorted and
    each cause's (starts, ends, durations)."""
    codes = ", ".join(f"{code} ({name})" for code, name in enumerate(CAUSES))
    for start, duration, code in rows:
        if not 0 <= start < math.inf:
            return f"start_s must be finite and >= 0, got {start}"
        if not 0 < duration < math.inf:
            return f"duration_s must be finite and > 0, got {duration}"
        if code not in range(len(CAUSES)):
            return f"cause must be one of the codes {codes}, got {code!r}"
    if not 0 < horizon_s < math.inf:
        return "horizon_s must be finite and > 0"
    outages = sorted((Outage(start, duration, CAUSES[code]) for start, duration, code in rows),
                     key=lambda o: (o.start_s, o.cause))
    last_end = {}
    columns = {cause: ([], [], []) for cause in CAUSES}
    for start, duration, cause in outages:
        end = start + duration
        if end > horizon_s:
            return f"event ending at {end} exceeds horizon {horizon_s}"
        if start < last_end.get(cause, 0.0):
            return f"overlapping {cause} events at {start}"
        last_end[cause] = end
        for column, value in zip(columns[cause], (start, end, duration)):
            column.append(value)
    return outages, columns


_TIMES = st.sampled_from([0.0, 10.0, 50.0, 60.0, 100.0]) | st.floats(0.0, 120.0)
_HORIZONS = st.sampled_from([60.0, 100.0, 150.0])
# values valid nowhere, but for -0.0, a valid start and no valid horizon or duration
_BAD = st.sampled_from([-1.0, -0.0, math.nan, math.inf])
# outages every row of which is valid
_VALID = st.tuples(_HORIZONS, st.lists(st.tuples(
    _TIMES, _TIMES.filter(lambda d: d > 0), st.sampled_from([0, 1])), max_size=8))
# columns that may hold bad values, and cause codes past CAUSES, anywhere
_ANY_ROWS = st.tuples(_HORIZONS | _BAD, st.lists(st.tuples(
    _TIMES | _BAD, _TIMES | _BAD, st.sampled_from([0, 1, 2, -1])), max_size=8))


def check_builds(horizon_s, rows):
    """Timeline built from the rows' columns raises what the validation loop
    would, or holds its outages."""
    want = oracle_timeline(horizon_s, rows)
    try:
        tl = Timeline(horizon_s, *((list(column) for column in zip(*rows)) if rows else ([],) * 3))
    except ValueError as exc:
        assert str(exc) == want
        return
    assert not isinstance(want, str), want
    assert outages_of(tl) == want[0] and len(tl) == len(rows)
    probes = np.linspace(-1.0, 151.0, 257)
    for name, columns in want[1].items():
        assert [a.tolist() for a in tl.intervals(name)] == list(columns)
        starts, ends, _ = columns
        assert tl.in_outage(probes, name).tolist() == [
            any(s <= t < e for s, e in zip(starts, ends)) for t in probes.tolist()]


@settings(max_examples=500, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=_VALID)
def test_timeline_matches_validation_loop(case):
    check_builds(*case)


@settings(max_examples=500, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(case=_ANY_ROWS)
def test_from_intervals_matches_events(case):
    check_builds(*case)


class TestFromIntervals:
    """Timeline built from start and duration columns, cause defaulting to cloud."""

    @pytest.mark.parametrize("horizon_s, starts, durations, message", [
        (0, [], [], "horizon_s must be finite and > 0"),
        # a row's own fault is raised before the horizon's
        (-1, [1.0, math.nan], [1.0, 1.0], "start_s must be finite and >= 0, got nan"),
    ])
    def test_errors(self, horizon_s, starts, durations, message):
        with pytest.raises(ValueError) as err:
            Timeline(horizon_s, starts, durations)
        assert str(err.value) == message


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


GOOD = {"ts_s": 0.0, "vantage": 0, "slot": 0, "attempt": 1, "outcome": "success"}


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
            Row(ts_s=0.125, vantage=0, slot=0, attempt=1, outcome="success", latency_ms=12.5),
            Row(ts_s=60.0, vantage=0, slot=1, attempt=1, outcome="fail", reason="timeout"),
        ]
        path = tmp_path / "log.jsonl"
        logs.write_attempt_log(path, log_of(records))
        assert rows_of(logs.read_attempt_log(path)) == records

    def test_attempt_log_columns_roundtrip(self, tmp_path):
        rng = np.random.default_rng(11)
        n = 2000
        log = AttemptLog(
            ts_s=np.sort(rng.uniform(0.0, 1.0, n) * 10.0 ** rng.integers(-6, 23, n)),
            vantage=rng.integers(0, 4, n), slot=rng.integers(0, 10**6, n),
            attempt=rng.integers(1, 10, n), outcome=rng.integers(0, 4, n),
            latency_ms=np.where(rng.random(n) < 0.5, np.nan,
                                rng.exponential(80.0, n) * rng.integers(0, 2, n)),
            reason=rng.integers(-1, 5, n))
        path = tmp_path / "log.jsonl"
        logs.write_attempt_log(path, log)
        # the same text json.dumps gives for each row, optional keys left out when unset
        assert path.read_text() == "".join(
            json.dumps({k: v for k, v in r._asdict().items() if v is not None},
                       separators=(",", ":")) + "\n" for r in rows_of(log))
        back = logs.read_attempt_log(path)
        for name in ("ts_s", "vantage", "slot", "attempt", "outcome", "latency_ms", "reason"):
            a, b = getattr(log, name), getattr(back, name)
            assert a.dtype == b.dtype and np.array_equal(a, b, equal_nan=a.dtype.kind == "f"), name

    def test_lines_stripped_before_parsing(self, tmp_path):
        # a form feed is whitespace to str.strip but not to JSON
        path = tmp_path / "log.jsonl"
        logs.write_attempt_log(path, log_of([rec(0, 1, SUCCESS), rec(1, 1, SUCCESS)]))
        first, second = path.read_text().splitlines()
        path.write_text(f"\x0c{first}\n \t\n{second}\x0c \n\n")
        assert logs.read_attempt_log(path).slot.tolist() == [0, 1]

    def test_decreasing_ts_rejected(self, tmp_path):
        records = log_of([rec(1, 1, SUCCESS), rec(0, 1, SUCCESS)])
        path = tmp_path / "log.jsonl"
        logs.write_attempt_log(path, records)
        with pytest.raises(MalformedLogError):
            logs.read_attempt_log(path)

    def test_decreasing_ts_across_vantages_ok(self, tmp_path):
        records = log_of([rec(1, 1, SUCCESS, vantage=0), rec(0, 1, SUCCESS, vantage=1)])
        path = tmp_path / "log.jsonl"
        logs.write_attempt_log(path, records)
        assert len(logs.read_attempt_log(path)) == 2

    @pytest.mark.parametrize("fields, needle", [
        ({"ts_s": float("nan")}, "ts_s must be finite"),
        ({"ts_s": -1.0}, "ts_s must be finite"),
        ({"ts_s": "abc"}, "ts_s must be a number"),
        ({"vantage": "a"}, "vantage must be an integer"),
        ({"slot": 1.7}, "slot must be an integer"),
        ({"slot": -1}, "slot must be >= 0"),
        ({"attempt": 0}, "attempt must be >= 1"),
        ({"attempt": 2**64}, "attempt: "),
        ({"outcome": "x"}, "outcome must be one of"),
        ({"outcome": [1]}, "outcome: "),
        ({"reason": "x"}, "reason must be one of"),
        ({"latency_ms": "1"}, "latency_ms must be a number"),
        ({"latency_ms": float("inf")}, "latency_ms must be finite"),
        ({"slot": None}, "slot must be an integer"),
        ({"vantage": -5}, "vantage must be >= 0, got -5"),
    ])
    def test_bad_record_names_line_and_field(self, tmp_path, fields, needle):
        path = tmp_path / "log.jsonl"
        path.write_text(f"{json.dumps(GOOD)}\n{json.dumps({**GOOD, **fields})}\n")
        with pytest.raises(MalformedLogError) as err:
            logs.read_attempt_log(path)
        assert f"line 2: {needle}" in str(err.value)

    def test_first_bad_line_in_file_order_past_first_chunk(self, tmp_path):
        # an order fault comes before a record fault, both in the second chunk
        n = logs._CHUNK + 3
        lines = [json.dumps({**GOOD, "ts_s": 10.0})] * n + [json.dumps(GOOD)] * 3
        lines.append(json.dumps({**GOOD, "ts_s": 20.0, "slot": -1}))
        path = tmp_path / "log.jsonl"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(MalformedLogError) as err:
            logs.read_attempt_log(path)
        assert f"ts_s 0.0 decreases (line {n + 1})" in str(err.value)

    def test_garbage_line_rejected(self, tmp_path):
        path = tmp_path / "log.jsonl"
        path.write_text('{"ts_s": 0}\n', encoding="utf-8")
        with pytest.raises(MalformedLogError):
            logs.read_attempt_log(path)

    def test_truth_roundtrip(self, tmp_path):
        outages = [Outage(100.0, 50.0, "cloud"), Outage(400.0, 5.0, "network")]
        path = tmp_path / "truth.jsonl"
        logs.write_truth(path, timeline_of(1000, outages))
        back = logs.read_truth(path, 1000)
        assert back.horizon_s == 1000 and outages_of(back) == outages


# argument refusals of the library layers, which the CLI's own checks never let it reach
LIBRARY_REFUSALS = {
    "aggregate-retry-max-0": (lambda: aggregate_counts(log_of([rec(0, 1, SUCCESS)]), retry_max=0),
                              "retry_max must be >= 1"),
    "sla-metrics-negative-threshold": (lambda: sla_metrics([60.0], -1),
                                       "threshold_s must be finite and >= 0"),
    "sla-metrics-nan-threshold": (lambda: sla_metrics([60.0], math.nan),
                                  "threshold_s must be finite and >= 0"),
    "sla-metrics-infinite-threshold": (lambda: sla_metrics([60.0], math.inf),
                                       "threshold_s must be finite and >= 0"),
    "sla-test-unknown-method": (lambda: sla_test(
        aggregate_counts(log_of([rec(0, 1, SUCCESS)])), SlaClaim(0.99), method="bogus"),
        "method must be auto, normal, or exact"),
    "merge-no-fragments": (lambda: merge_fragments([]), "no fragments to merge"),
}


@pytest.mark.parametrize("case", LIBRARY_REFUSALS)
def test_library_refusal(case):
    call, message = LIBRARY_REFUSALS[case]
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()
