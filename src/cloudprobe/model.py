"""Shared domain model: campaign config, outage timelines, attempt logs and counts.

Everything here is an immutable value object. The attempt log is an AttemptLog
of numpy columns; persistence lives in logs.
"""
from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DataError, InsufficientDataError, MalformedLogError  # re-exported

DAY_S = 86400.0

# attempt outcomes (exact strings used in the JSONL log format); AttemptLog
# stores each as its index in OUTCOMES
SUCCESS = "success"
CLOUD_FAIL = "cloud_fail"
NETWORK_FAIL = "network_fail"
FAIL = "fail"  # live mode: cause cannot be attributed
OUTCOMES = (SUCCESS, CLOUD_FAIL, NETWORK_FAIL, FAIL)

# failure reason codes attached by the live prober, stored as their index
FAIL_REASONS = ("dns", "connect", "timeout", "status", "digest")

# outage causes
CLOUD = "cloud"
NETWORK = "network"
CAUSES = (CLOUD, NETWORK)  # Timeline stores each as its index

MODES = ("simulate", "live")


@dataclass(frozen=True)
class CampaignConfig:
    """Probe schedule for one campaign: slot interval, horizon, retry policy."""

    probe_interval_s: float
    horizon_days: float
    vantage_points: int = 1
    retry_max: int = 9
    retry_gap_s: float = 1.0
    seed: int = 0
    mode: str = "simulate"
    target: str | None = None

    def __post_init__(self):
        if not 0 < self.probe_interval_s < math.inf:
            raise ConfigError("probe_interval_s must be finite and > 0")
        if not 0 < self.horizon_days < math.inf:
            raise ConfigError("horizon_days must be finite and > 0")
        if self.vantage_points < 1:
            raise ConfigError("vantage_points must be >= 1")
        if self.retry_max < 1:
            raise ConfigError("retry_max must be >= 1")
        if not 0 <= self.retry_gap_s < math.inf:
            raise ConfigError("retry_gap_s must be finite and >= 0")
        # a slot's retries must finish before the next slot starts
        if self.retry_gap_s * (self.retry_max - 1) >= self.probe_interval_s:
            raise ConfigError(
                "retry_gap_s * (retry_max - 1) must be < probe_interval_s "
                f"(got {self.retry_gap_s} * {self.retry_max - 1} vs {self.probe_interval_s})"
            )
        if not 0 <= self.seed < 2**64:
            raise ConfigError("seed must fit in 64 unsigned bits")
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}")
        if self.mode == "live" and not self.target:
            raise ConfigError("live mode requires a target URL")

    @property
    def horizon_s(self) -> float:
        return self.horizon_days * DAY_S

    @property
    def slots(self) -> int:
        """Number of scheduled probe slots per vantage point."""
        # 1e-9 slack absorbs float noise from horizon_days <-> seconds round trips
        return int(math.floor(self.horizon_s / self.probe_interval_s + 1e-9))


def expected_tries(config: CampaignConfig) -> int:
    """Scheduled first attempts over the whole campaign.

    vantage_points * floor(horizon / interval). Published campaign tallies
    follow this arithmetic only up to per-vantage rounding, so comparisons
    against reported totals should allow +/- vantage_points.
    """
    return config.vantage_points * config.slots


def row_fault(start_s, duration_s, cause) -> tuple[int, str] | None:
    """The first outage row, in input order, with a start, duration or cause
    code that no Timeline accepts, and what is wrong with it; None if every
    row is good. The arguments are 1-D arrays of equal length."""
    # an OR of one compare per code, which costs a tenth of np.isin on short columns
    valid_cause = (functools.reduce(operator.or_, (cause == code for code in range(len(CAUSES))))
                   if cause.dtype.kind in "biuf" else np.zeros(cause.shape, dtype=bool))
    bad = np.flatnonzero(~((0 <= start_s) & (start_s < math.inf) & (0 < duration_s)
                           & (duration_s < math.inf) & valid_cause))
    if not len(bad):
        return None
    i = int(bad[0])
    if not 0 <= start_s[i] < math.inf:
        return i, f"start_s must be finite and >= 0, got {start_s.item(i)}"
    if not 0 < duration_s[i] < math.inf:
        return i, f"duration_s must be finite and > 0, got {duration_s.item(i)}"
    codes = ", ".join(f"{code} ({name})" for code, name in enumerate(CAUSES))
    return i, f"cause must be one of the codes {codes}, got {cause.item(i)!r}"


@dataclass(frozen=True, eq=False)
class Timeline:
    """Ground-truth outages over a campaign horizon, as columns, one entry per
    outage.

    Outage i is the half-open interval [start_s[i], start_s[i] + duration_s[i])
    of cause CAUSES[cause[i]]; cause defaults to all cloud. The columns are
    kept sorted by (start, cause) and read-only; same-cause outages must be
    disjoint and lie within [0, horizon_s).
    """

    horizon_s: float
    start_s: np.ndarray
    duration_s: np.ndarray
    cause: np.ndarray | None = None

    def __post_init__(self):
        start = np.asarray(self.start_s, dtype=np.float64)
        duration = np.asarray(self.duration_s, dtype=np.float64)
        # codes are checked before the cast to int8, which would wrap or truncate
        cause = np.asarray(np.zeros(start.shape, dtype=np.int8) if self.cause is None
                           else self.cause)
        if start.ndim != 1 or start.shape != duration.shape or start.shape != cause.shape:
            raise ValueError("start_s, duration_s and cause must be 1-D and of equal length")
        if fault := row_fault(start, duration, cause):
            raise ValueError(fault[1])
        if not 0 < self.horizon_s < math.inf:
            raise ValueError("horizon_s must be finite and > 0")
        cause = cause.astype(np.int8)
        order = np.lexsort((cause, start))  # stable
        start, duration, cause = start[order], duration[order], cause[order]
        end = start + duration
        # the first outage that ends past the horizon or starts before the
        # previous same-cause outage ends; of both, the horizon is named
        overlap = np.zeros(len(start), dtype=bool)
        index = {}
        for code, name in enumerate(CAUSES):
            mine = np.flatnonzero(cause == code)
            overlap[mine[1:]] = start[mine[1:]] < end[mine[:-1]]
            # starts and ends led by a -inf sentinel interval, for in_outage
            index[name] = (np.append(-math.inf, start[mine]), np.append(-math.inf, end[mine]),
                           duration[mine])
        bad = np.flatnonzero((end > self.horizon_s) | overlap)
        if len(bad):
            i = bad[0]
            if end[i] > self.horizon_s:
                raise ValueError(
                    f"event ending at {end[i].item()} exceeds horizon {self.horizon_s}")
            raise ValueError(f"overlapping {CAUSES[cause[i]]} events at {start[i].item()}")
        for column in (start, duration, cause, *(c for columns in index.values() for c in columns)):
            column.flags.writeable = False
        object.__setattr__(self, "start_s", start)
        object.__setattr__(self, "duration_s", duration)
        object.__setattr__(self, "cause", cause)
        object.__setattr__(self, "_index", index)  # an attribute, not a field

    def __len__(self) -> int:
        """The number of outages."""
        return len(self.start_s)

    def intervals(self, cause: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Read-only (starts, ends, durations) arrays of the cause's outages, in
        start order; durations are the outages' duration_s values."""
        starts, ends, durations = self._index[cause]
        return starts[1:], ends[1:], durations

    def in_outage(self, ts, cause: str) -> np.ndarray:
        """Whether each time in ts (a scalar or an array) falls inside a
        cause-matching outage interval."""
        starts, ends, _ = self._index[cause]
        return ts < ends[np.searchsorted(starts, ts, side="right") - 1]


# AttemptLog columns, in the order of an attempt-log line's keys
_COLUMNS = {"ts_s": np.float64, "vantage": np.int64, "slot": np.int64, "attempt": np.int64,
            "outcome": np.int8, "latency_ms": np.float64, "reason": np.int8}


@dataclass(frozen=True, eq=False)
class AttemptLog:
    """An attempt log as read-only columns, one entry per attempt.

    outcome holds indices into OUTCOMES, reason indices into FAIL_REASONS (-1
    for none) and latency_ms NaN for none.
    """

    ts_s: np.ndarray
    vantage: np.ndarray
    slot: np.ndarray
    attempt: np.ndarray
    outcome: np.ndarray
    latency_ms: np.ndarray
    reason: np.ndarray

    def __post_init__(self):
        for name, dtype in _COLUMNS.items():
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=dtype))
            getattr(self, name).flags.writeable = False  # so by_slot stays true
        if len({len(getattr(self, name)) for name in _COLUMNS}) != 1:
            raise ValueError("attempt log columns differ in length")

    def __len__(self) -> int:
        return len(self.ts_s)

    def __getitem__(self, rows) -> AttemptLog:
        """The rows a slice, mask or index array selects, as a log."""
        return AttemptLog(**{name: getattr(self, name)[rows] for name in _COLUMNS})

    @classmethod
    def concat(cls, logs) -> AttemptLog:
        logs = list(logs)
        return cls(**{name: np.concatenate([getattr(log, name) for log in logs])
                      for name in _COLUMNS})

    @functools.cached_property
    def by_slot(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(order, starts, succeeded): the rows in (vantage, slot) order, a slot's
        attempts in log order; where each slot starts in order; whether any succeeded."""
        order = np.lexsort((self.slot, self.vantage))  # stable
        vantage, slot = self.vantage[order], self.slot[order]
        new = np.append(True, (vantage[1:] != vantage[:-1]) | (slot[1:] != slot[:-1]))
        starts = np.flatnonzero(new[:len(order)])  # where a row's slot is not its row before's
        success = self.outcome[order] == OUTCOMES.index(SUCCESS)
        return order, starts, np.logical_or.reduceat(success, starts)


@dataclass(frozen=True)
class AttemptCounts:
    """Per-rank attempt tallies: attempts[i] = number of (i+1)-th attempts,
    successes[i] = how many of those succeeded.

    The recurrence attempts[i+1] = attempts[i] - successes[i] is enforced: every
    failed attempt below the retry cap must have been retried, and success ends
    the slot.
    """

    retry_max: int
    attempts: tuple[int, ...]
    successes: tuple[int, ...]

    def __post_init__(self):
        if self.retry_max < 0:
            raise ValueError("retry_max must be >= 0")
        if len(self.attempts) != self.retry_max or len(self.successes) != self.retry_max:
            raise ValueError("attempts/successes must have retry_max entries")
        for i, (a, s) in enumerate(zip(self.attempts, self.successes)):
            if not 0 <= s <= a:
                raise ValueError(f"rank {i + 1}: successes {s} outside [0, {a}]")
        for i in range(self.retry_max - 1):
            if self.attempts[i + 1] != self.attempts[i] - self.successes[i]:
                raise ValueError(
                    f"rank {i + 2}: attempt count {self.attempts[i + 1]} != "
                    f"{self.attempts[i]} - {self.successes[i]}"
                )

    @property
    def first_attempts(self) -> int:
        return self.attempts[0] if self.attempts else 0

    @property
    def total_attempts(self) -> int:
        return sum(self.attempts)

    @property
    def total_successes(self) -> int:
        return sum(self.successes)


def aggregate_counts(log: AttemptLog, retry_max: int | None = None, path=None) -> AttemptCounts:
    """Tally per-rank attempt and success counts from an attempt log.

    Records may be interleaved across vantage points but must be in attempt
    order within each (vantage, slot). When retry_max is None it is inferred as
    the largest attempt index seen. Raises MalformedLogError on attempt-index
    gaps, attempts after a success, indices beyond retry_max, or slots that end
    in failure before exhausting retries (the tallies would not be consistent).
    Of several malformed slots, the one first in the log is named, as is path if given.
    """
    order, starts, _ = log.by_slot
    attempt, success = log.attempt[order], log.outcome[order] == OUTCOMES.index(SUCCESS)
    head = np.zeros(len(order) + 1, bool)  # whether a row starts a slot; the one past the end does
    head[starts] = head[-1] = True

    def malformed(bad, reason):  # names the first bad row of the slot first seen in the log
        bad = np.flatnonzero(bad)
        start = starts[np.searchsorted(starts, bad, side="right") - 1]  # each bad row's slot's
        i = np.argmin(order[start])  # bad ascends, so ties go to the first
        raise MalformedLogError(int(log.vantage[order[start[i]]]), int(log.slot[order[start[i]]]),
                                reason(bad[i] - start[i] + 1, attempt[bad[i]]), path)

    # row to row: a slot's attempts run 1, 2, ..., and only its last may succeed
    bad = attempt != 1
    bad[1:] = np.where(head[1:-1], bad[1:], attempt[1:] - attempt[:-1] != 1)
    bad |= success & ~head[1:]
    if bad.any():
        malformed(bad, lambda rank, found: f"expected attempt {rank}, found {found}"
                  if found != rank else f"attempt after success at attempt {rank}")
    if retry_max is not None and retry_max < 1:
        raise ValueError("retry_max must be >= 1")
    max_seen = int(attempt.max(initial=0))  # past bad, an attempt is its place in its slot
    n = max(max_seen, 1) if retry_max is None else retry_max
    if max_seen > n:
        malformed(attempt > n, lambda *_: f"{max_seen} attempts exceed retry_max={n}")
    if (short := head[1:] & ~success & (attempt < n)).any():  # a slot's last row, failed
        malformed(short, lambda rank, found: f"slot ended after failed attempt {found} of {n}")
    attempts, successes = (tuple(np.bincount(a, minlength=n + 1)[1:].tolist())
                           for a in (attempt, attempt[success]))
    return AttemptCounts(retry_max=n, attempts=attempts, successes=successes)
