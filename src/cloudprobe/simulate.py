"""Ground-truth outage generation and periodic-probe campaign sampling.

Outages follow an alternating renewal process: exponential up periods, i.i.d.
outage durations from a configurable distribution, plus an optional overlay of
short network bursts and per-attempt network failures. Probing samples that
timeline on the slot/retry schedule.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    CAUSES,
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

# substream tags: keep the timeline, vantage, and hook draws independent
_TAG_TIMELINE = 0
_TAG_VANTAGE = 1
_TAG_HOOK = 3


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=tuple(key)))


@dataclass(frozen=True)
class DurationDistribution:
    """Outage duration law. Use the classmethod constructors."""

    kind: str
    value_s: float | None = None
    mean_s: float | None = None
    shape: float | None = None
    scale: float | None = None
    location: float = 0.0
    values: tuple[float, ...] | None = None

    @classmethod
    def fixed(cls, value_s: float) -> "DurationDistribution":
        if value_s is None or not value_s > 0:
            raise ValueError("fixed duration must be > 0")
        return cls(kind="fixed", value_s=float(value_s))

    @classmethod
    def exponential(cls, mean_s: float) -> "DurationDistribution":
        if mean_s is None or not mean_s > 0:
            raise ValueError("exponential mean must be > 0")
        return cls(kind="exponential", mean_s=float(mean_s))

    @classmethod
    def generalized_pareto(cls, shape: float, scale: float,
                           location: float = 0.0) -> "DurationDistribution":
        if scale is None or not scale > 0:
            raise ValueError("generalized_pareto scale must be > 0")
        if not math.isfinite(shape):
            raise ValueError("generalized_pareto shape must be finite")
        if not location >= 0:
            raise ValueError("generalized_pareto location must be >= 0")
        return cls(kind="generalized_pareto", shape=float(shape), scale=float(scale),
                   location=float(location))

    @classmethod
    def empirical(cls, values) -> "DurationDistribution":
        vals = tuple(float(v) for v in values)
        if not vals or any(not v > 0 for v in vals):
            raise ValueError("empirical values must be nonempty and > 0")
        return cls(kind="empirical", values=vals)

    def sample(self, rng: np.random.Generator) -> float:
        if self.kind == "fixed":
            return self.value_s
        if self.kind == "exponential":
            d = 0.0
            while d <= 0.0:
                d = rng.exponential(self.mean_s)
            return d
        if self.kind == "generalized_pareto":
            u = 0.0
            while u <= 0.0:  # guard the U=0 corner
                u = 1.0 - rng.random()
            if self.shape == 0.0:
                d = self.location - self.scale * math.log(u)
            else:
                d = self.location + self.scale * (u ** -self.shape - 1.0) / self.shape
            return d if d > 0.0 else self.sample(rng)
        if self.kind == "empirical":
            return self.values[int(rng.integers(len(self.values)))]
        raise ValueError(f"unknown duration kind {self.kind!r}")


@dataclass(frozen=True)
class NetworkBurst:
    """Poisson-placed bursts during which every attempt fails as network_fail."""

    rate_per_day: float
    duration_s: float

    def __post_init__(self):
        if not 0 < self.rate_per_day < math.inf:
            raise ValueError("burst rate_per_day must be finite and > 0")
        if not self.duration_s > 0:
            raise ValueError("burst duration_s must be > 0")


@dataclass(frozen=True)
class OutageProcess:
    """Cloud outage renewal process plus the independent network overlay."""

    up_mean_s: float
    duration_dist: DurationDistribution
    network_fail_prob: float = 0.0
    network_burst: NetworkBurst | None = None

    def __post_init__(self):
        if not self.up_mean_s > 0:
            raise ValueError("up_mean_s must be > 0")
        if not 0.0 <= self.network_fail_prob < 1.0:
            raise ValueError("network_fail_prob must be in [0, 1)")


def generate_timeline(process: OutageProcess, horizon_s: float, seed: int) -> Timeline:
    """Draw one ground-truth timeline, deterministic for a given seed.

    Up periods are exponential; the final outage is clipped at the horizon.
    Network bursts (if configured) are a Poisson process with fixed burst
    length; overlapping bursts merge to keep same-cause events disjoint.
    """
    if not 0 < horizon_s < math.inf:  # else the draw loop below never ends
        raise ValueError("horizon_s must be finite and > 0")
    rng = _rng(seed, _TAG_TIMELINE)
    starts, durations = [], []
    t = 0.0
    while True:
        start = t + rng.exponential(process.up_mean_s)
        if start >= horizon_s:
            break
        dur = process.duration_dist.sample(rng)
        end = min(start + dur, horizon_s)
        if end > start:
            starts.append(start)
            durations.append(end - start)
        t = start + dur
    causes = [CAUSES.index(CLOUD)] * len(starts)

    if process.network_burst is not None:
        burst = process.network_burst
        count = int(rng.poisson(burst.rate_per_day * horizon_s / 86400.0))
        merged: list[list[float]] = []
        for s in sorted(float(s) for s in rng.uniform(0.0, horizon_s, size=count)):
            e = min(s + burst.duration_s, horizon_s)
            if e <= s:
                continue
            if merged and s < merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], e)
            else:
                merged.append([s, e])
        for s, e in merged:
            starts.append(s)
            durations.append(e - s)
        causes += [CAUSES.index(NETWORK)] * len(merged)

    return Timeline(horizon_s, starts, durations, causes)


def sample_campaign(timeline: Timeline, config: CampaignConfig,
                    network_fail_prob: float = 0.0,
                    phase_offsets=None) -> AttemptLog:
    """Probe the timeline on the slot/retry schedule and return the merged log.

    Each vantage point fires attempt 1 at slot epochs k*T (plus its optional
    phase offset) and retries retry_gap_s apart until success or retry_max. An
    attempt inside a cloud outage fails as cloud_fail; otherwise it fails as
    network_fail inside a burst or with probability network_fail_prob; otherwise
    it succeeds. Vantage points draw from independent substreams of the config
    seed, and the merged log is sorted by (ts_s, vantage, attempt) so the result
    does not depend on per-vantage execution order.
    """
    if timeline.horizon_s < config.horizon_s - 1e-9:
        raise ValueError("timeline horizon shorter than campaign horizon")
    if phase_offsets is not None and len(phase_offsets) != config.vantage_points:
        raise ValueError("need one phase offset per vantage point")
    if not 0.0 <= network_fail_prob < 1.0:
        raise ValueError("network_fail_prob must be in [0, 1)")

    slots, retry_max = config.slots, config.retry_max
    grids = {}  # phase offset -> its (ts, cloud, blocked) grids, shared by its vantages
    parts = []
    for vantage in range(config.vantage_points):
        offset = phase_offsets[vantage] if phase_offsets else 0.0
        if offset not in grids:
            ts = ((np.arange(slots) * config.probe_interval_s + offset)[:, None]
                  + np.arange(retry_max) * config.retry_gap_s)
            cloud = timeline.in_outage(ts, CLOUD)
            grids[offset] = ts, cloud, cloud | timeline.in_outage(ts, NETWORK)
        ts, cloud, blocked = grids[offset]
        draws = None if network_fail_prob == 0.0 else (  # q = 0 draws nothing
            _rng(config.seed, _TAG_VANTAGE, vantage).random(slots * retry_max) >= network_fail_prob)
        made, ok = _retry_schedule(~blocked, draws)
        outcome = np.where(ok, OUTCOMES.index(SUCCESS), np.where(
            cloud, OUTCOMES.index(CLOUD_FAIL), OUTCOMES.index(NETWORK_FAIL)))
        parts.append(_grid_log(ts, vantage, made, outcome))
    log = AttemptLog.concat(parts)
    # each part is in (slot, attempt) order, which is ts_s order because a
    # slot's retries end before the next slot, so a stable sort on ts_s of the
    # vantage-major parts breaks ties by vantage, then attempt
    return log[np.argsort(log.ts_s, kind="stable")]


def _grid_log(ts, vantage: int, made, outcome) -> AttemptLog:
    """The attempts made in one vantage's slots x retry_max grid, as a log
    without latencies or failure reasons."""
    slot, attempt = np.nonzero(made)  # in (slot, attempt) order
    rows = len(slot)
    return AttemptLog(ts_s=ts[made], vantage=np.full(rows, vantage), slot=slot,
                      attempt=attempt + 1, outcome=outcome[made],
                      latency_ms=np.full(rows, np.nan), reason=np.full(rows, -1))


def _retry_schedule(free: np.ndarray, draws: np.ndarray | None):
    """Walk one vantage's slots x retry_max grid of scheduled attempts.

    A slot's attempts run in order until one succeeds. An attempt that is not
    free fails without a draw; a free one succeeds when the next unused entry
    of draws is True, or always when draws is None. Draws are used in (slot,
    attempt) order. Returns the masks of attempts made and of successes.
    """
    slots, retry_max = free.shape
    free_counts = free.sum(axis=1)
    if draws is None:
        used = np.minimum(free_counts, 1)
        ok_slot = used > 0
    else:
        # next_ok[p]: index of the first True draw at or after p (len(draws) if none)
        idx = np.where(draws, np.arange(draws.size), draws.size)
        next_ok = np.minimum.accumulate(idx[::-1])[::-1].tolist() + [draws.size]
        used_list, p = [], 0
        for free_count in free_counts.tolist():
            used_count = next_ok[p] - p + 1  # through the next True draw, at most free_count
            used_count = used_count if used_count < free_count else free_count
            used_list.append(used_count)
            p += used_count
        used = np.array(used_list, dtype=np.int64)
        ok_slot = (used > 0) & draws[np.cumsum(used) - 1]
    # the used-th free attempt of a successful slot is its success
    success_at = np.argmax(free & (np.cumsum(free, axis=1) == used[:, None]), axis=1)
    ok = ok_slot[:, None] & (np.arange(retry_max) == success_at[:, None])
    made = np.arange(retry_max) < np.where(ok_slot, success_at + 1, retry_max)[:, None]
    return made, ok


def true_unavailability(timeline: Timeline, cause: str | None = None) -> float:
    """Ground-truth unavailable fraction: filtered outage time over the horizon."""
    durations = timeline.duration_s if cause is None else timeline.intervals(cause)[2]
    return sum(durations.tolist()) / timeline.horizon_s


def iid_attempt_log(success_prob: float, slots: int, retry_max: int,
                    seed: int, vantage: int = 0) -> AttemptLog:
    """Validation hook: attempts succeed i.i.d. with success_prob, no timeline.

    This bypasses the renewal model entirely; it exists so the geometric
    retry-inflation predictions (which assume independent attempts) can be
    checked against sampled logs. Not used by any production path.
    """
    if not 0.0 <= success_prob <= 1.0:
        raise ValueError("success_prob must be in [0, 1]")
    if slots < 0 or retry_max < 1:
        raise ValueError("need slots >= 0 and retry_max >= 1")
    draws = _rng(seed, _TAG_HOOK).random(slots * retry_max) < success_prob
    made, ok = _retry_schedule(np.ones((slots, retry_max), dtype=bool), draws)
    ts = np.arange(slots)[:, None] + np.arange(retry_max) * 1e-3
    return _grid_log(ts, vantage, made,
                     np.where(ok, OUTCOMES.index(SUCCESS), OUTCOMES.index(CLOUD_FAIL)))
