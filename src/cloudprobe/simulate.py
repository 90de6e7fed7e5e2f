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
    CLOUD,
    CLOUD_FAIL,
    NETWORK,
    NETWORK_FAIL,
    SUCCESS,
    AttemptRecord,
    CampaignConfig,
    OutageEvent,
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
    rng = _rng(seed, _TAG_TIMELINE)
    events: list[OutageEvent] = []
    t = 0.0
    while True:
        start = t + rng.exponential(process.up_mean_s)
        if start >= horizon_s:
            break
        dur = process.duration_dist.sample(rng)
        end = min(start + dur, horizon_s)
        if end > start:
            events.append(OutageEvent(start_s=start, duration_s=end - start, cause=CLOUD))
        t = start + dur

    if process.network_burst is not None:
        burst = process.network_burst
        count = int(rng.poisson(burst.rate_per_day * horizon_s / 86400.0))
        starts = sorted(float(s) for s in rng.uniform(0.0, horizon_s, size=count))
        merged: list[list[float]] = []
        for s in starts:
            e = min(s + burst.duration_s, horizon_s)
            if e <= s:
                continue
            if merged and s < merged[-1][1]:
                merged[-1][1] = max(merged[-1][1], e)
            else:
                merged.append([s, e])
        events.extend(OutageEvent(start_s=s, duration_s=e - s, cause=NETWORK)
                      for s, e in merged)

    return Timeline(horizon_s=horizon_s, events=tuple(events))


def sample_campaign(timeline: Timeline, config: CampaignConfig,
                    network_fail_prob: float = 0.0,
                    phase_offsets=None) -> list[AttemptRecord]:
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

    records: list[AttemptRecord] = []
    for vantage in range(config.vantage_points):
        records.extend(_sample_vantage(timeline, config, vantage, network_fail_prob,
                                       phase_offsets[vantage] if phase_offsets else 0.0))
    records.sort(key=lambda r: (r.ts_s, r.vantage, r.attempt))
    return records


def _sample_vantage(timeline: Timeline, config: CampaignConfig, vantage: int,
                    q: float, offset: float) -> list[AttemptRecord]:
    rng = _rng(config.seed, _TAG_VANTAGE, vantage)
    out: list[AttemptRecord] = []
    interval = config.probe_interval_s
    gap = config.retry_gap_s
    for slot in range(config.slots):
        epoch = slot * interval + offset
        for attempt in range(1, config.retry_max + 1):
            ts = epoch + (attempt - 1) * gap
            outcome = _attempt_outcome(timeline, ts, q, rng)
            out.append(AttemptRecord(ts_s=ts, vantage=vantage, slot=slot,
                                     attempt=attempt, outcome=outcome))
            if outcome == SUCCESS:
                break
    return out


def _attempt_outcome(timeline: Timeline, ts: float, q: float,
                     rng: np.random.Generator) -> str:
    if timeline.in_outage(ts, CLOUD):
        return CLOUD_FAIL
    if timeline.in_outage(ts, NETWORK):
        return NETWORK_FAIL
    if q > 0.0 and rng.random() < q:
        return NETWORK_FAIL
    return SUCCESS


def true_unavailability(timeline: Timeline, cause: str | None = None) -> float:
    """Ground-truth unavailable fraction: filtered outage time over the horizon."""
    total = sum(e.duration_s for e in timeline.events if cause is None or e.cause == cause)
    return total / timeline.horizon_s


def iid_attempt_log(success_prob: float, slots: int, retry_max: int,
                    seed: int, vantage: int = 0) -> list[AttemptRecord]:
    """Validation hook: attempts succeed i.i.d. with success_prob, no timeline.

    This bypasses the renewal model entirely; it exists so the geometric
    retry-inflation predictions (which assume independent attempts) can be
    checked against sampled logs. Not used by any production path.
    """
    if not 0.0 <= success_prob <= 1.0:
        raise ValueError("success_prob must be in [0, 1]")
    if slots < 0 or retry_max < 1:
        raise ValueError("need slots >= 0 and retry_max >= 1")
    rng = _rng(seed, _TAG_HOOK)
    out: list[AttemptRecord] = []
    for slot in range(slots):
        for attempt in range(1, retry_max + 1):
            ok = rng.random() < success_prob
            out.append(AttemptRecord(
                ts_s=float(slot) + (attempt - 1) * 1e-3,
                vantage=vantage, slot=slot, attempt=attempt,
                outcome=SUCCESS if ok else CLOUD_FAIL,
            ))
            if ok:
                break
    return out
