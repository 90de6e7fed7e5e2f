"""Ground-truth outage generation and periodic-probe campaign sampling.

Outages follow an alternating renewal process: exponential up periods, i.i.d.
outage durations from a configurable distribution, plus an optional overlay of
short network bursts and per-attempt network failures. Probing samples that
timeline on the slot/retry schedule.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .model import (
    CAUSES,
    CLOUD,
    CLOUD_FAIL,
    DAY_S,
    NETWORK,
    NETWORK_FAIL,
    OUTCOMES,
    SUCCESS,
    AttemptLog,
    CampaignConfig,
    Timeline,
)

# substream tags: keep the timeline and vantage draws independent
_TAG_TIMELINE = 0
_TAG_VANTAGE = 1


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=tuple(key)))


# each duration kind -> the fields it reads, each with the rule its value keeps;
# a kind leaves every other field at its default
_DURATION_RULES = {
    "fixed": {"value_s": ("must be > 0", lambda v: v > 0)},
    "exponential": {"mean_s": ("must be > 0", lambda v: v > 0)},
    "generalized_pareto": {"shape": ("must be finite", math.isfinite),
                           "scale": ("must be > 0", lambda v: v > 0),
                           "location": ("must be >= 0", lambda v: v >= 0)},
    "empirical": {"values": ("must be nonempty and > 0", lambda v: v and all(x > 0 for x in v))},
}


@dataclass(frozen=True)
class DurationDistribution:
    """Outage duration law: kind names it, and _DURATION_RULES the fields it reads."""

    kind: str
    value_s: float | None = None
    mean_s: float | None = None
    shape: float | None = None
    scale: float | None = None
    location: float = 0.0
    values: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.kind not in _DURATION_RULES:
            raise ValueError(f"unknown duration kind {self.kind!r}")
        rules = _DURATION_RULES[self.kind]
        for f in fields(self)[1:]:
            value = getattr(self, f.name)
            if f.name not in rules:
                if value != f.default:
                    raise ValueError(f"{self.kind} duration takes no {f.name}")
            elif value is None or not rules[f.name][1](value):
                raise ValueError(f"{self.kind} {f.name} {rules[f.name][0]}")

    @classmethod
    def fixed(cls, value_s: float) -> "DurationDistribution":
        return cls("fixed", value_s=float(value_s))

    @classmethod
    def exponential(cls, mean_s: float) -> "DurationDistribution":
        return cls("exponential", mean_s=float(mean_s))

    @classmethod
    def generalized_pareto(cls, shape: float, scale: float,
                           location: float = 0.0) -> "DurationDistribution":
        return cls("generalized_pareto", shape=float(shape), scale=float(scale),
                   location=float(location))

    @classmethod
    def empirical(cls, values) -> "DurationDistribution":
        return cls("empirical", values=tuple(float(v) for v in values))

    def sample(self, rng: np.random.Generator) -> float:
        if self.kind == "fixed":
            return self.value_s
        if self.kind == "empirical":
            return self.values[int(rng.integers(len(self.values)))]
        if self.kind == "exponential":
            d = rng.exponential(self.mean_s)
        elif self.shape == 0.0:  # generalized_pareto, by inversion of 1 - U, which is in (0, 1]
            d = self.location - self.scale * math.log(1.0 - rng.random())
        else:
            u = 1.0 - rng.random()
            d = self.location + self.scale * (u ** -self.shape - 1.0) / self.shape
        return d if d > 0.0 else self.sample(rng)  # a duration of 0 is drawn again


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
        count = int(rng.poisson(burst.rate_per_day * horizon_s / DAY_S))
        s = np.sort(rng.uniform(0.0, horizon_s, size=count))
        e = np.minimum(s + burst.duration_s, horizon_s)
        s, e = s[e > s], e[e > s]  # none where s + duration_s rounds back to s
        first = s >= np.append(-math.inf, e[:-1])  # else it starts in the one before: merged
        last = np.roll(first, -1)  # ends never fall, so merged bursts end at their last's end
        starts += s[first].tolist()
        durations += (e[last] - s[first]).tolist()
        causes += [CAUSES.index(NETWORK)] * int(first.sum())

    return Timeline(horizon_s, starts, durations, causes)


def sample_campaign(timeline: Timeline, config: CampaignConfig,
                    network_fail_prob: float = 0.0) -> AttemptLog:
    """Probe the timeline on the slot/retry schedule and return the merged log.

    Every vantage point fires attempt 1 at slot epochs k*T and retries
    retry_gap_s apart until success or retry_max. An attempt inside a cloud
    outage fails as cloud_fail; otherwise it fails as network_fail inside a
    burst or with probability network_fail_prob; otherwise it succeeds. The
    vantages share this schedule and differ only in their network draws, each
    from its own substream of the config seed. The log is sorted by (ts_s,
    vantage, attempt).

    Only a slot whose retry window [kT, kT+(retry_max-1)*retry_gap_s] an outage
    [s, e) of either cause touches (s <= the window's end, e > its start) has
    its attempt grid built; every attempt of any other slot is free.
    """
    if timeline.horizon_s < config.horizon_s - 1e-9:
        raise ValueError("timeline horizon shorter than campaign horizon")
    if not 0.0 <= network_fail_prob < 1.0:
        raise ValueError("network_fail_prob must be in [0, 1)")

    slots, retry_max = config.slots, config.retry_max
    steps = np.arange(retry_max) * config.retry_gap_s  # each attempt's delay after the first
    first = np.arange(slots) * config.probe_interval_s
    # an outage touches the slots from lo to hi - 1 (see the docstring)
    lo = np.searchsorted(first + steps[-1], timeline.start_s)
    hi = np.searchsorted(first, timeline.start_s + timeline.duration_s)
    touched = np.cumsum(np.bincount(lo, minlength=slots + 1)
                        - np.bincount(hi, minlength=slots + 1))[:-1] > 0
    ts = first[touched, None] + steps
    cloud = timeline.in_outage(ts, CLOUD)
    free = ~(cloud | timeline.in_outage(ts, NETWORK))
    free_counts = np.full(slots, retry_max)
    free_counts[touched] = free.sum(axis=1)
    # a failure is network_fail unless a touched slot's attempt is in a cloud outage
    codes = np.full((slots, retry_max), OUTCOMES.index(NETWORK_FAIL), np.int8)
    codes[touched] = np.where(cloud, OUTCOMES.index(CLOUD_FAIL), OUTCOMES.index(NETWORK_FAIL))
    vantages = config.vantage_points
    made, ok = np.empty((slots, vantages), np.int64), np.empty((slots, vantages), bool)
    for vantage in range(vantages):
        draws = None if network_fail_prob == 0.0 else (  # q = 0 draws nothing
            _rng(config.seed, _TAG_VANTAGE, vantage).random(slots * retry_max) >= network_fail_prob)
        made[:, vantage], ok[:, vantage] = _retry_schedule(free_counts, touched, free, draws)
    # each (slot, vantage)'s attempts in turn: the log's order for one vantage or tied attempts
    made, ok, ends = made.ravel(), ok.ravel(), np.cumsum(made)
    slot, vantage = np.divmod(np.repeat(np.arange(len(made)), made), vantages)
    attempt = np.arange(len(slot)) - np.repeat(ends - made, made)  # 0-based
    outcome = codes.ravel()[slot * retry_max + attempt]
    outcome[ends[ok] - 1] = OUTCOMES.index(SUCCESS)
    del made, ends  # 8 bytes a (slot, vantage) each: freed before ts_s and the sort
    ts_s = first[slot] + steps[attempt]  # the float sum a grid of every attempt would hold
    attempt += 1
    if vantages > 1 and config.retry_gap_s:  # else in ts_s order already
        order = np.argsort(ts_s, kind="stable")  # tied rows stay by vantage, then attempt
        for column in (ts_s, slot, vantage, attempt, outcome):
            column[...] = column[order]
    return AttemptLog(ts_s=ts_s, vantage=vantage, slot=slot, attempt=attempt, outcome=outcome,
                      latency_ms=np.full(len(slot), np.nan), reason=np.full_like(outcome, -1))


def _retry_schedule(free_counts: np.ndarray, touched: np.ndarray, free: np.ndarray,
                    draws: np.ndarray | None):
    """Walk one vantage's slots of scheduled attempts.

    free_counts holds each slot's count of free attempts, retry_max for a slot
    whose retry window no outage touches. touched masks the other slots, and
    free is their (slot, attempt) grid, retry_max wide. A slot's attempts
    run in order until one succeeds. An attempt that is not free fails without
    a draw; a free one succeeds when the next unused entry of draws is True, or
    always when draws is None. Draws are used in (slot, attempt) order. Returns
    each slot's count of attempts made and whether its last one succeeded.

    A slot with a free attempt uses one draw unless it is False, so only the
    False draws are walked: one at free slot j's first draw (j plus the extra
    draws of the slots before) makes it use the draws through the next True one,
    capped at its free count.
    """
    used = np.minimum(free_counts, 1)
    if draws is None:
        ok_slot = used > 0
    else:
        false = np.flatnonzero(~draws)
        # next_ok[i]: index of the first True draw after False draw false[i] (len(draws) if
        # none), one past the end of its run of False draws; with no False draw, all empty
        ends = np.flatnonzero(np.diff(false, append=draws.size + 1) != 1)
        next_ok = np.repeat(false[ends] + 1, np.diff(ends, prepend=-1))
        counts = free_counts[free_counts > 0].tolist()
        walked, shift, end = {}, 0, 0  # free slot -> draws used; extra draws; first unwalked draw
        for f, run in zip(false.tolist(), (next_ok - false + 1).tolist()):
            j = f - shift
            if j >= len(counts):
                break  # the unused tail of the draws
            if f >= end:  # else inside the last slot walked
                walked[j] = min(run, counts[j])
                shift, end = shift + walked[j] - 1, f + walked[j]
        used[np.flatnonzero(free_counts)[list(walked)]] = list(walked.values())
        ok_slot = (used > 0) & draws[np.cumsum(used) - 1]
    # the used-th free attempt of a successful slot is its success
    success_at = used - 1
    success_at[touched] = np.argmax(free & (np.cumsum(free, axis=1) == used[touched, None]), axis=1)
    return np.where(ok_slot, success_at + 1, free.shape[1]), ok_slot


def true_unavailability(timeline: Timeline, cause: str | None = None) -> float:
    """Ground-truth unavailable fraction: filtered outage time over the horizon."""
    durations = timeline.duration_s if cause is None else timeline.intervals(cause)[2]
    return sum(durations.tolist()) / timeline.horizon_s
