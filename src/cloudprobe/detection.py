"""Outage censoring analysis: what a periodic prober misses and distorts.

Detection here mirrors the measurement methodology under study, including its
flaws: consecutive failed slots merge into a single detected outage, durations
quantize to whole probe intervals, and outages shorter than the interval can
vanish entirely. The analytic miss probability is validated by a Monte Carlo
harness that drives the real sampler and scores its log with detection_report.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .model import CLOUD, DAY_S, OUTCOMES, SUCCESS, AttemptLog, CampaignConfig, Timeline
from .simulate import sample_campaign


def undetected_probability(duration_s: float, interval_s: float) -> float:
    """Chance a single outage ends before the next scheduled probe sees it.

    With the outage start uniform within a probe interval T, an outage of
    length L is missed iff start + L stays short of the next probe: probability
    1 - L/T for L < T and 0 once L >= T.
    """
    if not (0 < duration_s < math.inf and 0 < interval_s < math.inf):
        raise ValueError("duration_s and interval_s must be finite and > 0")
    if interval_s <= duration_s:
        return 0.0
    return 1.0 - duration_s / interval_s


def undetected_curve(interval_s: float) -> list[tuple[float, float]]:
    """Tabulate the miss probability over normalized durations L/T.

    The grid spans (0, 1.5] so the flat zero region past L/T = 1 stays
    visible. Rows are (l_over_t, p_nodet) pairs ready for CSV plotting.
    """
    if not 0 < interval_s < math.inf:
        raise ValueError("interval_s must be finite and > 0")
    grid = [interval_s * i / 40.0 for i in range(1, 61)]
    return [(dur / interval_s, undetected_probability(dur, interval_s)) for dur in grid]


def write_undetected_curve(path, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["l_over_t", "p_nodet"])
        for ratio, p in rows:
            writer.writerow([f"{ratio:.6g}", f"{p:.6g}"])


@dataclass(frozen=True)
class DurationBin:
    lo_s: float
    hi_s: float
    analytic_p_nodet: float
    empirical_nodet: float | None  # None when the bin holds no outages
    outages: int


@dataclass(frozen=True)
class DetectionReport:
    total_true_outages: int
    detected: int
    undetected: int
    per_duration_bins: tuple[DurationBin, ...]
    duration_estimates: tuple[tuple[float, float], ...]  # (true_s, estimated_s)

    def __post_init__(self):
        if self.detected + self.undetected != self.total_true_outages:
            raise ValueError("detected + undetected must equal total_true_outages")


@dataclass(frozen=True)
class SlaMetrics:
    """The insurance-relevant triple: how many outages, how many long, how much downtime."""

    failure_count: int
    long_outage_count: int
    cumulative_outage_s: float

    def __post_init__(self):
        if self.long_outage_count > self.failure_count:
            raise ValueError("long_outage_count cannot exceed failure_count")


def detect_outages(log: AttemptLog) -> np.ndarray:
    """Group consecutive failed slots of the observer into outages.

    The observer is the lowest-numbered vantage point in the log. A slot counts
    as failed when none of its attempts succeeded (the post-retry view). Returns
    one int64 row (first_slot, slot_count) per run, in slot order: the
    estimated start is first_slot * T and the estimated duration slot_count * T.
    """
    mine = log.vantage == (log.vantage.min() if len(log) else 0)
    slot, success = log.slot[mine], log.outcome[mine] == OUTCOMES.index(SUCCESS)
    order = np.lexsort((success, slot))  # by slot, a slot's successes last
    slot, success = slot[order], success[order]
    last = np.ones(len(slot), bool)  # each slot's last row, a success iff any attempt was
    last[:-1] = slot[1:] != slot[:-1]
    failed = slot[last & ~success]
    # a run starts where failed slots stop being consecutive; slots are >= 0,
    # so the first failed slot always starts one
    heads = np.flatnonzero(np.diff(failed, prepend=-2) != 1)
    counts = np.diff(heads, append=len(failed))
    return np.stack((failed[heads], counts), axis=1)


def detection_report(truth: Timeline, log: AttemptLog, config: CampaignConfig,
                     runs: np.ndarray) -> DetectionReport:
    """Score the prober's view of the truth timeline.

    A true cloud outage is detected iff at least one attempt timestamp (any
    vantage, any attempt rank) falls inside it. Duration estimates pair each
    detected outage with its run from detect_outages(log), the
    lowest-numbered vantage point's view; outages whose slots all recovered on
    retry have no run and carry no estimate. With runs empty there are no
    estimates, and the counts and bins are unchanged.
    """
    starts, ends, durations = truth.intervals(CLOUD)
    ts = np.append(np.sort(log.ts_s), math.inf)
    flags = ts[np.searchsorted(ts, starts)] < ends
    detected = int(np.count_nonzero(flags))

    bins = _bin_rates(durations, flags, config.probe_interval_s)
    estimates = _duration_estimates(starts, ends, durations, flags, runs,
                                    config.probe_interval_s)

    return DetectionReport(
        total_true_outages=len(starts),
        detected=detected,
        undetected=len(starts) - detected,
        per_duration_bins=tuple(bins),
        duration_estimates=tuple(estimates),
    )


def _bin_rates(durations, flags, interval_s) -> list[DurationBin]:
    """One bin per pair of adjacent edges T*i/4, i = 0..6, half-open [lo, hi)
    on the true duration."""
    edges = [interval_s * i / 4.0 for i in range(7)]
    bins = []
    for lo, hi in zip(edges, edges[1:]):
        inside = (durations >= lo) & (durations < hi)
        outages = int(np.count_nonzero(inside))
        seen = int(np.count_nonzero(flags & inside))
        analytic = undetected_probability(0.5 * (lo + hi), interval_s)
        rate = None if not outages else 1.0 - seen / outages
        bins.append(DurationBin(lo_s=lo, hi_s=hi, analytic_p_nodet=analytic,
                                empirical_nodet=rate, outages=outages))
    return bins


def _duration_estimates(starts, ends, durations, flags, runs, interval):
    if not len(runs):
        return []
    firsts, counts = runs.T
    lasts = firsts + counts - 1
    # also consider the slot before the outage start: its retries may have
    # been what detected the outage, or adjacency merged it into a run
    slots = np.maximum(0, np.ceil(starts / interval - 1e-9).astype(np.int64) - 1)
    k = np.searchsorted(lasts, slots)  # the first run not over before that slot
    has_run = k < len(runs)
    k = np.minimum(k, len(runs) - 1)
    paired = np.flatnonzero(flags & has_run & (np.maximum(slots, firsts[k]) * interval < ends))
    return list(zip(durations[paired].tolist(), (counts[k[paired]] * interval).tolist()))


def sla_metrics(durations_s, threshold_s: float) -> SlaMetrics:
    """Counts and cumulative downtime over outages of the given durations."""
    if threshold_s < 0:
        raise ValueError("threshold_s must be >= 0")
    # Python's sum, in order, so the total does not depend on numpy's summation
    durations = np.asarray(durations_s, dtype=np.float64).tolist()
    return SlaMetrics(
        failure_count=len(durations),
        long_outage_count=sum(1 for d in durations if d > threshold_s),
        cumulative_outage_s=float(sum(durations)),
    )


def true_sla_metrics(truth: Timeline, threshold_s: float) -> SlaMetrics:
    """Same metrics over the ground-truth cloud outages, for distortion comparison."""
    return sla_metrics(truth.intervals(CLOUD)[2], threshold_s)


def undetected_monte_carlo(duration_s: float, interval_s: float, trials: int,
                           seed: int = 0, retry_max: int = 9,
                           retry_gap_s: float = 1.0) -> float:
    """Empirical miss rate for a single uniformly placed outage per trial.

    Each trial builds the one-outage-per-interval situation the analytic miss
    probability assumes (outage start uniform after a probe epoch). The trials
    sit side by side in one campaign, trial i in its own window of
    W = T * (floor(L/T) + 3) seconds with its outage at i*W + T + offset_i, so
    each window holds the first probe after its own outage ends and no probe
    of one trial can see another trial's outage. The truth is one Timeline
    built from the start and duration arrays, with no per-trial object. The
    real sampler probes that campaign and detection_report scores it, with no
    runs to pair, so this validates the whole pipeline rather than re-deriving
    the formula.
    """
    if isinstance(trials, bool) or not isinstance(trials, (int, np.integer)) or trials < 1:
        raise ValueError(f"trials must be an integer >= 1, got {trials!r}")
    if not (0 < duration_s < math.inf and 0 < interval_s < math.inf):
        raise ValueError("duration_s and interval_s must be finite and > 0")
    rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(9,)))
    offsets = rng.uniform(0.0, interval_s, size=trials)
    window = interval_s * (math.floor(duration_s / interval_s) + 3)
    horizon = trials * window
    timeline = Timeline(horizon, np.arange(trials) * window + interval_s + offsets,
                        np.full(trials, duration_s))
    config = CampaignConfig(
        probe_interval_s=interval_s,
        horizon_days=horizon / DAY_S,
        vantage_points=1,
        retry_max=retry_max,
        retry_gap_s=retry_gap_s,
        seed=0,
    )
    log = sample_campaign(timeline, config)
    # no runs: only the undetected count is read, and it does not depend on them
    return detection_report(timeline, log, config, []).undetected / trials
