"""Availability estimators, retry-inflation factors, and the SLA hypothesis test.

All functions are pure; counts come from model.aggregate_counts. The binomial
tail needed for the exact test and Clopper-Pearson bounds is computed in the
log domain, so no heavyweight stats dependency is required.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .model import AttemptCounts, InsufficientDataError

_Z95 = 1.9599639845400536  # the standard normal's 0.975 quantile, for 95% intervals


def first_try_availability(counts: AttemptCounts) -> float:
    """Fraction of slots whose first attempt succeeded."""
    if counts.first_attempts == 0:
        raise InsufficientDataError("no first attempts recorded")
    return counts.successes[0] / counts.attempts[0]


def retry_filtered_availability(counts: AttemptCounts) -> float:
    """Fraction of slots where any attempt succeeded (retries filter failures)."""
    if counts.first_attempts == 0:
        raise InsufficientDataError("no first attempts recorded")
    return counts.total_successes / counts.attempts[0]


def per_attempt_availability(counts: AttemptCounts) -> float:
    """Pooled per-attempt success fraction, treating every attempt alike."""
    if counts.total_attempts == 0:
        raise InsufficientDataError("no attempts recorded")
    return counts.total_successes / counts.total_attempts


def overestimation_factor(p: float, max_attempts: int) -> float:
    """Inflation of the retry-filtered estimate over the per-attempt availability p.

    With independent attempts, allowing up to max_attempts tries per slot turns
    per-attempt availability p into slot success rate 1 - (1-p)^n, an inflation
    of (1 - (1-p)^n) / p.
    """
    if not 0.0 < p <= 1.0:
        raise ValueError("p must be in (0, 1]")
    if max_attempts < 1:
        raise ValueError("max_attempts must be >= 1")
    return (1.0 - (1.0 - p) ** max_attempts) / p


def overestimation_factor_from_nines(k: float, max_attempts: int) -> float:
    """Same inflation factor parameterized by availability nines k."""
    if not k > 0:  # also NaN
        raise ValueError("k must be > 0")
    if max_attempts < 1:
        raise ValueError("max_attempts must be >= 1")
    return (1.0 - 10.0 ** (-k * max_attempts)) / (1.0 - 10.0 ** -k)


def standard_error(p: float, trials: int) -> float:
    """Binomial standard error sqrt(p (1-p) / trials) of a proportion."""
    if trials <= 0:
        raise InsufficientDataError("trials must be > 0")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    return math.sqrt(p * (1.0 - p) / trials)


def nines(p: float) -> float:
    """Availability expressed in nines: -log10(1 - p)."""
    if not 0.0 < p < 1.0:
        raise ValueError("p must be strictly inside (0, 1)")
    return -math.log10(1.0 - p)


def from_nines(k: float) -> float:
    """Inverse of nines(): 1 - 10^-k."""
    if not k > 0:  # also NaN
        raise ValueError("k must be > 0")
    return 1.0 - 10.0 ** -k


def wald_interval(p: float, trials: int) -> tuple[float, float]:
    """95% normal-approximation confidence interval, clipped to [0, 1]."""
    half = _Z95 * standard_error(p, trials)
    return max(0.0, p - half), min(1.0, p + half)


def clopper_pearson_interval(successes: int, trials: int,
                             alpha: float = 0.05) -> tuple[float, float]:
    """Exact binomial confidence interval; reliable where Wald is known-poor."""
    if trials <= 0:
        raise InsufficientDataError("trials must be > 0")
    if not 0 <= successes <= trials:
        raise ValueError("successes outside [0, trials]")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    half = alpha / 2.0
    lo = 0.0 if successes == 0 else _solve_p(
        lambda p: binom_sf(successes, trials, p), half)
    hi = 1.0 if successes == trials else _solve_p(
        lambda p: binom_cdf(successes, trials, p), half, decreasing=True)
    return lo, hi


def _solve_p(fn, target: float, decreasing: bool = False) -> float:
    # fn is monotone in p on [0, 1]; 100 bisection steps reach ~1e-30
    lo, hi = 0.0, 1.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        v = fn(mid)
        if (v < target) if decreasing else (v > target):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def _binom_logpmf(k: int, n: int, p: float) -> float:
    return (math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)
            + k * math.log(p) + (n - k) * math.log1p(-p))


def binom_cdf(k: int, n: int, p: float) -> float:
    """P(X <= k) for X ~ Binomial(n, p), summed away from the mode so the
    series terminates quickly for large n."""
    if k < 0 or (k < n and p >= 1.0):
        return 0.0
    if k >= n or p <= 0.0:
        return 1.0
    # the lower tail up to k, or else the upper tail past k: either sum starts
    # at its largest term and walks away from the mode, so a term at or below
    # total*1e-18 (including underflow to 0.0) ends the series
    lower = k <= n * p
    total = 0.0
    for i in range(k, -1, -1) if lower else range(k + 1, n + 1):
        term = math.exp(_binom_logpmf(i, n, p))
        total += term
        if term <= total * 1e-18:
            break
    return min(total, 1.0) if lower else max(0.0, 1.0 - total)


def binom_sf(k: int, n: int, p: float) -> float:
    """P(X >= k) for X ~ Binomial(n, p)."""
    return 1.0 if k <= 0 else binom_cdf(n - k, n, 1.0 - p)


@dataclass(frozen=True)
class SlaClaim:
    """A provider's availability claim and the significance level to test it at."""

    claimed_availability: float
    alpha: float = 0.05

    def __post_init__(self):
        if not 0.0 < self.claimed_availability < 1.0:
            raise ValueError("claimed_availability must be in (0, 1)")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must be in (0, 1)")


class SlaTestResult(NamedTuple):
    """One SLA test, an item of the report's sla_tests section; reject is p_value < alpha."""

    claimed_availability: float
    alpha: float
    observed: float
    trials: int
    z: float | None
    p_value: float
    reject: bool
    method: str


def sla_test(counts: AttemptCounts, claim: SlaClaim, method: str = "auto") -> SlaTestResult:
    """One-sided test of H0: availability >= claim against H1: availability < claim.

    Uses first-attempt successes as binomial trials. The exact binomial tail is
    always valid; the normal approximation is used automatically once
    trials * min(p0, 1-p0) > 50. Reject iff p_value < alpha.
    """
    if counts.first_attempts == 0:
        raise InsufficientDataError("no first attempts recorded")
    trials = counts.attempts[0]
    successes = counts.successes[0]
    p0 = claim.claimed_availability

    if method == "auto":
        method = "normal" if trials * min(p0, 1.0 - p0) > 50.0 else "exact"
    if method not in ("normal", "exact"):
        raise ValueError("method must be auto, normal, or exact")

    observed = successes / trials
    if method == "normal":
        z = (observed - p0) / math.sqrt(p0 * (1.0 - p0) / trials)
        p_value = 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))  # the standard normal cdf
    else:
        z = None
        p_value = binom_cdf(successes, trials, p0)

    return SlaTestResult(claimed_availability=p0, alpha=claim.alpha, observed=observed,
                         trials=trials, z=z, p_value=p_value, reject=p_value < claim.alpha,
                         method=method)


class EstimateSet(NamedTuple):
    """Availability estimates for one campaign log, the report's estimates section.

    first_try      fraction of slots whose first attempt succeeded
    per_attempt    pooled per-attempt success fraction (all ranks)
    retry_filtered fraction of slots with any successful attempt
    std_error      binomial standard error of first_try
    nines          -log10(1 - first_try); inf when first_try == 1
    ci_low/ci_high confidence bounds on first_try
    first_attempts the first attempts behind first_try, one a slot
    """

    first_try: float
    per_attempt: float
    retry_filtered: float
    std_error: float
    nines: float
    ci_low: float
    ci_high: float
    first_attempts: int


def build_estimate_set(counts: AttemptCounts) -> EstimateSet:
    """Bundle the three availability estimates with 95% Wald error bars on first_try."""
    p1 = first_try_availability(counts)
    trials = counts.attempts[0]
    ci_low, ci_high = wald_interval(p1, trials)
    return EstimateSet(
        first_try=p1,
        per_attempt=per_attempt_availability(counts),
        retry_filtered=retry_filtered_availability(counts),
        std_error=standard_error(p1, trials),
        nines=0.0 if p1 <= 0.0 else math.inf if p1 >= 1.0 else nines(p1),
        ci_low=ci_low,
        ci_high=ci_high,
        first_attempts=trials,
    )
