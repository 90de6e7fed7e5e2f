import math
import statistics

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cloudprobe.estimators import (
    SlaClaim,
    binom_cdf,
    binom_sf,
    build_estimate_set,
    clopper_pearson_interval,
    first_try_availability,
    from_nines,
    nines,
    overestimation_factor,
    overestimation_factor_from_nines,
    per_attempt_availability,
    retry_filtered_availability,
    sla_test,
    standard_error,
    wald_interval,
)
from cloudprobe.model import AttemptCounts, InsufficientDataError, aggregate_counts

from conftest import iid_attempt_log, make_random_log

HAND = AttemptCounts(retry_max=3, attempts=(4, 3, 2), successes=(1, 1, 1))
EMPTY = AttemptCounts(retry_max=1, attempts=(0,), successes=(0,))

# published storage campaign results: first-try failure probability and trials
AMAZON = {"fail_prob": 0.00435, "availability": 0.99565, "sigma": 8.2e-5}
GOOGLE = {"fail_prob": 0.00217, "availability": 0.99783, "sigma": 5.8e-5}
TRIALS = 639478


@st.composite
def attempt_counts(draw) -> AttemptCounts:
    """Valid tallies with at least one slot: each rank's attempts are the rank
    before's less its successes."""
    attempts, successes = [draw(st.integers(1, 5000))], []
    for _ in range(draw(st.integers(1, 9))):
        successes.append(draw(st.integers(0, attempts[-1])))
        attempts.append(attempts[-1] - successes[-1])
    return AttemptCounts(len(successes), tuple(attempts[:-1]), tuple(successes))


def proportion_counts(trials: int, p: float) -> AttemptCounts:
    return AttemptCounts(retry_max=1, attempts=(trials,), successes=(round(trials * p),))


class TestPointEstimates:
    def test_hand_example(self):
        assert retry_filtered_availability(HAND) == pytest.approx(0.75)
        assert first_try_availability(HAND) == pytest.approx(0.25)
        assert per_attempt_availability(HAND) == pytest.approx(1.0 / 3.0)

    def test_all_success(self):
        counts = AttemptCounts(retry_max=1, attempts=(10,), successes=(10,))
        assert retry_filtered_availability(counts) == 1.0
        assert first_try_availability(counts) == 1.0
        assert per_attempt_availability(counts) == 1.0

    def test_all_fail(self):
        counts = AttemptCounts(retry_max=2, attempts=(5, 5), successes=(0, 0))
        assert retry_filtered_availability(counts) == 0.0
        assert first_try_availability(counts) == 0.0

    def test_published_first_try_fixtures(self):
        for fixture in (AMAZON, GOOGLE):
            counts = proportion_counts(TRIALS, 1.0 - fixture["fail_prob"])
            got = first_try_availability(counts)
            assert got == pytest.approx(fixture["availability"], abs=1e-6)

    def test_insufficient_data_is_typed(self):
        for fn in (first_try_availability, retry_filtered_availability,
                   per_attempt_availability):
            with pytest.raises(InsufficientDataError):
                fn(EMPTY)

    def test_first_try_never_exceeds_retry_filtered(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            records, n = make_random_log(rng)
            counts = aggregate_counts(records, retry_max=n)
            if counts.first_attempts == 0:
                continue
            assert first_try_availability(counts) <= retry_filtered_availability(counts)

    def test_per_attempt_recovers_iid_success_rate(self):
        records = iid_attempt_log(0.9, 100000, 9, seed=12)
        counts = aggregate_counts(records, retry_max=9)
        assert per_attempt_availability(counts) == pytest.approx(0.9, abs=0.01)


class TestOverestimationFactor:
    def test_perfect_availability(self):
        assert overestimation_factor(1.0, 9) == 1.0

    def test_single_attempt(self):
        for p in (0.1, 0.5, 0.99):
            assert overestimation_factor(p, 1) == pytest.approx(1.0)

    def test_two_nines_nine_attempts(self):
        assert 1.0100 <= overestimation_factor(0.99, 9) <= 1.0102

    def test_three_nines_nine_attempts(self):
        assert 1.0009 <= overestimation_factor_from_nines(3.0, 9) <= 1.0011

    def test_formulations_agree_to_12_digits(self):
        for k in (1, 2, 3, 4):
            for n in range(1, 21):
                via_p = overestimation_factor(1.0 - 10.0 ** -k, n)
                via_k = overestimation_factor_from_nines(float(k), n)
                assert math.isclose(via_p, via_k, rel_tol=1e-12)

    def test_large_budget_limit(self):
        # geometric series limit: 1 / (1 - 10^-k)
        assert overestimation_factor_from_nines(2.0, 400) == pytest.approx(
            1.0 / 0.99, rel=1e-12)

    def test_nondecreasing_in_attempts_and_bounded(self):
        for p in (0.05, 0.3, 0.9, 0.999):
            prev = 0.0
            for n in range(1, 30):
                f = overestimation_factor(p, n)
                assert f >= prev - 1e-15
                assert f <= 1.0 / p + 1e-12
                prev = f

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            overestimation_factor(0.0, 9)
        with pytest.raises(ValueError):
            overestimation_factor(0.5, 0)
        with pytest.raises(ValueError):
            overestimation_factor_from_nines(0.0, 9)

    @pytest.mark.parametrize("k", [math.nan, -1.0, -math.inf])
    def test_nan_or_negative_nines_rejected(self, k):
        with pytest.raises(ValueError, match="k must be > 0"):
            overestimation_factor_from_nines(k, 9)


class TestStandardError:
    def test_published_sigmas_within_two_percent(self):
        for fixture in (AMAZON, GOOGLE):
            got = standard_error(fixture["availability"], TRIALS)
            assert got == pytest.approx(fixture["sigma"], rel=0.02)

    def test_degenerate_proportions(self):
        assert standard_error(0.0, 100) == 0.0
        assert standard_error(1.0, 100) == 0.0

    def test_no_trials_is_typed(self):
        with pytest.raises(InsufficientDataError):
            standard_error(0.5, 0)


class TestNines:
    def test_three_nines(self):
        assert nines(0.999) == pytest.approx(3.0, abs=1e-12)

    def test_published_availability_in_nines(self):
        # log oracle computed via natural log for independence
        want = -math.log(1.0 - 0.99565) / math.log(10.0)
        assert nines(0.99565) == pytest.approx(want, rel=1e-12)
        assert nines(0.99565) == pytest.approx(2.3615, abs=1e-4)

    def test_from_nines(self):
        assert from_nines(2.0) == pytest.approx(0.99, rel=1e-12)

    def test_round_trip_12_digits(self):
        for p in (0.5, 0.9, 0.99565, 0.9999, 0.999999):
            assert from_nines(nines(p)) == pytest.approx(p, rel=1e-12)
        # k -> p -> k loses precision to 1 - 10^-k cancellation past ~4 nines;
        # within the measured regime the round trip holds to 12 digits
        for k in (0.5, 1.0, 2.361, 4.0):
            assert nines(from_nines(k)) == pytest.approx(k, rel=1e-12)

    def test_domain_errors(self):
        for p in (0.0, 1.0, -0.1, 1.1):
            with pytest.raises(ValueError):
                nines(p)

    @pytest.mark.parametrize("k", [math.nan, 0.0, -1.0, -math.inf])
    def test_from_nines_rejects_nan_and_non_positive(self, k):
        with pytest.raises(ValueError, match="k must be > 0"):
            from_nines(k)


class TestIntervals:
    def test_wald_brackets_estimate(self):
        lo, hi = wald_interval(0.99565, TRIALS)
        assert lo < 0.99565 < hi
        assert hi - lo == pytest.approx(2 * 1.959964 * standard_error(0.99565, TRIALS),
                                        rel=1e-4)

    def test_wald_clipped(self):
        lo, hi = wald_interval(0.9999, 50)
        assert hi == 1.0

    def test_wald_quantile_is_the_standard_normal_one(self):
        z = statistics.NormalDist().inv_cdf(0.975)
        for p, trials in ((0.99565, TRIALS), (0.5, 10), (0.25, 4), (0.9, 1000), (0.0, 7)):
            half = z * standard_error(p, trials)
            assert wald_interval(p, trials) == (max(0.0, p - half), min(1.0, p + half))

    def test_clopper_pearson_reference_values(self):
        # 9/10 at 95%: known exact interval (0.5550, 0.9975)
        lo, hi = clopper_pearson_interval(9, 10)
        assert lo == pytest.approx(0.5550, abs=2e-4)
        assert hi == pytest.approx(0.9975, abs=2e-4)

    def test_clopper_pearson_degenerate_ends(self):
        lo, hi = clopper_pearson_interval(0, 10)
        assert lo == 0.0 and 0 < hi < 0.5
        lo, hi = clopper_pearson_interval(10, 10)
        assert hi == 1.0 and 0.5 < lo < 1.0

    def test_clopper_pearson_covers_wald_regime(self):
        lo, hi = clopper_pearson_interval(636696, TRIALS)
        assert lo < 636696 / TRIALS < hi
        assert hi - lo < 4e-4


class TestBinomialTail:
    def test_matches_direct_summation(self):
        def direct(k, n, p):
            return sum(math.comb(n, i) * p**i * (1 - p) ** (n - i) for i in range(k + 1))

        rng = np.random.default_rng(13)
        for _ in range(50):
            n = int(rng.integers(1, 400))
            k = int(rng.integers(0, n + 1))
            p = float(rng.uniform(0.01, 0.99))
            assert binom_cdf(k, n, p) == pytest.approx(direct(k, n, p), rel=1e-10)

    def test_edges(self):
        assert binom_cdf(-1, 10, 0.5) == 0.0
        assert binom_cdf(10, 10, 0.5) == 1.0
        assert binom_cdf(3, 10, 0.0) == 1.0
        assert binom_cdf(3, 10, 1.0) == 0.0


# (n, p): small and large n, p near either end, and the paper's campaign scale
ORACLE_CASES = [(1, 0.5), (7, 0.3), (50, 0.02), (1000, 0.5), (1000, 0.999),
                (TRIALS, 0.00435), (TRIALS, 0.99783)]
# set from the lgamma terms of the log-pmf at n = 639478 (about 8e6 each, so ~3e-9
# relative error in a term), with margin; tails below 1e-290 may underflow either way
ORACLE_RTOL, ORACLE_ATOL = 1e-7, 1e-290


class TestScipyOracle:
    @pytest.mark.parametrize("n, p", ORACLE_CASES)
    def test_binomial_tails(self, n, p):
        stats = pytest.importorskip("scipy.stats")
        mean, sd = n * p, math.sqrt(n * p * (1 - p))
        ks = {0, 1, math.floor(mean - 3 * sd), math.floor(mean), math.ceil(mean + 3 * sd),
              n - 1, n}
        for k in sorted(k for k in ks if 0 <= k <= n):
            assert binom_cdf(k, n, p) == pytest.approx(
                stats.binom.cdf(k, n, p), rel=ORACLE_RTOL, abs=ORACLE_ATOL), ("cdf", k)
            # binom_sf(k) is P(X >= k), scipy's sf(k) is P(X > k)
            assert binom_sf(k, n, p) == pytest.approx(
                stats.binom.sf(k - 1, n, p), rel=ORACLE_RTOL, abs=ORACLE_ATOL), ("sf", k)

    @pytest.mark.parametrize("k, n", [(0, 1), (1, 1), (0, 10), (3, 10), (9, 10), (10, 10),
                                      (17, 50), (500, 1000), (636696, TRIALS)])
    @pytest.mark.parametrize("alpha", [0.05, 0.01])
    def test_clopper_pearson(self, k, n, alpha):
        stats = pytest.importorskip("scipy.stats")
        want = stats.binomtest(k, n).proportion_ci(confidence_level=1 - alpha, method="exact")
        # an error of ~1e-8 relative in the tail moves the root by far less than 1e-9
        assert clopper_pearson_interval(k, n, alpha) == pytest.approx(
            (want.low, want.high), rel=0, abs=1e-9)


class TestSlaTest:
    def amazon_counts(self):
        return proportion_counts(TRIALS, AMAZON["availability"])

    def test_published_campaign_rejects_triple_nines(self):
        claim = SlaClaim(0.999, alpha=0.01)
        res = sla_test(self.amazon_counts(), claim)
        assert res.method == "normal"
        assert res.reject is True
        assert res.z == pytest.approx(-84.8, abs=0.5)

    def test_normal_and_exact_agree_on_decision(self):
        claim = SlaClaim(0.999, alpha=0.01)
        counts = self.amazon_counts()
        res_n = sla_test(counts, claim, method="normal")
        res_e = sla_test(counts, claim, method="exact")
        assert res_n.reject is res_e.reject is True

    def test_normal_tail_is_the_standard_normal_cdf(self):
        # against statistics.NormalDist, bit for bit, over a grid of z values from
        # about -1,000 to +30 at several claims and trial counts
        cdf = statistics.NormalDist().cdf
        zs = set()
        for trials in (1000, 20000, TRIALS):
            for claim in (0.5, 0.9, 0.999):
                for successes in np.linspace(0, trials, 401).astype(int).tolist():
                    counts = AttemptCounts(retry_max=1, attempts=(trials,),
                                           successes=(successes,))
                    res = sla_test(counts, SlaClaim(claim), method="normal")
                    assert res.p_value == cdf(res.z), (trials, claim, successes)
                    zs.add(res.z)
        assert len(zs) > 3000 and min(zs) < -500 and max(zs) > 20

    def test_perfect_record_never_rejects(self):
        counts = AttemptCounts(retry_max=1, attempts=(100,), successes=(100,))
        for method in ("normal", "exact", "auto"):
            res = sla_test(counts, SlaClaim(0.999, alpha=0.05), method=method)
            assert res.reject is False

    def test_small_sample_against_direct_summation_oracle(self):
        counts = AttemptCounts(retry_max=1, attempts=(10,), successes=(9,))
        claim = SlaClaim(0.999, alpha=0.05)
        res = sla_test(counts, claim)
        assert res.method == "exact"  # 10 * 0.001 << 50
        oracle = sum(math.comb(10, i) * 0.999**i * 0.001 ** (10 - i) for i in range(10))
        assert res.p_value == pytest.approx(oracle, rel=1e-10)
        assert res.reject is True

    def test_reject_iff_p_below_alpha(self):
        counts = AttemptCounts(retry_max=1, attempts=(10,), successes=(9,))
        res = sla_test(counts, SlaClaim(0.999, alpha=0.001))
        assert res.reject is (res.p_value < 0.001)

    def test_monotone_in_claim(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            trials = int(rng.integers(5, 2000))
            successes = int(rng.integers(0, trials + 1))
            counts = AttemptCounts(retry_max=1, attempts=(trials,), successes=(successes,))
            rejected = False
            for claim in (0.5, 0.9, 0.99, 0.999, 0.99999):
                res = sla_test(counts, SlaClaim(claim, alpha=0.05))
                assert not (rejected and not res.reject)  # once rejected, stays rejected
                rejected = res.reject

    def test_insufficient_data_is_typed_not_accept(self):
        with pytest.raises(InsufficientDataError):
            sla_test(EMPTY, SlaClaim(0.999))

    @settings(max_examples=200, deadline=None)
    @given(counts=attempt_counts(), claim=st.floats(1e-3, 1 - 1e-6),
           alpha=st.floats(1e-4, 0.5), method=st.sampled_from(["normal", "exact"]))
    def test_reject_is_p_below_alpha_for_random_counts(self, counts, claim, alpha, method):
        res = sla_test(counts, SlaClaim(claim, alpha=alpha), method=method)
        assert res.reject is (res.p_value < alpha)
        assert 0.0 <= res.p_value <= 1.0 and res.method == method
        assert res.trials == counts.attempts[0]

    def test_claim_validation(self):
        with pytest.raises(ValueError):
            SlaClaim(1.0)
        with pytest.raises(ValueError):
            SlaClaim(0.999, alpha=0.0)


class TestEstimateSet:
    def test_bundles_hand_example(self):
        est = build_estimate_set(HAND)
        assert est.first_try == pytest.approx(0.25)
        assert est.retry_filtered == pytest.approx(0.75)
        assert est.per_attempt == pytest.approx(1.0 / 3.0)
        assert est.std_error == pytest.approx(standard_error(0.25, 4))
        assert est.ci_low <= 0.25 <= est.ci_high

    def test_perfect_log_nines_is_infinite(self):
        counts = AttemptCounts(retry_max=1, attempts=(10,), successes=(10,))
        est = build_estimate_set(counts)
        assert math.isinf(est.nines)
        assert est.std_error == 0.0

    def test_interval_is_wald(self):
        est = build_estimate_set(HAND)
        assert (est.ci_low, est.ci_high) == wald_interval(0.25, 4)

    def test_empty_counts_raise(self):
        with pytest.raises(InsufficientDataError):
            build_estimate_set(EMPTY)

    @settings(max_examples=300, deadline=None)
    @given(counts=attempt_counts())
    def test_estimates_ordered_for_random_counts(self, counts):
        est = build_estimate_set(counts)
        assert 0.0 <= est.first_try <= est.retry_filtered <= 1.0
        assert 0.0 <= est.per_attempt <= 1.0
        assert est.ci_low <= est.first_try <= est.ci_high
        assert est.first_attempts == counts.attempts[0] and type(est.first_attempts) is int
