"""Acceptance gate: one test per release criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the criterion lines.
Tolerances are pinned here and nowhere else.
"""
import math

import numpy as np

from cloudprobe import configfile, logs
from cloudprobe.cli import main
from cloudprobe.detection import (
    detect_outages,
    detection_report,
    undetected_monte_carlo,
    undetected_probability,
)
from cloudprobe.estimators import (
    SlaClaim,
    first_try_availability,
    overestimation_factor,
    overestimation_factor_from_nines,
    retry_filtered_availability,
    sla_test,
    standard_error,
)
from cloudprobe.model import AttemptCounts, CampaignConfig, aggregate_counts, expected_tries
from cloudprobe.simulate import (
    DurationDistribution,
    OutageProcess,
    generate_timeline,
    iid_attempt_log,
    sample_campaign,
)

from conftest import make_random_log

TRIALS = 639478


def _criterion(number: int, name: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE-{number} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {number} {name}: {detail}"


def test_criterion_1_published_estimates_and_standard_errors():
    fixtures = [
        (0.00435, "99.565", 8.2e-5),
        (0.00217, "99.783", 5.8e-5),
    ]
    details = []
    ok = True
    for fail_prob, expected_pct, expected_sigma in fixtures:
        availability = 1.0 - fail_prob
        reported = f"{availability * 100:.3f}"
        sigma = standard_error(availability, TRIALS)
        ok &= reported == expected_pct
        ok &= abs(availability - float(expected_pct) / 100.0) < 1e-12
        ok &= abs(sigma - expected_sigma) <= 0.02 * expected_sigma
        # the counts-based estimator path reports the same figure
        counts = AttemptCounts(retry_max=1, attempts=(TRIALS,),
                               successes=(round(TRIALS * availability),))
        ok &= f"{first_try_availability(counts) * 100:.3f}" == expected_pct
        details.append(f"{reported}% sigma={sigma:.3g}")
    _criterion(1, "availability-and-sigma-fixtures", ok, "; ".join(details))


def test_criterion_2_campaign_try_arithmetic():
    c1 = CampaignConfig(probe_interval_s=600.0, horizon_days=33.0, vantage_points=23)
    c2 = CampaignConfig(probe_interval_s=660.0, horizon_days=75.0, vantage_points=54)
    n1, n2 = expected_tries(c1), expected_tries(c2)
    total = n1 + n2
    ok = n1 == 109296
    ok &= abs(n2 - 530182) <= 54
    ok &= abs(total - 639478) <= 54
    _criterion(2, "campaign-try-arithmetic", ok,
               f"c1={n1} c2={n2} (530182 within 54) total={total} (639478 within 54)")


def test_criterion_3_overestimation_factor():
    f3 = overestimation_factor_from_nines(3.0, 9)
    f2 = overestimation_factor_from_nines(2.0, 9)
    ok = 1.0009 <= f3 <= 1.0011
    ok &= 1.0100 <= f2 <= 1.0102
    worst = 0.0
    for k in (1, 2, 3, 4):
        for n in range(1, 21):
            a = overestimation_factor(1.0 - 10.0 ** -k, n)
            b = overestimation_factor_from_nines(float(k), n)
            worst = max(worst, abs(a - b) / b)
    ok &= worst <= 1e-12
    _criterion(3, "overestimation-factor", ok,
               f"f(3,9)={f3:.6f} f(2,9)={f2:.6f} max formulation gap={worst:.2e}")


def test_criterion_4_miss_rate_monte_carlo():
    interval = 600.0
    trials = 20000
    details = []
    ok = True
    for dur in (60.0, 300.0, 540.0):
        want = 1.0 - dur / interval
        got = undetected_monte_carlo(dur, interval, trials=trials, seed=int(dur))
        ok &= abs(got - want) <= 0.02
        details.append(f"L={dur:g}: {got:.4f} vs {want:.2f}")
    for dur in (600.0, 900.0):
        got = undetected_monte_carlo(dur, interval, trials=2000, seed=int(dur))
        ok &= got == 0.0
        details.append(f"L={dur:g}: {got:g}")
    _criterion(4, "miss-rate-monte-carlo", ok, "; ".join(details))


def test_criterion_5_retry_bias():
    # independent-attempt hook: retry filtering saturates at the geometric rate
    records = iid_attempt_log(0.9, 100000, 9, seed=17)
    counts = aggregate_counts(records, retry_max=9)
    p_star = retry_filtered_availability(counts)
    floor = 1.0 - 0.1**9 - 0.005
    ok = floor <= p_star <= 1.0

    # persistence extreme: outages far outlast the retry window, so retries
    # filter nothing; immediate retries make the equality unconditional
    proc = OutageProcess(up_mean_s=7200.0, duration_dist=DurationDistribution.fixed(3600.0))
    deltas = []
    for seed, gap in ((0, 0.0), (3, 0.0), (0, 1.0)):
        config = CampaignConfig(probe_interval_s=600.0, horizon_days=7.0,
                                retry_max=9, retry_gap_s=gap, seed=seed)
        tl = generate_timeline(proc, config.horizon_s, config.seed)
        recs = sample_campaign(tl, config)
        c = aggregate_counts(recs, retry_max=9)
        p1 = first_try_availability(c)
        ps = retry_filtered_availability(c)
        ok &= ps == p1 and 0.0 < p1 < 1.0
        deltas.append(ps - p1)
    _criterion(5, "retry-bias", ok,
               f"iid p*={p_star:.9f} (floor {floor:.9f}); persistence exact deltas={deltas}")


def test_criterion_6_sla_hypothesis_test():
    amazon = AttemptCounts(retry_max=1, attempts=(TRIALS,),
                           successes=(round(TRIALS * 0.99565),))
    claim = SlaClaim(0.999, alpha=0.01)
    res_normal = sla_test(amazon, claim, method="normal")
    res_exact = sla_test(amazon, claim, method="exact")
    ok = res_normal.reject is True and res_exact.reject is True

    small = AttemptCounts(retry_max=1, attempts=(10,), successes=(9,))
    res_small = sla_test(small, SlaClaim(0.999, alpha=0.05))
    oracle = sum(math.comb(10, i) * 0.999**i * 0.001 ** (10 - i) for i in range(10))
    ok &= res_small.method == "exact"
    ok &= res_small.reject is True
    ok &= abs(res_small.p_value - oracle) <= 1e-10 * oracle
    _criterion(6, "sla-hypothesis-test", ok,
               f"z={res_normal.z:.1f} normal/exact reject={res_normal.reject}/{res_exact.reject}; "
               f"small-sample p={res_small.p_value:.6g} oracle={oracle:.6g}")


def test_criterion_7_structural_invariants(tmp_path):
    rng = np.random.default_rng(20240801)
    identity_ok = ordering_ok = True
    for _ in range(1000):
        records, n = make_random_log(rng)
        counts = aggregate_counts(records, retry_max=n)
        for i in range(n):
            if counts.attempts[i] != counts.attempts[0] - sum(counts.successes[:i]):
                identity_ok = False
        if counts.first_attempts:
            if first_try_availability(counts) > retry_filtered_availability(counts):
                ordering_ok = False

    roundtrip_ok = True
    for i in range(50):
        records, n = make_random_log(rng)
        path = tmp_path / f"log{i}.jsonl"
        logs.write_attempt_log(path, records)
        if aggregate_counts(logs.read_attempt_log(path), retry_max=n) != \
                aggregate_counts(records, retry_max=n):
            roundtrip_ok = False

    config_path = tmp_path / "c.ini"
    configfile.write_config(
        config_path,
        CampaignConfig(probe_interval_s=600.0, horizon_days=2.0, vantage_points=2,
                       retry_max=5, retry_gap_s=1.0, seed=13),
        OutageProcess(up_mean_s=3600.0,
                      duration_dist=DurationDistribution.exponential(200.0),
                      network_fail_prob=0.01),
    )
    digests = []
    for name in ("seeded_a", "seeded_b"):
        assert main(["simulate", "--config", str(config_path),
                     "--out", str(tmp_path / name)]) == 0
        digests.append((logs.sha256_file(tmp_path / name / "attempts.jsonl"),
                        logs.sha256_file(tmp_path / name / "truth.jsonl")))
    determinism_ok = digests[0] == digests[1]

    ok = identity_ok and ordering_ok and roundtrip_ok and determinism_ok
    _criterion(7, "structural-invariants", ok,
               f"identity={identity_ok} ordering={ordering_ok} "
               f"roundtrip={roundtrip_ok} determinism={determinism_ok}")


def test_criterion_8_censoring_distortion():
    interval = 600.0
    proc = OutageProcess(up_mean_s=3600.0,
                         duration_dist=DurationDistribution.exponential(120.0))
    true_total = detected_total = run_total = 0
    miss_probs = []
    runs_below = True
    for seed in range(10):
        config = CampaignConfig(probe_interval_s=interval, horizon_days=30.0, seed=seed)
        tl = generate_timeline(proc, config.horizon_s, config.seed)
        records = sample_campaign(tl, config)
        runs = detect_outages(records, config)
        rep = detection_report(tl, records, config, runs)
        true_total += rep.total_true_outages
        detected_total += rep.detected
        run_total += len(runs)
        runs_below &= len(runs) < rep.total_true_outages
        miss_probs.extend(undetected_probability(ev.duration_s, interval)
                          for ev in tl.events if ev.cause == "cloud")

    shortfall = (true_total - detected_total) / true_total
    oracle = sum(miss_probs) / len(miss_probs)
    ok = runs_below and run_total < true_total
    ok &= abs(shortfall - oracle) <= 0.03
    _criterion(8, "censoring-distortion", ok,
               f"true={true_total} detected={detected_total} runs={run_total} "
               f"shortfall={shortfall:.4f} oracle={oracle:.4f}")
