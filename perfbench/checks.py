"""Output checks that do not trust cloudprobe's own code paths.

Each check returns a list of problems; an empty list means the output is
correct. The raw files are re-read with plain ``json`` loops here, so a bug in
the program's reader, aggregation or detection cannot hide itself.
"""
from __future__ import annotations

import hashlib
import json
import math

import jsonschema

from stub import scripted_failure


def _jsonl(path):
    with open(path, "r", encoding="utf-8") as f:
        for line in f:
            if line.strip():
                yield json.loads(line)


def sha256_file(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def check_pipeline(out_dir, schema: dict) -> list[str]:
    """report.json against a re-tally of attempts.jsonl and truth.jsonl."""
    problems = []
    attempts: list[int] = []
    successes: list[int] = []
    for rec in _jsonl(out_dir / "attempts.jsonl"):
        rank = rec["attempt"]
        while len(attempts) < rank:
            attempts.append(0)
            successes.append(0)
        attempts[rank - 1] += 1
        successes[rank - 1] += rec["outcome"] == "success"
    cloud_events = sum(ev.get("cause", "cloud") == "cloud"
                       for ev in _jsonl(out_dir / "truth.jsonl"))

    with open(out_dir / "report.json", "r", encoding="utf-8") as f:
        report = json.load(f)
    try:
        jsonschema.validate(report, schema)
    except jsonschema.ValidationError as exc:
        problems.append(f"report.json fails its schema: {exc.message}")
    counts = report.get("counts", {})
    pad = len(counts.get("attempts", [])) - len(attempts)
    if pad < 0:
        problems.append(f"log has attempt rank {len(attempts)} beyond report retry_max")
        pad = 0
    if counts.get("attempts") != attempts + [0] * pad:
        problems.append(f"per-rank attempts {counts.get('attempts')} != log tally {attempts}")
    if counts.get("successes") != successes + [0] * pad:
        problems.append(f"per-rank successes {counts.get('successes')} != log tally {successes}")
    first_try = report.get("estimates", {}).get("first_try")
    if not attempts or first_try is None or not math.isclose(
            first_try, successes[0] / attempts[0], rel_tol=1e-12):
        problems.append(f"first_try {first_try} does not match the log tally")
    total = report.get("detection", {}).get("total_true_outages")
    if total != cloud_events:
        problems.append(f"total_true_outages {total} != {cloud_events} cloud events in truth")
    return problems


def check_monte_carlo(rates, l_over_t, trials: int) -> list[str]:
    """Each miss rate within 4 binomial sigma of the analytic 1 - L/T."""
    problems = []
    for ratio, rate in zip(l_over_t, rates):
        p = max(0.0, 1.0 - ratio)
        sigma = math.sqrt(p * (1.0 - p) / trials)
        if abs(rate - p) > 4.0 * sigma:
            problems.append(f"L/T={ratio}: miss rate {rate} vs analytic {p:.4f} (4 sigma {4 * sigma:.4f})")
    return problems


def check_live_log(path, first_index: int, slots: int, retry_max: int,
                   period: int, fails: int, offset: int) -> tuple[list[str], int]:
    """Walk the stub's script from request ``first_index`` and compare every
    record of the live log with it. Returns (problems, requests consumed)."""
    records = list(_jsonl(path))
    expected = []
    index = first_index
    for slot in range(slots):
        for attempt in range(1, retry_max + 1):
            failed = scripted_failure(index, period, fails, offset)
            index += 1
            expected.append((slot, attempt, "fail" if failed else "success",
                             "status" if failed else None))
            if not failed:
                break
    got = [(r["slot"], r["attempt"], r["outcome"], r.get("reason")) for r in records]
    problems = []
    if len(got) != len(expected):
        problems.append(f"live log has {len(got)} records, the script implies {len(expected)}")
    bad = next((i for i, (g, e) in enumerate(zip(got, expected)) if g != e), None)
    if bad is not None:
        problems.append(f"live record {bad} is {got[bad]}, the script implies {expected[bad]}")
    return problems, index - first_index
