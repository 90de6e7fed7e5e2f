"""JSONL attempt-log and ground-truth file formats.

Attempt log: one record per line with fields ts_s, vantage, slot, attempt,
outcome, plus optional latency_ms and reason. A file is valid when ts_s is
nondecreasing per vantage. Truth file: start_s, duration_s, cause per line.
"""
from __future__ import annotations

import hashlib
import json

from .model import AttemptRecord, MalformedLogError, OutageEvent, Timeline


def attempt_line(rec: AttemptRecord) -> str:
    obj = {
        "ts_s": rec.ts_s,
        "vantage": rec.vantage,
        "slot": rec.slot,
        "attempt": rec.attempt,
        "outcome": rec.outcome,
    }
    if rec.latency_ms is not None:
        obj["latency_ms"] = rec.latency_ms
    if rec.reason is not None:
        obj["reason"] = rec.reason
    return json.dumps(obj, separators=(",", ":"))


def write_attempt_log(path, records) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for rec in records:
            f.write(attempt_line(rec))
            f.write("\n")


def read_attempt_log(path) -> list[AttemptRecord]:
    """Parse an attempt log; enforces nondecreasing ts_s per vantage."""
    records: list[AttemptRecord] = []
    last_ts: dict = {}
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                vantage, slot, attempt = obj["vantage"], obj["slot"], obj["attempt"]
                # compared, sorted and matched exactly, so never truncated
                if not type(vantage) is type(slot) is type(attempt) is int:
                    raise TypeError("vantage, slot and attempt must be integers, got "
                                    f"{vantage!r}, {slot!r}, {attempt!r}")
                rec = AttemptRecord(
                    ts_s=float(obj["ts_s"]),
                    vantage=vantage,
                    slot=slot,
                    attempt=attempt,
                    outcome=obj["outcome"],
                    latency_ms=obj.get("latency_ms"),
                    reason=obj.get("reason"),
                )
            except (KeyError, TypeError, ValueError) as exc:
                raise MalformedLogError("?", f"line {lineno}", str(exc)) from exc
            prev = last_ts.get(rec.vantage)
            if prev is not None and rec.ts_s < prev:
                raise MalformedLogError(
                    rec.vantage, rec.slot, f"ts_s {rec.ts_s} decreases (line {lineno})"
                )
            last_ts[rec.vantage] = rec.ts_s
            records.append(rec)
    return records


def write_truth(path, timeline: Timeline) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for ev in timeline.events:
            f.write(json.dumps(
                {"start_s": ev.start_s, "duration_s": ev.duration_s, "cause": ev.cause},
                separators=(",", ":"),
            ))
            f.write("\n")


def read_truth(path) -> tuple[OutageEvent, ...]:
    """Ground-truth events only; the horizon comes from the campaign config."""
    events = []
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                events.append(OutageEvent(
                    start_s=float(obj["start_s"]),
                    duration_s=float(obj["duration_s"]),
                    cause=obj.get("cause", "cloud"),
                ))
            except (KeyError, TypeError, ValueError) as exc:
                raise MalformedLogError("?", f"line {lineno}", str(exc)) from exc
    return tuple(events)


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()
