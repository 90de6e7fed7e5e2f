"""JSONL attempt-log and ground-truth file formats.

Attempt log: one record per line with fields ts_s, vantage, slot, attempt,
outcome, plus optional latency_ms and reason. A file is valid when ts_s is
nondecreasing per vantage. Truth file: start_s, duration_s, cause per line.
"""
from __future__ import annotations

import hashlib
import json
import math
from itertools import islice, repeat

import numpy as np

from .model import (FAIL_REASONS, OUTCOMES, AttemptLog, AttemptRecord, MalformedLogError,
                    OutageEvent, Timeline)

# the line's keys in AttemptLog column order; latency_ms and reason are optional
_KEYS = ("ts_s", "vantage", "slot", "attempt", "outcome", "latency_ms", "reason")
_OUTCOME_CODES = {name: code for code, name in enumerate(OUTCOMES)}
_REASON_CODES = {None: -1, **{name: code for code, name in enumerate(FAIL_REASONS)}}
_CHUNK = 1 << 13  # lines per read or write, so the whole text is never held at once


def _lines(log: AttemptLog):
    """Each record's line as json.dumps writes it, leaving out a NaN latency_ms
    and a reason of -1."""
    for ts, vantage, slot, attempt, outcome, latency_ms, reason in zip(
            *(getattr(log, key).tolist() for key in _KEYS)):
        line = (f'{{"ts_s":{ts!r},"vantage":{vantage},"slot":{slot},"attempt":{attempt},'
                f'"outcome":"{OUTCOMES[outcome]}"')
        if latency_ms == latency_ms:
            line += f',"latency_ms":{latency_ms!r}'
        if reason >= 0:
            line += f',"reason":"{FAIL_REASONS[reason]}"'
        yield line + "}\n"


def attempt_line(rec: AttemptRecord) -> str:
    """One record's line, newline included."""
    return next(_lines(AttemptLog.from_records([rec])))


def write_attempt_log(path, log: AttemptLog) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for lo in range(0, len(log), _CHUNK):
            f.write("".join(_lines(log[lo:lo + _CHUNK])))


def _columns(rows) -> AttemptLog:
    """Parsed rows (values in _KEYS order) as a log. Raises TypeError,
    ValueError or OverflowError exactly when _first_error finds a bad row."""
    ts, vantage, slot, attempt, outcome, latency, reason = zip(*rows) if rows else ((),) * 7
    n = len(rows)
    if not ({*map(type, vantage), *map(type, slot), *map(type, attempt)} <= {int}
            and set(map(type, latency)) <= {int, float, bool, type(None)}):
        raise TypeError("unexpected value type")
    log = AttemptLog(
        ts_s=np.fromiter(map(float, ts), np.float64, n),
        vantage=np.fromiter(vantage, np.int64, n),
        slot=np.fromiter(slot, np.int64, n),
        attempt=np.fromiter(attempt, np.int64, n),
        outcome=np.fromiter(map(_OUTCOME_CODES.get, outcome, repeat(-1)), np.int8, n),
        latency_ms=np.array(latency, dtype=np.float64),  # None becomes NaN
        reason=np.fromiter(map(_REASON_CODES.get, reason, repeat(-2)), np.int8, n))
    if (np.count_nonzero(~np.isfinite(log.latency_ms)) > latency.count(None)
            or not np.all((0 <= log.ts_s) & (log.ts_s < math.inf)) or np.any(log.slot < 0)
            or np.any(log.attempt < 1) or np.any(log.outcome < 0) or np.any(log.reason < -1)):
        raise ValueError("malformed record")
    return log


def _first_error(path) -> MalformedLogError:
    """The error of the first malformed line, found line by line."""
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
                if not all(-2**63 <= x < 2**63 for x in (vantage, slot, attempt)):
                    raise ValueError("vantage, slot and attempt must fit in 64 bits")
                rec = AttemptRecord(ts_s=float(obj["ts_s"]), vantage=vantage, slot=slot,
                                    attempt=attempt, outcome=obj["outcome"],
                                    latency_ms=obj.get("latency_ms"), reason=obj.get("reason"))
            except (KeyError, TypeError, ValueError, OverflowError) as exc:
                return MalformedLogError("?", f"line {lineno}", str(exc))
            if rec.ts_s < last_ts.get(rec.vantage, rec.ts_s):
                return MalformedLogError(
                    rec.vantage, rec.slot, f"ts_s {rec.ts_s} decreases (line {lineno})")
            last_ts[rec.vantage] = rec.ts_s
    raise RuntimeError(f"{path}: the column checks and the line checks disagree")


def read_attempt_log(path) -> AttemptLog:
    """Parse an attempt log; enforces nondecreasing ts_s per vantage.

    Lines are parsed in chunks into columns and checked column by column.
    Only when a check fails is the file read again line by line, to name the
    first offending line.
    """
    try:
        with open(path, "r", encoding="utf-8") as f:
            parts = [_columns([(obj["ts_s"], obj["vantage"], obj["slot"], obj["attempt"],
                                obj["outcome"], obj.get("latency_ms"), obj.get("reason"))
                               for obj in map(json.loads, filter(None, map(str.strip, chunk)))])
                     for chunk in iter(lambda: list(islice(f, _CHUNK)), [])]
        log = AttemptLog.concat(parts) if parts else _columns([])
        order = np.argsort(log.vantage, kind="stable")
        vantage, ts = log.vantage[order], log.ts_s[order]
        if np.any((vantage[1:] == vantage[:-1]) & (ts[1:] < ts[:-1])):
            raise ValueError("ts_s decreases")
    except (KeyError, TypeError, ValueError, OverflowError):
        raise _first_error(path) from None
    return log


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
