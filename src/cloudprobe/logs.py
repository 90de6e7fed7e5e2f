"""JSONL attempt-log and ground-truth file formats.

Attempt log: one record per line with fields ts_s, vantage, slot, attempt,
outcome, plus optional latency_ms and reason. A file is valid when ts_s is
nondecreasing per vantage. A line in the exact form attempt_line writes is
read by a fast path; any other valid JSON line is read to the same values by
the general path, only slower. Truth file: start_s, duration_s, cause per line.
"""
from __future__ import annotations

import hashlib
import json
import math
import re
from itertools import islice, repeat

import numpy as np

from .model import (CAUSES, CLOUD, FAIL_REASONS, OUTCOMES, AttemptLog, MalformedLogError,
                    OutageEvent, Timeline)

_OUTCOME_CODES = {name: code for code, name in enumerate(OUTCOMES)}
_REASON_CODES = {None: -1, **{name: code for code, name in enumerate(FAIL_REASONS)}}
_CHUNK = 1 << 13  # lines per read or write, so the whole text is never held at once
_ERRORS = (KeyError, TypeError, ValueError, OverflowError)  # what a malformed line raises
# attempt_line's exact form, by the JSON number grammar: a float has a fraction or an
# exponent, and an integer has at most 18 digits, so it fits in 64 bits
_INT = r"(-?(?:0|[1-9][0-9]{0,17}))"
_FLOAT = r"(-?(?:0|[1-9][0-9]*)(?:\.[0-9]+(?:[eE][-+]?[0-9]+|)|[eE][-+]?[0-9]+))"
_LINE = re.compile(rf'^\{{"ts_s":{_FLOAT},"vantage":{_INT},"slot":{_INT},"attempt":{_INT},'
                   rf'"outcome":"([a-z_]+)"(?:,"latency_ms":{_FLOAT}|)(?:,"reason":"([a-z]+)"|)'
                   r'\}$', re.M)


def attempt_line(ts_s, vantage, slot, attempt, outcome, latency_ms=None, reason=None) -> str:
    """One record's line as json.dumps writes it, newline included; latency_ms
    (written as a float) and reason are left out when None."""
    line = (f'{{"ts_s":{ts_s!r},"vantage":{vantage},"slot":{slot},"attempt":{attempt},'
            f'"outcome":"{outcome}"')
    if latency_ms is not None:
        line += f',"latency_ms":{float(latency_ms)!r}'
    if reason is not None:
        line += f',"reason":"{reason}"'
    return line + "}\n"


def _lines(log: AttemptLog):
    """Each record's line, a NaN latency_ms and a reason of -1 left out."""
    latency = log.latency_ms.astype(object)
    latency[np.isnan(log.latency_ms)] = None
    reasons = (*FAIL_REASONS, None)  # code -1 is None
    return map(attempt_line, log.ts_s.tolist(), log.vantage.tolist(), log.slot.tolist(),
               log.attempt.tolist(), map(OUTCOMES.__getitem__, log.outcome.tolist()),
               latency.tolist(), map(reasons.__getitem__, log.reason.tolist()))


def write_attempt_log(path, log: AttemptLog) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for lo in range(0, len(log), _CHUNK):
            f.write("".join(_lines(log[lo:lo + _CHUNK])))


def _named(name, make, *args):
    """make(*args), with an error naming the field."""
    try:
        return make(*args)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{name}: {exc}") from None


def _require(ok, values, name, rule) -> None:
    """Raise naming the field and the first of its values for which ok is false."""
    if not ok.all():
        raise ValueError(f"{name} must be {rule}, got {values[int(np.argmin(ok))]!r}")


def _values(lines):
    """The seven value sequences of the non-blank lines (as a file yields them), as json
    reads them: by one regex if every line is in attempt_line's exact form, else by json."""
    found = _LINE.findall("".join(lines))
    if found and len(found) == len(lines):
        ts, vantage, slot, attempt, outcome, latency, reason = zip(*found)
        return (list(map(float, ts)), *(list(map(int, c)) for c in (vantage, slot, attempt)),
                outcome, [float(x) if x else None for x in latency], [x or None for x in reason])
    rows = [(obj["ts_s"], obj["vantage"], obj["slot"], obj["attempt"], obj["outcome"],
             obj.get("latency_ms"), obj.get("reason"))
            for obj in map(json.loads, filter(None, map(str.strip, lines)))]
    return tuple(zip(*rows)) if rows else ((),) * 7


def _columns(lines) -> AttemptLog:
    """The non-blank lines as a log. Every per-record rule is checked here: the
    first record to break one raises one of _ERRORS, naming the field."""
    ts, vantage, slot, attempt, outcome, latency, reason = _values(lines)
    n = len(ts)
    # vantage, slot and attempt are compared, sorted and matched exactly, so never truncated
    for name, values, types, rule in (
            ("ts_s", ts, {int, float}, "a number"),
            ("vantage", vantage, {int}, "an integer"), ("slot", slot, {int}, "an integer"),
            ("attempt", attempt, {int}, "an integer"),
            ("latency_ms", latency, {int, float, bool, type(None)}, "a number")):
        if not set(map(type, values)) <= types:
            _require(np.array([type(v) in types for v in values]), values, name, rule)
    log = AttemptLog(
        ts_s=_named("ts_s", np.fromiter, map(float, ts), np.float64, n),
        vantage=_named("vantage", np.fromiter, vantage, np.int64, n),
        slot=_named("slot", np.fromiter, slot, np.int64, n),
        attempt=_named("attempt", np.fromiter, attempt, np.int64, n),
        outcome=_named("outcome", np.fromiter, map(_OUTCOME_CODES.get, outcome, repeat(-1)),
                       np.int8, n),
        latency_ms=_named("latency_ms", np.array, latency, np.float64),  # None becomes NaN
        reason=_named("reason", np.fromiter, map(_REASON_CODES.get, reason, repeat(-2)),
                      np.int8, n))
    _require((0 <= log.ts_s) & (log.ts_s < math.inf), ts, "ts_s", "finite and >= 0")
    _require(log.slot >= 0, slot, "slot", ">= 0")
    _require(log.attempt >= 1, attempt, "attempt", ">= 1")
    _require(log.outcome >= 0, outcome, "outcome", "one of " + ", ".join(OUTCOMES))
    _require(log.reason >= -1, reason, "reason", "one of " + ", ".join(FAIL_REASONS))
    if np.count_nonzero(~np.isfinite(log.latency_ms)) > latency.count(None):
        _require(np.array([x is None or math.isfinite(x) for x in latency]), latency,
                 "latency_ms", "finite")
    return log


def _decoded(line: str) -> str:
    """A line read with errors="surrogateescape", decoded strictly, so that
    bytes that are not UTF-8 raise on their own line."""
    return line.encode("utf-8", "surrogateescape").decode("utf-8")


def _first_error(pieces, first: int, last_ts: dict) -> MalformedLogError | None:
    """The first line among the pieces (lists of lines numbered from first) that
    _columns rejects or whose ts_s decreases, carrying each vantage's last ts_s in
    last_ts. Only a piece that fails as a whole is gone into, in smaller pieces.
    None if no line is malformed (the file changed since it was read)."""
    for piece in pieces:
        after, error = dict(last_ts), None
        try:
            log = _columns(list(map(_decoded, piece)))
        except _ERRORS as exc:
            error = MalformedLogError("?", f"line {first}", str(exc))
        else:
            for ts, vantage, slot in zip(log.ts_s.tolist(), log.vantage.tolist(),
                                         log.slot.tolist()):
                if ts < after.get(vantage, ts):
                    error = MalformedLogError(vantage, slot, f"ts_s {ts} decreases (line {first})")
                    break
                after[vantage] = ts
        if error:
            step = len(piece) // 128 or 1
            return error if len(piece) == 1 else _first_error(
                [piece[i:i + step] for i in range(0, len(piece), step)], first, last_ts)
        last_ts.update(after)
        first += len(piece)
    return None


def read_attempt_log(path) -> AttemptLog:
    """Parse an attempt log; enforces nondecreasing ts_s per vantage.

    Lines are parsed in chunks into columns and checked column by column.
    Only when a check fails is the file read again, to name the first
    offending line, and line by line only inside the chunk that fails.
    """
    try:
        with open(path, "r", encoding="utf-8") as f:
            parts = [_columns(chunk) for chunk in iter(lambda: list(islice(f, _CHUNK)), [])]
        log = AttemptLog.concat(parts) if parts else _columns([])
        order = np.argsort(log.vantage, kind="stable")
        vantage, ts = log.vantage[order], log.ts_s[order]
        if np.any((vantage[1:] == vantage[:-1]) & (ts[1:] < ts[:-1])):
            raise ValueError("ts_s decreases")
    except _ERRORS as exc:
        with open(path, "r", encoding="utf-8", errors="surrogateescape") as f:
            error = _first_error(iter(lambda: list(islice(f, _CHUNK)), []), 1, {})
        raise error or MalformedLogError("?", "?", str(exc)) from None
    return log


def write_truth(path, timeline: Timeline) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for start, duration, cause in zip(timeline.start_s.tolist(), timeline.duration_s.tolist(),
                                          timeline.cause.tolist()):
            f.write(json.dumps({"start_s": start, "duration_s": duration, "cause": CAUSES[cause]},
                               separators=(",", ":")) + "\n")


def read_truth(path) -> tuple[OutageEvent, ...]:
    """Ground-truth events only; the horizon comes from the campaign config."""
    events = []
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as f:
        for lineno, line in enumerate(map(str.strip, f), start=1):
            if not line:
                continue
            try:
                obj = json.loads(_decoded(line))
                start, duration = obj["start_s"], obj["duration_s"]
                for name, value in (("start_s", start), ("duration_s", duration)):
                    if type(value) not in (int, float):
                        raise ValueError(f"{name} must be a number, got {value!r}")
                events.append(OutageEvent(float(start), float(duration), obj.get("cause", CLOUD)))
            except _ERRORS as exc:
                raise MalformedLogError("?", f"line {lineno}", str(exc)) from exc
    return tuple(events)


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()
