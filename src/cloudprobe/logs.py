"""JSONL attempt-log and ground-truth file formats.

Attempt log: one record per line with fields ts_s, vantage, slot, attempt,
outcome, plus optional latency_ms and reason. A file is valid when ts_s is
nondecreasing per vantage. _chunk_text alone writes lines, simulated and live:
JSON with no spaces, keys in that order, latency_ms and reason left out when
absent, as numpy bytes, integers by int64 digit arithmetic. It fills a byte
matrix, 8,192 records at a time, a block of columns per field; a float that is
integral, finite, not -0.0 and below 2**53 in magnitude is its digits and ".0"
(as repr gives it), and any other float is repr()'s own text.

The writer also leaves <log>.cols beside the log, a column sidecar: a header
(magic and version, the log's byte length, its sha256 and the record count),
then the seven columns in AttemptLog's field order as little-endian arrays. A
log is read in one of two ways. The columns come from the sidecar, without
parsing the log, only when its length equals the log's size, its sha256 equals
that of the log's bytes, the columns load whole and they keep every per-record
rule and the per-vantage ts_s order. Otherwise the file is read once, in
blocks that end at a line end, each decoded and split as a file read as text
is (a line ends at "\\n", "\\r\\n" or a lone "\\r"), each line read by
json.loads. A block is checked whole, its ts_s order carried on from each
vantage's last record before it; only a block that fails is gone through line
by line, to name its first bad line. So the sidecar is never trusted for a log
it was not written with, and deleting it changes nothing but the time a read
takes. The live prober appends and writes none: an old one no longer matches
the log, so is never read. Truth file: start_s, duration_s, cause per line.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import struct
from itertools import repeat

import numpy as np

from .model import (_COLUMNS, CAUSES, CLOUD, FAIL_REASONS, OUTCOMES, AttemptLog, DataError,
                    MalformedLogError, Timeline, row_fault)

_OUTCOME_CODES = {name: code for code, name in enumerate(OUTCOMES)}
_REASON_CODES = {None: -1, **{name: code for code, name in enumerate(FAIL_REASONS)}}
_CHUNK = 1 << 13  # records per write
# bytes per read, then up to the next line end, so the whole text is never held at once
_BLOCK = 1 << 19
# the per-record rules, which a parse and a sidecar both keep: a column, which of its
# values keep the rule, and what the field must be
_RULES = (("ts_s", lambda ts: (0 <= ts) & (ts < math.inf), "finite and >= 0"),
          ("vantage", lambda vantage: vantage >= 0, ">= 0"),
          ("slot", lambda slot: slot >= 0, ">= 0"), ("attempt", lambda n: n >= 1, ">= 1"),
          ("outcome", lambda code: (0 <= code) & (code < len(OUTCOMES)),
           "one of " + ", ".join(OUTCOMES)),
          ("reason", lambda code: (-1 <= code) & (code < len(FAIL_REASONS)),
           "one of " + ", ".join(FAIL_REASONS)),
          ("latency_ms", lambda ms: ~np.isinf(ms), "finite"))
# what a malformed line raises; json raises RecursionError on a line nested too deep
_ERRORS = (KeyError, TypeError, ValueError, OverflowError, RecursionError)
# the keys in a line's order, each with the punctuation before its value
_KEYS = (b'{"ts_s":', b',"vantage":', b',"slot":', b',"attempt":', b',"outcome":')
_LATENCY = b',"latency_ms":'
# the column sidecar's header: magic, version, log bytes, log sha256, records
_HEADER = struct.Struct("<8sQQ32sQ")
_MAGIC, _VERSION = b"CPCOLS\r\n", 1
_DTYPES = [np.dtype(dtype).newbyteorder("<") for dtype in _COLUMNS.values()]
_ROW_BYTES = sum(dtype.itemsize for dtype in _DTYPES)


def _text(key: bytes, rows: int):
    """The bytes of key as a broadcast block of rows rows."""
    return np.broadcast_to(np.frombuffer(key, np.uint8), (rows, len(key)))


def _int_block(values):
    """Each int64 as str() writes it, a row each: a "-" column, then the digits."""
    neg = values < 0
    rest = np.where(neg, ~values, values).astype(np.uint64) + neg  # |v|, for -2**63 too
    width = len(str(int(rest.max(initial=0))))
    block = np.zeros((len(values), width + 1), np.uint8)
    block[:, 0] = neg * ord("-")
    for j in range(width, 0, -1):  # the last digit first; a leading zero stays 0
        quotient = rest // 10
        block[:, j] = (rest - quotient * 10 + ord("0")) * ((rest > 0) | (j == width))
        rest = quotient
    return block


def _float_block(values, written=True):
    """Each written float as repr() writes it (D.0 by _int_block where repr gives
    that), a row each; the other rows and unused bytes are 0."""
    fast = written & ((np.abs(values) < 2.0 ** 53) & (np.floor(values) == values)
                      & ((values != 0) | ~np.signbit(values)))
    block = np.hstack((_int_block(np.where(fast, values, 0).astype(np.int64)),
                       _text(b".0", len(values)))) * fast[:, None]
    rows = np.flatnonzero(written & ~fast)
    if len(rows):
        tokens = np.array(list(map(repr, values[rows].tolist())), "S")
        block = np.hstack((block, np.zeros((len(values), tokens.itemsize), np.uint8)))
        block[rows, -tokens.itemsize:] = tokens.view(np.uint8).reshape(len(rows), -1)
    return block


_OUTCOME_TEXT, _REASON_TEXT = (  # the reason row for code -1, the last, is empty
    np.array(names, "S").view(np.uint8).reshape(len(names), -1)
    for names in ([f'"{o}"' for o in OUTCOMES], [f',"reason":"{r}"' for r in FAIL_REASONS] + [""]))


def _chunk_text(log: AttemptLog) -> bytes:
    """The log's lines: the bytes that are not 0 (JSON text holds none) of a
    matrix of a row per record and a block per field."""
    rows = len(log)
    blocks = [_text(_KEYS[0], rows), _float_block(log.ts_s)]
    for key, column in zip(_KEYS[1:4], (log.vantage, log.slot, log.attempt)):
        blocks += [_text(key, rows), _int_block(column)]
    blocks += [_text(_KEYS[4], rows), _OUTCOME_TEXT[log.outcome]]
    has = ~np.isnan(log.latency_ms)
    if has.any():  # the key and value, 0 where there is no latency
        blocks += [_text(_LATENCY, rows) * has[:, None], _float_block(log.latency_ms, has)]
    blocks += [_REASON_TEXT[log.reason], _text(b"}\n", rows)]
    matrix = np.hstack(blocks)
    return matrix[matrix != 0].tobytes()


def sidecar_path(path) -> str:
    """Where the column sidecar of the attempt log at path goes."""
    return f"{path}.cols"


@contextlib.contextmanager
def _replacing(path):
    """path.tmp, open to write bytes, which replaces path if the block ends without error."""
    tmp = f"{path}.tmp"
    try:
        with open(tmp, "wb") as f:
            yield f
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def write_attempt_log(path, log: AttemptLog) -> None:
    """Write the log, a chunk at a time, and then its column sidecar, each to a
    temporary file in the same directory. The log's replaces path first, then the
    sidecar's replaces the old sidecar, so a failure part-way leaves path as it
    was; an old sidecar left beside a new log does not match it, so is not read."""
    digest, size = hashlib.sha256(), 0
    with _replacing(sidecar_path(path)) as cols, _replacing(path) as f:  # path is replaced first
        for lo in range(0, len(log), _CHUNK):
            text = _chunk_text(log[lo:lo + _CHUNK])
            digest.update(text)
            size += f.write(text)
        cols.write(_HEADER.pack(_MAGIC, _VERSION, size, digest.digest(), len(log)))
        for name, dtype in zip(_COLUMNS, _DTYPES):
            np.asarray(getattr(log, name), dtype).tofile(cols)


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


def encode(rows) -> bytes:
    """The lines of rows, each (ts_s, vantage, slot, attempt, outcome, latency_ms,
    reason) as a line holds it, once each record keeps the rules a read checks."""
    return _chunk_text(_from_rows(rows))


def _from_rows(rows) -> AttemptLog:
    """The rows, as encode takes them, as a log. Every per-record rule is checked
    here: the first record to break one raises one of _ERRORS, naming the field."""
    fields = dict(zip(_COLUMNS, zip(*rows) if rows else ((),) * 7))
    ts, vantage, slot, attempt, outcome, latency, reason = fields.values()
    n = len(rows)
    # vantage, slot and attempt are compared, sorted and matched exactly, so never truncated
    for name, values, types, rule in (
            ("ts_s", ts, {int, float}, "a number"),
            ("vantage", vantage, {int}, "an integer"), ("slot", slot, {int}, "an integer"),
            ("attempt", attempt, {int}, "an integer"),
            ("latency_ms", latency, {int, float, type(None)}, "a number")):
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
    for name, keeps, rule in _RULES:
        _require(keeps(getattr(log, name)), fields[name], name, rule)
    # a JSON NaN, which a sidecar cannot hold apart from a missing latency
    if np.count_nonzero(np.isnan(log.latency_ms)) > latency.count(None):
        _require(np.array([x is None or math.isfinite(x) for x in latency]), latency,
                 "latency_ms", "finite")
    return log


def _parse(text: bytes) -> AttemptLog:
    """The lines of text (UTF-8) as a log: decoded and split as a file read as
    text would be, each non-blank line read by json.loads."""
    lines = filter(None, map(str.strip, io.StringIO(text.decode("utf-8"), newline=None)))
    return _from_rows([(obj["ts_s"], obj["vantage"], obj["slot"], obj["attempt"],
                        obj["outcome"], obj.get("latency_ms"), obj.get("reason"))
                       for obj in map(json.loads, lines)])


def _blocks(f):
    """The bytes of f (a binary file) in blocks of _BLOCK bytes and up to the next
    line end, so that no line is cut and the whole text is never held at once."""
    return iter(lambda: f.read(_BLOCK) + f.readline(), b"")


def _in_order(log: AttemptLog) -> bool:
    """Whether ts_s is nondecreasing within each vantage: at once if it is
    nondecreasing over the whole log, as a simulated or live log is."""
    if np.all(log.ts_s[1:] >= log.ts_s[:-1]):
        return True
    order = np.argsort(log.vantage, kind="stable")
    vantage, ts = log.vantage[order], log.ts_s[order]
    return not np.any((vantage[1:] == vantage[:-1]) & (ts[1:] < ts[:-1]))


def _last_records(log: AttemptLog) -> AttemptLog:
    """Each vantage's last record, in the log's order."""
    _, from_end = np.unique(log.vantage[::-1], return_index=True)
    return log[np.sort(len(log) - 1 - from_end)]


def _bad_line(path, block: bytes, first: int, last: AttemptLog) -> MalformedLogError:
    """The error naming the first line of block (the first numbered first) that _parse
    rejects or whose ts_s decreases after last, each vantage's last record before it."""
    for number, text in enumerate(block.splitlines(), first):
        try:
            log = AttemptLog.concat([last, _parse(text)])
        except _ERRORS as exc:
            return MalformedLogError(None, None, str(exc), path, number)
        if not _in_order(log):  # a line holds one record, the log's last
            ts, vantage, slot = log.ts_s[-1].item(), int(log.vantage[-1]), int(log.slot[-1])
            return MalformedLogError(vantage, slot, f"ts_s {ts} decreases (line {number})", path)
        last = _last_records(log)


def _from_sidecar(path, digest) -> tuple[AttemptLog | None, bool]:
    """The log's columns from its sidecar, when the sidecar was written for
    exactly the bytes at path and its columns keep every per-record rule and the
    per-vantage ts_s order that a parse checks; else None. With them, whether the
    log's bytes were fed to digest, a new sha256, for the check."""
    try:
        with open(sidecar_path(path), "rb") as f:
            magic, version, size, sha, rows = _HEADER.unpack(f.read(_HEADER.size))
            if ((magic, version, size) != (_MAGIC, _VERSION, os.stat(path).st_size)
                    or os.fstat(f.fileno()).st_size != _HEADER.size + rows * _ROW_BYTES):
                return None, False  # checked before the log is hashed
            columns = [np.fromfile(f, dtype, rows) for dtype in _DTYPES]
    except (OSError, struct.error):
        return None, False
    # not in the try: a read error part-way leaves digest part-fed, so it must not fall back
    if _sha256(path, digest).digest() != sha or any(len(column) != rows for column in columns):
        return None, True
    columns[5][np.isnan(columns[5])] = np.nan  # latency_ms, as a parse gives it, for none
    log = AttemptLog(*columns)
    ok = all(keeps(getattr(log, name)).all() for name, keeps, _ in _RULES) and _in_order(log)
    return (log if ok else None), True


def read_attempt_log(path, digest=None) -> AttemptLog:
    """Parse an attempt log; enforces nondecreasing ts_s per vantage.

    The columns come from the log's sidecar when it matches the log (see the
    module docstring). Otherwise the file is read once, in blocks. Each block is
    parsed into columns, checked column by column, and checked for ts_s order
    after each vantage's last record in the blocks before it. Only a block that
    fails is gone through line by line, to name its first offending line.

    digest, a new hashlib.sha256() if given, is fed the log's bytes once: by the
    sidecar's check when that hashes them, else block by block as they are parsed.
    """
    log, hashed = _from_sidecar(path, hashlib.sha256() if digest is None else digest)
    if log is not None:
        return log
    parts, first, last = [], 1, _from_rows([])
    with open(path, "rb") as f:
        blocks = _blocks(f)
        if digest is not None and not hashed:  # hashed as read, a block at a time
            blocks = (digest.update(block) or block for block in blocks)
        for block in blocks:
            try:
                log = AttemptLog.concat([last, _parse(block)])
            except _ERRORS:
                log = None
            if log is None or not _in_order(log):
                raise _bad_line(path, block, first, last)
            parts.append(log[len(last):])
            last = _last_records(log)
            # the lines as a text read splits them, counted by their ends, none built
            first += block.count(b"\n") + block.count(b"\r") - block.count(b"\r\n")
    return AttemptLog.concat(parts) if parts else _from_rows([])


def write_truth(path, timeline: Timeline) -> None:
    with _replacing(path) as f:
        for start, duration, cause in zip(timeline.start_s.tolist(), timeline.duration_s.tolist(),
                                          timeline.cause.tolist()):
            f.write(json.dumps({"start_s": start, "duration_s": duration, "cause": CAUSES[cause]},
                               separators=(",", ":")).encode() + b"\n")


def read_truth(path, horizon_s: float) -> Timeline:
    """The ground-truth outages over the campaign's horizon, which the file does
    not hold. A bad line, an overlap or an overrun raises DataError."""
    rows, error = [], None
    with open(path, "rb") as f:
        for lineno, line in enumerate(f.read().splitlines(), start=1):
            try:
                line = line.decode("utf-8").strip()
                if not line:
                    continue
                obj = json.loads(line)
                row = obj["start_s"], obj["duration_s"], obj.get("cause", CLOUD)
                for name, value in zip(("start_s", "duration_s"), row):
                    if type(value) not in (int, float):
                        raise ValueError(f"{name} must be a number, got {value!r}")
                if row[2] not in CAUSES:
                    raise ValueError(f"cause must be one of {', '.join(CAUSES)}, got {row[2]!r}")
                rows.append((lineno, float(row[0]), float(row[1]), CAUSES.index(row[2])))
            except _ERRORS as exc:
                error = lineno, exc
                break
    lines, *columns = zip(*rows) if rows else ((),) * 4
    start, duration, cause = map(np.array, columns, (np.float64, np.float64, np.int8))
    if fault := row_fault(start, duration, cause):  # on a line before any parse error
        error = lines[fault[0]], fault[1]
    if error:
        raise DataError(f"truth file {path} line {error[0]}: {error[1]}")
    try:
        return Timeline(horizon_s, start, duration, cause)
    except ValueError as exc:
        raise DataError(f"truth file {path}: {exc}") from exc


def _sha256(path, digest):
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            digest.update(chunk)
    return digest


def sha256_file(path) -> str:
    return _sha256(path, hashlib.sha256()).hexdigest()
