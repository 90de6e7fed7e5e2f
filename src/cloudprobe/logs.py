"""JSONL attempt-log and ground-truth file formats.

Attempt log: one record per line with fields ts_s, vantage, slot, attempt,
outcome, plus optional latency_ms and reason. A file is valid when ts_s is
nondecreasing per vantage. Lines are written, and read where they can be, in
attempt_line's exact form as numpy bytes, integers by int64 digit arithmetic.
The writer fills a byte matrix, 8,192 records at a time, a block of columns per
field; a float that is integral, finite, not -0.0 and below 2**53 in magnitude
is its digits and ".0" (as repr gives it), and any other float is repr()'s own
text. The reader takes the file's bytes in blocks that end at a line end,
scans a block for its line ends and colons, checks each key where it must end
(at a colon), and reads a float -?D+.D+ of at most 18 digits, 15 of them
significant, as one division of two exact doubles, which rounds as float()
does; any other float is checked against the JSON number grammar and read by
float(). A block with any other line, or a line breaking a per-record rule, is
decoded and read by json.loads, line by line, to the same values, a line
ending at "\\n", "\\r\\n" or a lone "\\r" as in a file read as text.

The writer also leaves <log>.cols beside the log, a column sidecar: a header
(magic and version, the log's byte length, its sha256 and the record count),
then the seven columns in AttemptLog's field order as little-endian arrays.
The reader takes the columns from it, without parsing the log, only when its
length equals the log's size, its sha256 equals that of the log's bytes, the
columns load whole and they keep every per-record rule and the per-vantage
ts_s order; in any other case it parses the log as above. So the sidecar is
never trusted for a log it was not written with, and deleting it changes
nothing but the time a read takes. A log appended to (the live prober's) has
none. Truth file: start_s, duration_s, cause per line.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import re
import struct
from itertools import repeat

import numpy as np

from .model import (_COLUMNS, CAUSES, CLOUD, FAIL_REASONS, OUTCOMES, AttemptLog, DataError,
                    MalformedLogError, Timeline, row_fault)

_OUTCOME_CODES = {name: code for code, name in enumerate(OUTCOMES)}
_REASON_CODES = {None: -1, **{name: code for code, name in enumerate(FAIL_REASONS)}}
_CHUNK = 1 << 13  # records per write, and lines per read when an error is located
# bytes per read, then up to the next line end, so the whole text is never held at once;
# a block holds about as many lines as a chunk (8,322 of the shortest scanned form, 63 bytes)
_BLOCK = 1 << 19
# what a malformed line raises; json raises RecursionError on a line nested too deep
_ERRORS = (KeyError, TypeError, ValueError, OverflowError, RecursionError)
# attempt_line's exact form: these keys in this order, each ending at a colon, an
# integer of at most 18 digits (so it fits in 64 bits) and a float by the JSON number
# grammar with a fraction or an exponent
_KEYS = (b'{"ts_s":', b',"vantage":', b',"slot":', b',"attempt":', b',"outcome":')
_LATENCY, _REASON = b',"latency_ms":', b',"reason":'
_FLOAT = re.compile(rb"-?(?:0|[1-9][0-9]*)(?:\.[0-9]+(?:[eE][-+]?[0-9]+)?|[eE][-+]?[0-9]+)")
_POW10_F = np.array([float(10 ** k) for k in range(18)])  # exact doubles, as 5**17 < 2**53
_PAD = 32  # zero bytes around a chunk, so that every key or token read stays inside
# the column sidecar's header: magic, version, log bytes, log sha256, records
_HEADER = struct.Struct("<8sQQ32sQ")
_MAGIC, _VERSION = b"CPCOLS\r\n", 1
_DTYPES = [np.dtype(dtype).newbyteorder("<") for dtype in _COLUMNS.values()]
_ROW_BYTES = sum(dtype.itemsize for dtype in _DTYPES)


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
    """The log's lines as attempt_line writes them: the bytes that are not 0 (JSON
    text holds none) of a matrix of a row per record and a block per field."""
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


def write_attempt_log(path, log: AttemptLog) -> None:
    """Write the log, a chunk at a time, and then its column sidecar, each to a
    temporary file in the same directory. The log's replaces path first, then the
    sidecar's replaces the old sidecar, so a failure part-way leaves path as it
    was; an old sidecar left beside a new log does not match it, so is not read."""
    tmp, cols = f"{path}.tmp", sidecar_path(path)
    cols_tmp = f"{cols}.tmp"
    digest, size = hashlib.sha256(), 0
    try:
        with open(tmp, "wb") as f:
            for lo in range(0, len(log), _CHUNK):
                text = _chunk_text(log[lo:lo + _CHUNK])
                digest.update(text)
                size += f.write(text)
        with open(cols_tmp, "wb") as f:
            f.write(_HEADER.pack(_MAGIC, _VERSION, size, digest.digest(), len(log)))
            for name, dtype in zip(_COLUMNS, _DTYPES):
                np.asarray(getattr(log, name), dtype).tofile(f)
        os.replace(tmp, path)
        os.replace(cols_tmp, cols)
    finally:
        for leftover in (tmp, cols_tmp):
            if os.path.exists(leftover):
                os.remove(leftover)


def open_to_append(path):
    """The attempt log at path opened as text to append lines to, its column
    sidecar removed first, as it would no longer describe the log."""
    with contextlib.suppress(FileNotFoundError):
        os.remove(sidecar_path(path))
    return open(path, "a", encoding="utf-8")


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


def _ends_with(words, end, text):
    """Whether the bytes before each end are text (8 to 16 bytes): its first and last 8."""
    head, tail = np.frombuffer(text[:8] + text[-8:], "<u8")
    match = words[end - 8] == tail
    return match & (words[end - len(text)] == head) if len(text) > 8 else match


def _digits(buf, lo, hi, width):
    """The tokens buf[lo:hi], read right-aligned in width columns: the int64 value of
    each one's digits by Horner's rule (exact up to 18 digits), its count of bytes that
    are not digits, and the column of the last of those (-1 if none)."""
    at = (hi - width) + np.arange(width)[:, None]
    digit = buf[at] - np.uint8(ord("0"))  # a byte that is not a digit wraps past 9
    inside = at >= lo
    is_digit = inside & (digit <= 9)
    other = inside & ~is_digit
    value = np.zeros(len(lo), np.int64)
    for j in range(width):
        value = np.where(is_digit[j], value * 10 + digit[j], value)
    return value, other.sum(axis=0), np.where(other, np.arange(width)[:, None], -1).max(axis=0)


def _ints(buf, lo, hi):
    """The int64 values of the tokens buf[lo:hi], and whether each is -?(0|[1-9][0-9]{0,17})."""
    length = hi - lo
    value, others, _ = _digits(buf, lo, hi, int(np.clip(length.max(), 1, 19)))
    neg = buf[lo] == ord("-")
    count = length - neg
    ok = ((others == neg) & (1 <= count) & (count <= 18)
          & ((count == 1) | (buf[lo + neg] != ord("0"))))
    return np.where(neg, -value, value), ok


def _floats(buf, raw, lo, hi):
    """The float64 values of the tokens buf[lo:hi] as float() reads them, and whether
    each is a JSON number with a fraction or an exponent.

    A token -?(0|[1-9][0-9]*)\\.[0-9]+ of at most 18 digits, whose digits m form an
    integer below 10**15, is m / 10**decimals: both are exact doubles, so the one
    correctly rounded division gives what float() does. Any other token that is in
    the JSON grammar is read by float()."""
    length = hi - lo
    width = int(np.clip(length.max(), 1, 20))  # a sign, 18 digits and the point
    mantissa, others, last = _digits(buf, lo, hi, width)
    neg = buf[lo] == ord("-")
    point = hi - width + last
    decimals = hi - 1 - point
    before = point - lo - neg  # digits before the point
    decimal = ((length <= width) & (length - neg <= 19) & (others == 1 + neg)
               & (buf[point] == ord(".")) & (before >= 1) & (decimals >= 1)
               & ((before == 1) | (buf[lo + neg] != ord("0"))))
    exact = decimal & (mantissa < 10 ** 15)
    value = mantissa / _POW10_F[np.where(exact, decimals, 0)]
    value = np.where(neg, -value, value)
    if not exact.all():
        rows = np.flatnonzero(~exact)
        tokens = [raw[a:b] for a, b in zip(lo[rows].tolist(), hi[rows].tolist())]
        ok = [known or _FLOAT.fullmatch(token) is not None
              for known, token in zip(decimal[rows].tolist(), tokens)]
        value[rows] = [float(token) if good else 0.0 for token, good in zip(tokens, ok)]
        exact[rows] = ok
    return value, exact


def _codes(words, lo, hi, key, names):
    """Each token buf[lo:hi], which follows key, as its index in names, the token
    being a name in double quotes; -1 if it is none of them."""
    head, tail = words[lo], words[hi - 8]
    code = np.full(len(lo), -1, np.int8)
    for i, name in enumerate(names):
        quoted = f'"{name}"'.encode()
        want = (key + quoted)[-max(8, len(quoted)):]
        match = (hi - lo == len(quoted)) & (tail == np.frombuffer(want[-8:], "<u8")[0])
        if len(quoted) > 8:
            match &= head == np.frombuffer(want[:8], "<u8")[0]
        code[match] = i
    return code


def _scan(text: bytes) -> AttemptLog | None:
    """The lines of text as a log, by one scan of its bytes, if every line is in
    attempt_line's exact form (so ends at "\\n" and is ASCII) and keeps every
    per-record rule; else None. The last line may lack its newline."""
    if not text:
        return None
    raw = b"".join((bytes(_PAD), text, b"" if text.endswith(b"\n") else b"\n", bytes(_PAD)))
    buf = np.frombuffer(raw, np.uint8)
    words = np.ndarray((len(raw) - 7,), "<u8", raw, 0, (1,))  # the 8 bytes from each byte
    ends = np.flatnonzero(buf == ord("\n"))
    starts = np.concatenate(([_PAD], ends[:-1] + 1))
    colons = np.flatnonzero(buf == ord(":"))
    first = np.searchsorted(colons, starts)
    count = np.diff(first, append=len(colons))  # per line: one per key, 5 to 7
    if count.min() < 5 or count.max() > 7:
        return None
    # c[k] is each line's k-th colon; c[5] and c[6] only where the line has them
    c = np.append(colons, np.zeros(7, colons.dtype))[first + np.arange(7)[:, None]]
    close = ends - 1
    has_latency = (count > 5) & _ends_with(words, c[5] + 1, _LATENCY)
    reason_colon = np.where(has_latency, c[6], c[5])
    has_reason = (count > 5 + has_latency) & _ends_with(words, reason_colon + 1, _REASON)
    ok = ((count == 5 + has_latency + has_reason) & (buf[close] == ord("}"))
          & _ends_with(words, starts + len(_KEYS[0]), _KEYS[0]))
    for k in range(1, 5):
        ok &= _ends_with(words, c[k] + 1, _KEYS[k])
    if not ok.all():
        return None
    ts, ok = _floats(buf, raw, c[0] + 1, c[1] + 1 - len(_KEYS[1]))
    (vantage, v_ok), (slot, s_ok), (attempt, a_ok) = (
        _ints(buf, c[k] + 1, c[k + 1] + 1 - len(_KEYS[k + 1])) for k in (1, 2, 3))
    after = np.where(has_latency, c[5] + 1 - len(_LATENCY),
                     np.where(has_reason, c[5] + 1 - len(_REASON), close))
    outcome = _codes(words, c[4] + 1, after, _KEYS[4], OUTCOMES)
    ok &= (v_ok & s_ok & a_ok & (0 <= ts) & (ts < math.inf) & (slot >= 0) & (attempt >= 1)
           & (outcome >= 0))
    latency, reason = np.full(len(ends), np.nan), np.full(len(ends), -1, np.int8)
    if has_latency.any():
        rows = np.flatnonzero(has_latency)
        end = np.where(has_reason, c[6] + 1 - len(_REASON), close)[rows]
        latency[rows], exact = _floats(buf, raw, c[5, rows] + 1, end)
        ok[rows] &= exact & np.isfinite(latency[rows])
    if has_reason.any():
        rows = np.flatnonzero(has_reason)
        reason[rows] = _codes(words, reason_colon[rows] + 1, close[rows], _REASON, FAIL_REASONS)
        ok[rows] &= reason[rows] >= 0
    return AttemptLog(ts, vantage, slot, attempt, outcome, latency, reason) if ok.all() else None


def _columns(lines) -> AttemptLog:
    """The non-blank lines (str) as a log, each read by json.loads. Every
    per-record rule is checked here: the first record to break one raises one of
    _ERRORS, naming the field."""
    rows = [(obj["ts_s"], obj["vantage"], obj["slot"], obj["attempt"], obj["outcome"],
             obj.get("latency_ms"), obj.get("reason"))
            for obj in map(json.loads, filter(None, map(str.strip, lines)))]
    ts, vantage, slot, attempt, outcome, latency, reason = zip(*rows) if rows else ((),) * 7
    n = len(rows)
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


def _parse(text: bytes) -> AttemptLog:
    """The lines of text (UTF-8) as a log: by _scan, or else decoded and split
    as a file read as text would be, then by _columns."""
    log = _scan(text)
    return log if log is not None else _columns(io.StringIO(text.decode("utf-8"), newline=None))


def _blocks(f):
    """The bytes of f (a binary file) in blocks of _BLOCK bytes and up to the next
    line end, so that no line is cut and the whole text is never held at once."""
    return iter(lambda: f.read(_BLOCK) + f.readline(), b"")


def _first_error(path, pieces, first: int, last_ts: dict) -> MalformedLogError | None:
    """The first line among the pieces (lists of path's lines, as bytes, numbered
    from first) that _parse rejects or whose ts_s decreases, carrying each vantage's
    last ts_s in last_ts. Only a piece that fails as a whole is gone into, in
    smaller pieces. None if no line is malformed (the file changed since it was
    read)."""
    for piece in pieces:
        after, error = dict(last_ts), None
        try:
            log = _parse(b"".join(piece))
        except _ERRORS as exc:
            error = MalformedLogError(None, None, str(exc), path, first)
        else:
            for ts, vantage, slot in zip(log.ts_s.tolist(), log.vantage.tolist(),
                                         log.slot.tolist()):
                if ts < after.get(vantage, ts):
                    error = MalformedLogError(vantage, slot, f"ts_s {ts} decreases (line {first})",
                                              path)
                    break
                after[vantage] = ts
        if error:
            step = len(piece) // 128 or 1
            return error if len(piece) == 1 else _first_error(
                path, [piece[i:i + step] for i in range(0, len(piece), step)], first, last_ts)
        last_ts.update(after)
        first += len(piece)
    return None


def _in_order(log: AttemptLog) -> bool:
    """Whether ts_s is nondecreasing within each vantage: at once if it is
    nondecreasing over the whole log, as a simulated or live log is."""
    if np.all(log.ts_s[1:] >= log.ts_s[:-1]):
        return True
    order = np.argsort(log.vantage, kind="stable")
    vantage, ts = log.vantage[order], log.ts_s[order]
    return not np.any((vantage[1:] == vantage[:-1]) & (ts[1:] < ts[:-1]))


def _from_sidecar(path) -> AttemptLog | None:
    """The log's columns from its sidecar, when the sidecar was written for
    exactly the bytes at path and its columns keep every per-record rule that
    _columns enforces and the per-vantage ts_s order; else None."""
    try:
        with open(sidecar_path(path), "rb") as f:
            magic, version, size, sha, rows = _HEADER.unpack(f.read(_HEADER.size))
            if (magic, version, size) != (_MAGIC, _VERSION, os.stat(path).st_size):
                return None  # checked before the log is hashed
            if (os.fstat(f.fileno()).st_size != _HEADER.size + rows * _ROW_BYTES
                    or _sha256(path).digest() != sha):
                return None
            columns = [np.fromfile(f, dtype, rows) for dtype in _DTYPES]
            if any(len(column) != rows for column in columns):
                return None
    except (OSError, struct.error):
        return None
    log = AttemptLog(*columns)
    log.latency_ms[np.isnan(log.latency_ms)] = np.nan  # as a parse gives it, for none
    ok = (np.all((0 <= log.ts_s) & (log.ts_s < math.inf)) and np.all(log.slot >= 0)
          and np.all(log.attempt >= 1) and np.all(log.outcome >= 0)
          and np.all(log.outcome < len(OUTCOMES)) and np.all(log.reason >= -1)
          and np.all(log.reason < len(FAIL_REASONS)) and not np.isinf(log.latency_ms).any())
    return log if ok and _in_order(log) else None


def read_attempt_log(path) -> AttemptLog:
    """Parse an attempt log; enforces nondecreasing ts_s per vantage.

    The columns come from the log's sidecar when it matches the log (see the
    module docstring). Otherwise the bytes are parsed in blocks into columns and
    checked column by column. Only when a check fails are the blocks read again
    and cut into chunks of lines, to name the first offending line, line by line
    only in the failing chunk.
    """
    log = _from_sidecar(path)
    if log is not None:
        return log
    try:
        with open(path, "rb") as f:
            parts = [_parse(block) for block in _blocks(f)]
        log = AttemptLog.concat(parts) if parts else _columns([])
        if not _in_order(log):
            raise ValueError("ts_s decreases")
    except _ERRORS as exc:
        with open(path, "rb") as f:
            blocks = (block.splitlines(True) for block in _blocks(f))  # universal newlines
            error = _first_error(path, (lines[i:i + _CHUNK] for lines in blocks
                                        for i in range(0, len(lines), _CHUNK)), 1, {})
        raise error or MalformedLogError(None, None, str(exc), path) from None
    return log


def write_truth(path, timeline: Timeline) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for start, duration, cause in zip(timeline.start_s.tolist(), timeline.duration_s.tolist(),
                                          timeline.cause.tolist()):
            f.write(json.dumps({"start_s": start, "duration_s": duration, "cause": CAUSES[cause]},
                               separators=(",", ":")) + "\n")


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


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h


def sha256_file(path) -> str:
    return _sha256(path).hexdigest()
