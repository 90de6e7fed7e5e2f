"""The attempt-log reader against a per-line reference reader.

reference_read reads the file one line at a time: json.loads on each line of
the file read as text, the per-record rules, then ts_s nondecreasing per
vantage, with the file and the first bad line in file order named in the error.
read_attempt_log must give the same column bytes, or the same exception type
and message, for every input and at every block size. The column sidecar must
read to what the log parses to, and be passed over whenever it does not match
its log.
"""
import dataclasses
import json
import math
import os
import shutil
from itertools import repeat
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from cloudprobe import logs
from cloudprobe.model import (_COLUMNS, FAIL, FAIL_REASONS, OUTCOMES, AttemptLog,
                              CampaignConfig, DataError, MalformedLogError, Timeline)
from cloudprobe.simulate import DurationDistribution, OutageProcess, generate_timeline, \
    sample_campaign

from conftest import Row, attempt_line, log_of, rows_of

COLUMNS = ("ts_s", "vantage", "slot", "attempt", "outcome", "latency_ms", "reason")
_ERRORS = (KeyError, TypeError, ValueError, OverflowError)
_OUTCOME_CODES = {name: code for code, name in enumerate(OUTCOMES)}
_REASON_CODES = {None: -1, **{name: code for code, name in enumerate(FAIL_REASONS)}}


def _named(name, make, *args):
    try:
        return make(*args)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"{name}: {exc}") from None


def _require(ok, values, name, rule):
    if not ok.all():
        raise ValueError(f"{name} must be {rule}, got {values[int(np.argmin(ok))]!r}")


def _reference_columns(lines) -> AttemptLog:
    rows = [(obj["ts_s"], obj["vantage"], obj["slot"], obj["attempt"], obj["outcome"],
             obj.get("latency_ms"), obj.get("reason"))
            for obj in map(json.loads, filter(None, map(str.strip, lines)))]
    ts, vantage, slot, attempt, outcome, latency, reason = zip(*rows) if rows else ((),) * 7
    n = len(rows)
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
        latency_ms=_named("latency_ms", np.array, latency, np.float64),
        reason=_named("reason", np.fromiter, map(_REASON_CODES.get, reason, repeat(-2)),
                      np.int8, n))
    _require((0 <= log.ts_s) & (log.ts_s < math.inf), ts, "ts_s", "finite and >= 0")
    _require(log.vantage >= 0, vantage, "vantage", ">= 0")
    _require(log.slot >= 0, slot, "slot", ">= 0")
    _require(log.attempt >= 1, attempt, "attempt", ">= 1")
    _require(log.outcome >= 0, outcome, "outcome", "one of " + ", ".join(OUTCOMES))
    _require(log.reason >= -1, reason, "reason", "one of " + ", ".join(FAIL_REASONS))
    if np.count_nonzero(~np.isfinite(log.latency_ms)) > latency.count(None):
        _require(np.array([x is None or math.isfinite(x) for x in latency]), latency,
                 "latency_ms", "finite")
    return log


def reference_read(path) -> AttemptLog:
    """One line at a time: decode, parse, check, then the per-vantage ts_s order."""
    rows, last_ts = [], {}
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as f:
        for lineno, line in enumerate(f, start=1):
            try:
                row = _reference_columns([line.encode("utf-8", "surrogateescape")
                                          .decode("utf-8")])
            except _ERRORS as exc:
                raise MalformedLogError(None, None, str(exc), path, lineno) from None
            for ts, vantage, slot in zip(row.ts_s.tolist(), row.vantage.tolist(),
                                         row.slot.tolist()):
                if ts < last_ts.get(vantage, ts):
                    raise MalformedLogError(vantage, slot, f"ts_s {ts} decreases (line {lineno})",
                                            path)
                last_ts[vantage] = ts
            rows.append(row)
    return AttemptLog.concat(rows) if rows else _reference_columns([])


def result_of(read, path):
    """The columns as (name, dtype, bytes), or the exception as (type, message)."""
    try:
        log = read(path)
    except Exception as exc:  # the type is part of what is compared
        return type(exc), str(exc)
    return [(name, getattr(log, name).dtype.str, getattr(log, name).tobytes())
            for name in COLUMNS]


def assert_same(path):
    expected = result_of(reference_read, path)
    assert result_of(logs.read_attempt_log, path) == expected
    return expected


def line(ts="0.0", vantage="0", slot="0", attempt="1", outcome='"success"', tail=""):
    """One record's line from raw JSON value texts, in attempt_line's key order."""
    return (f'{{"ts_s":{ts},"vantage":{vantage},"slot":{slot},"attempt":{attempt},'
            f'"outcome":{outcome}{tail}}}\n')


GOOD = line()
FAIL_LINE = line(ts="1.0", slot="1", outcome='"fail"', tail=',"latency_ms":12.5,"reason":"dns"')

# each case is a whole file; the reference decides what each must read to
CORPUS = {
    "good": GOOD + FAIL_LINE,
    "empty-file": "",
    "minus-zero-int": line(vantage="-0", slot="-0"),
    "minus-zero-attempt": line(attempt="-0"),
    "minus-zero-float": line(ts="-0.0", tail=',"latency_ms":-0.0'),
    "exponent-upper": line(ts="1E2") + line(ts="1.5E+3") + line(ts="2e-0"),
    "exponent-only": line(ts="1e-2", tail=',"latency_ms":5E1'),
    "int-ts": line(ts="5"),
    "float-ts": line(ts="5.0"),
    "int-latency": line(tail=',"latency_ms":5'),
    "float-latency": line(tail=',"latency_ms":5.0'),
    "int-negative-ts": line(ts="-5"),
    "float-negative-ts": line(ts="-5.0"),
    "digits-18": line(slot="999999999999999999", vantage="-999999999999999999"),
    "digits-19-fits": line(slot="9223372036854775807", vantage="-9223372036854775808"),
    "digits-19-over": line(slot="9223372036854775808"),
    "digits-19-negative-over": line(vantage="-9223372036854775809"),
    "digits-40": line(attempt="1" * 40),
    "ts-1e400": line(ts="1e400"),
    "ts-minus-1e400": line(ts="-1e400"),
    "latency-1e400": line(tail=',"latency_ms":1e400'),
    "ts-400-digits": line(ts="1" * 400),
    "ts-400-digits-fraction": line(ts="1" * 400 + ".0"),
    "ts-300-digits-fraction": line(ts="1" * 300 + ".5"),
    "ts-long-fraction": line(ts="0." + "3" * 400),
    "ts-true": line(ts="true"),
    "ts-false": line(ts="false"),
    "ts-null": line(ts="null"),
    "ts-string": line(ts='"5"'),
    "ts-string-spaces": line(ts='" 7 "'),
    "ts-string-then-bad-slot": line(ts='"5"', slot="-1"),
    "latency-true": line(tail=',"latency_ms":true'),
    "latency-false": line(tail=',"latency_ms":false'),
    "latency-null": line(tail=',"latency_ms":null'),
    "latency-string": line(tail=',"latency_ms":"1"'),
    "slot-true": line(slot="true"),
    "slot-float": line(slot="1.7"),
    "slot-exponent": line(slot="1e2"),
    "slot-null": line(slot="null"),
    "outcome-escaped": line(outcome='"succ\\u0065ss"'),
    "outcome-unknown": line(outcome='"x"'),
    "outcome-upper": line(outcome='"SUCCESS"'),
    "outcome-empty": line(outcome='""'),
    "outcome-list": line(outcome="[1]"),
    "outcome-number": line(outcome="1"),
    "reason-escaped": line(outcome='"fail"', tail=',"reason":"time\\u006fut"'),
    "reason-unknown": line(outcome='"fail"', tail=',"reason":"x"'),
    "reason-empty": line(outcome='"fail"', tail=',"reason":""'),
    "reason-null": line(outcome='"fail"', tail=',"reason":null'),
    "reason-without-latency": line(outcome='"fail"', tail=',"reason":"status"'),
    "reason-before-latency": line(outcome='"fail"', tail=',"reason":"dns","latency_ms":1.0'),
    "every-reason": "".join(line(ts=f"{i}.0", outcome='"fail"',
                                 tail=f',"latency_ms":{i}.5,"reason":"{r}"')
                            for i, r in enumerate(FAIL_REASONS)),
    "duplicate-key": line(ts="5.0", tail=',"ts_s":1.0'),
    "duplicate-key-order": line(ts="1.0") + line(ts="5.0", tail=',"ts_s":0.5'),
    "extra-key": line(tail=',"x":1'),
    "extra-key-first": '{"x":1,' + GOOD[1:],
    "key-order": '{"outcome":"success","ts_s":0.0,"vantage":0,"slot":0,"attempt":1}\n',
    "missing-key": '{"ts_s":0.0,"vantage":0,"slot":0,"outcome":"success"}\n',
    "spaces-inside": '{"ts_s": 0.0, "vantage": 0, "slot": 0, "attempt": 1, "outcome": "success"}\n',
    "leading-space": " " + GOOD,
    "trailing-space": GOOD[:-1] + " \n",
    "leading-tab": "\t" + GOOD,
    "form-feed": "\x0c" + GOOD[:-1] + "\x0c\n",
    "line-separator": GOOD[:-1] + "\u2028\n",
    # str.splitlines would end a line at each of these; a file read as text does not
    "separators-in-string": line(tail=',"x":"a\u2028b\u2029c\x85d"') + FAIL_LINE,
    "blank-lines": "\n" + GOOD + "\n \n" + FAIL_LINE + "\n",
    "only-blank": "\n\n \n",
    "crlf": GOOD.replace("\n", "\r\n") + FAIL_LINE.replace("\n", "\r\n"),
    "cr-only": GOOD.replace("\n", "\r") + FAIL_LINE.replace("\n", "\r"),
    "no-final-newline": GOOD + FAIL_LINE[:-1],
    "crlf-then-lf": GOOD.replace("\n", "\r\n") + GOOD + FAIL_LINE.replace("\n", "\r\n"),
    "cr-then-lf": GOOD.replace("\n", "\r") + GOOD + FAIL_LINE,
    "cr-before-crlf": GOOD[:-1] + "\r\r\n" + FAIL_LINE,
    "cr-inside-record": GOOD[:30] + "\r" + GOOD[30:],
    "crlf-no-final-newline": GOOD.replace("\n", "\r\n") + FAIL_LINE[:-1],
    "cr-last": GOOD + FAIL_LINE[:-1] + "\r",
    "blank-crlf-lines": "\r\n" + GOOD.replace("\n", "\r\n") + "\r\n\r\n" + FAIL_LINE,
    "blank-cr-lines": GOOD + "\r\r" + FAIL_LINE + "\r",
    # a bad line in a block after lines that end at a lone "\r" or at "\r\n": its number
    # counts each of them once
    "cr-lines-then-a-bad-line": GOOD.replace("\n", "\r") * 2 + GOOD + line(ts="2.0", slot="-1"),
    "crlf-lines-then-a-bad-line": GOOD.replace("\n", "\r\n") * 2 + line(ts="2.0", slot="-1"),
    "split-record": GOOD[:30] + "\n" + GOOD[30:],
    "split-record-two": GOOD + FAIL_LINE[:40] + "\n" + FAIL_LINE[40:],
    "arabic-indic-digit": line(slot="١"),
    "arabic-indic-ts": line(ts="١.0"),
    "fullwidth-digit": line(vantage="１"),
    "mixed-digits": line(slot="1١"),
    "mixed-digits-ts": line(ts="1١.0"),
    "mixed-digits-fraction": line(ts="1.٣", tail=',"latency_ms":2.5e١'),
    "nan-ts": line(ts="NaN"),
    "infinity-ts": line(ts="Infinity"),
    "minus-infinity-ts": line(ts="-Infinity"),
    "nan-latency": line(tail=',"latency_ms":NaN'),
    "leading-zero": line(slot="01"),
    "leading-zero-ts": line(ts="01.5"),
    "dot-no-fraction": line(ts="1."),
    "fraction-no-int": line(ts=".5"),
    "plus-sign": line(ts="+1.0"),
    "underscore": line(ts="1_0.0"),
    "trailing-garbage": GOOD[:-1] + "x\n",
    "trailing-brace": GOOD[:-1] + "}\n",
    "array-line": "[1]\n",
    "number-line": "5\n",
    "nested-deep": "[" * 50 + "]" * 50 + "\n",
    "ts-decrease": line(ts="5.0") + line(ts="1.0"),
    "ts-decrease-other-vantage": line(ts="5.0") + line(ts="1.0", vantage="1"),
    "ts-decrease-then-bad-field": line(ts="5.0") + line(ts="1.0") + line(ts="6.0", slot="-1"),
    "bad-field-then-ts-decrease": line(ts="5.0", slot="-1") + line(ts="1.0"),
    "ts-equal": line(ts="5.0") + line(ts="5.0", attempt="2"),
    "non-utf8": GOOD.encode() + b"\xff\xfe\n",
    "non-utf8-in-extra-key": GOOD.encode()[:-2] + b',"x":"\xff"}\n',
    "non-utf8-after-good-lines": (GOOD * 3).encode() + FAIL_LINE.encode()[:-2] + b'\xff}\n'
                                 + GOOD.encode(),
    "utf8-extra-key-after-good-lines": (GOOD * 3 + GOOD[:-2] + ',"x":"\u00e9"}\n').encode(),
    "surrogate-escape-json": line(tail=',"x":"\\udcff"'),
    "ts-16-significant": line(ts="1234567890.123456") + line(ts="9007199254740993.0"),
    "ts-23-digit-fraction": line(ts="0.12345678901234567890123", tail=',"latency_ms":1.'
                                 + "0" * 23),
    "ts-exponent-16": line(ts="1e+16"),
    "outcome-with-colon": line(outcome='"a:b"'),
    "extra-key-8-colons": line(outcome='"fail"', tail=',"latency_ms":1.0,"reason":"dns","x":1'),
}


@pytest.mark.parametrize("chunk", [1, 2, logs._CHUNK])
@pytest.mark.parametrize("name", sorted(CORPUS))
def test_corpus_matches_reference(tmp_path, name, chunk):
    text = CORPUS[name]
    path = tmp_path / "log.jsonl"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    with mock.patch.object(logs, "_CHUNK", chunk):
        assert_same(path)


# read sizes that cut lines: a byte, a few bytes, and one good line's length and
# either side of it, so that a read ends just before, at and after a line end
BLOCKS = [1, 3, len(GOOD) - 1, len(GOOD), len(GOOD) + 1]


@pytest.mark.parametrize("block", BLOCKS)
@pytest.mark.parametrize("name", sorted(CORPUS))
def test_corpus_matches_reference_at_block_size(tmp_path, name, block):
    text = CORPUS[name]
    path = tmp_path / "log.jsonl"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    with mock.patch.object(logs, "_BLOCK", block):
        assert_same(path)


def test_corpus_covers_both_outcomes(tmp_path):
    # the corpus is only a check if some cases read and some are refused
    read = refused = 0
    for name, text in CORPUS.items():
        path = tmp_path / f"{name}.jsonl"
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
        got = result_of(reference_read, path)
        read, refused = read + isinstance(got, list), refused + isinstance(got, tuple)
    assert read >= 20 and refused >= 40


# what mutations insert: JSON punctuation, number parts, literals and non-ASCII digits
_ALPHABET = '0123456789.eE+-",:{}[] \t\r\nntrufalsNIy_xX١\x0c'
_VALUES = st.one_of(
    st.sampled_from(["-0", "1E2", "5", "5.0", "1e400", "-1e400", "NaN", "Infinity", "true",
                     "null", '"success"', '"fail"', '"timeout"', '"x"', "01", "1.", "[1]", "{}",
                     "999999999999999999", "9223372036854775808", "1" * 400, '"\\u0065"']),
    st.integers(-2**70, 2**70).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr))
_KEYS = ("ts_s", "vantage", "slot", "attempt", "outcome", "latency_ms", "reason")


@st.composite
def written_logs(draw):
    """Valid records as attempt_line writes them: ts_s nondecreasing per vantage."""
    n = draw(st.integers(0, 12))
    lines, ts = [], 0.0
    for _ in range(n):
        ts += draw(st.sampled_from([0.0, 0.5, 1.0, 600.0, 1e-05, 1e16]))
        fail = draw(st.booleans())
        lines.append(attempt_line(
            ts, draw(st.integers(0, 2)), draw(st.integers(0, 10**6)), draw(st.integers(1, 9)),
            draw(st.sampled_from(OUTCOMES)),
            draw(st.none() | st.floats(0, 1e6, allow_nan=False)),
            draw(st.sampled_from(FAIL_REASONS)) if fail else None))
    return lines


@st.composite
def mutated_logs(draw):
    lines = draw(written_logs())
    for _ in range(draw(st.integers(0, 3))):
        if not lines:
            break
        i = draw(st.integers(0, len(lines) - 1))
        kind = draw(st.sampled_from(["char", "value", "swap", "duplicate", "delete", "blank"]))
        text = lines[i]
        if kind == "char":
            j = draw(st.integers(0, len(text)))
            k = j + draw(st.integers(0, 2))
            lines[i] = text[:j] + draw(st.text(_ALPHABET, max_size=2)) + text[k:]
        elif kind == "value":
            key = draw(st.sampled_from(_KEYS))
            start = text.find(f'"{key}":')
            if start < 0:
                lines[i] = text[:-2] + f',"{key}":{draw(_VALUES)}}}\n'
            else:
                start += len(key) + 3
                # with neither "," nor "}" after the key, the value runs to the line's end
                end = min((p for p in (text.find(",", start), text.find("}", start)) if p >= 0),
                          default=len(text.rstrip("\r\n")))
                lines[i] = text[:start] + draw(_VALUES) + text[end:]
        elif kind == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        elif kind == "duplicate":
            lines.insert(i, text)
        elif kind == "delete":
            del lines[i]
        else:
            lines.insert(i, draw(st.sampled_from(["\n", " \n", "\r\n"])))
    text = "".join(lines)
    if draw(st.booleans()):
        text = text.rstrip("\n")
    return text


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(text=mutated_logs(), chunk=st.sampled_from([1, 2, 3, logs._CHUNK]),
       block=st.sampled_from(BLOCKS + [logs._BLOCK]))
def test_mutated_logs_match_reference(tmp_path_factory, text, chunk, block):
    path = tmp_path_factory.mktemp("log") / "log.jsonl"
    path.write_text(text, encoding="utf-8", newline="")
    with mock.patch.object(logs, "_CHUNK", chunk), mock.patch.object(logs, "_BLOCK", block):
        assert_same(path)


def test_fault_deep_in_a_large_log(tmp_path):
    # faults in the first block, past it and on the last line
    good = [attempt_line(float(i // 3), i % 3, i // 3, 1, "success")
            for i in range(2 * logs._CHUNK + 500)]
    for at, bad in ((logs._CHUNK + 4000, line(ts="0.0", vantage="1")),   # ts_s decreases
                    (2 * logs._CHUNK + 499, line(ts="9e9", slot="-1")),  # the last line
                    (63, line(ts="0.0", outcome='"x"')), (64, "{\n")):
        path = tmp_path / "log.jsonl"
        path.write_text("".join(good[:at] + [bad] + good[at + 1:]))
        err_type, message = assert_same(path)
        assert err_type is MalformedLogError and f"line {at + 1}" in message


def test_a_bad_last_line_is_named_in_one_read(tmp_path, monkeypatch):
    lines = [attempt_line(float(i), 0, i, 1, "success") for i in range(3 * logs._CHUNK)]
    lines[-1] = line(ts=f"{len(lines)}.0", slot="-1")
    path = tmp_path / "log.jsonl"
    path.write_text("".join(lines))
    monkeypatch.setattr(logs, "_BLOCK", path.stat().st_size // 3 + 1)
    with open(path, "rb") as f:
        blocks = list(logs._blocks(f))
    opened, calls = [], []
    monkeypatch.setattr(logs, "open", lambda file, *args: opened.append(file) or open(file, *args),
                        raising=False)
    parse = logs._parse
    monkeypatch.setattr(logs, "_parse", lambda text: calls.append(text) or parse(text))
    with pytest.raises(MalformedLogError, match=f"{path} line {len(lines)}: slot must be >= 0"):
        logs.read_attempt_log(path)
    # the log is opened once (the sidecar's open fails), and each block is parsed
    # whole, then the failing one, the last, a line at a time
    assert opened == [logs.sidecar_path(path), path]
    assert len(blocks) == 3 and len(calls) <= len(blocks) + len(blocks[-1].splitlines())


def _count_json_loads(monkeypatch):
    calls = []
    loads = json.loads
    monkeypatch.setattr(json, "loads", lambda s, *a, **k: calls.append(s) or loads(s, *a, **k))
    return calls


def test_writer_output_parses_back_to_its_columns(tmp_path):
    # with no sidecar, json.loads reads attempt_line's text back to the very bytes written
    campaign = CampaignConfig(probe_interval_s=600.0, horizon_days=20.0, vantage_points=3,
                              retry_max=9, seed=5)
    process = OutageProcess(up_mean_s=20000.0, network_fail_prob=0.05,
                            duration_dist=DurationDistribution.exponential(900.0))
    simulated = sample_campaign(generate_timeline(process, campaign.horizon_s, 5), campaign,
                                process.network_fail_prob)
    latencies = [None, 0.0, 12.5, 1e-05, 123456.789, 3e-300, 7.0e22]
    live = log_of([Row(float(i), 0, i, 1, FAIL if r else "success", lat, r)
                   for i, (lat, r) in enumerate(
                       (lat, r) for lat in latencies for r in (None, *FAIL_REASONS))])
    # the live prober's ts_s is wall-clock time: 16 or 17 significant digits
    wall_clock = log_of([Row(1729270000.1234567 + 0.37 * i, 0, i, 1, "success", 87.654321 + i)
                         for i in range(200)])
    assert {"success", "cloud_fail", "network_fail"} <= {OUTCOMES[o] for o in
                                                         simulated.outcome.tolist()}
    for name, log in (("simulated", simulated), ("live", live), ("wall-clock", wall_clock)):
        path = tmp_path / f"{name}.jsonl"
        logs.write_attempt_log(path, log)
        os.remove(logs.sidecar_path(path))  # so that the log is parsed
        back = logs.read_attempt_log(path)
        for column in COLUMNS:
            assert getattr(back, column).tobytes() == getattr(log, column).tobytes(), column
        assert_same(path)
        # attempt_line given numpy floats writes the floats they are, as the writer does
        assert "".join(attempt_line(*row._replace(
            ts_s=np.float64(row.ts_s),
            latency_ms=None if row.latency_ms is None else np.float64(row.latency_ms)))
            for row in rows_of(log)).encode() == path.read_bytes()


def test_other_json_forms_take_the_general_path(tmp_path, monkeypatch):
    path = tmp_path / "log.jsonl"
    path.write_text(CORPUS["spaces-inside"] + CORPUS["int-ts"])
    calls = _count_json_loads(monkeypatch)
    assert logs.read_attempt_log(path).ts_s.tolist() == [0.0, 5.0]
    assert len(calls) == 2


# floats on each side of every rule the writer has: integral or not, -0.0, 2**53,
# the switch to exponents at 1e16, infinities, NaN and subnormals
_EDGE_FLOATS = [0.0, -0.0, 1.0, -7.0, 0.5, -2.5, 600.0, 1e-05, 0.1, 123456.789,
                2.0 ** 53 - 1, -(2.0 ** 53 - 1), 2.0 ** 53, -(2.0 ** 53), 2.0 ** 53 + 2,
                1e15, 1e16, -1e16, 1e22, 7.0e22, 3e-300, 5e-324, 2.2250738585072014e-308,
                math.inf, -math.inf, math.nan, 1729270000.1234567]
_WRITER_FLOATS = st.sampled_from(_EDGE_FLOATS) | st.floats() | st.integers(
    -(2 ** 60), 2 ** 60).map(float)
_WRITER_ROWS = st.builds(
    Row, _WRITER_FLOATS, st.integers(-(2 ** 63), 2 ** 63 - 1), st.integers(-(2 ** 63), 2 ** 63 - 1),
    st.integers(-(2 ** 63), 2 ** 63 - 1), st.sampled_from(OUTCOMES),
    st.none() | _WRITER_FLOATS.filter(lambda x: not math.isnan(x)),
    st.none() | st.sampled_from(FAIL_REASONS))


def _lines_of(log) -> bytes:
    """The log as attempt_line writes it, one call per record."""
    return "".join(attempt_line(*row) for row in rows_of(log)).encode()


def _written(tmp_path, log) -> bytes:
    path = tmp_path / "log.jsonl"
    logs.write_attempt_log(path, log)
    return path.read_bytes()


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(pool=st.lists(_WRITER_ROWS, min_size=1, max_size=12),
       length=st.sampled_from([0, 1, 2, 7, logs._CHUNK - 1, logs._CHUNK, logs._CHUNK + 1]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_writer_matches_attempt_line(tmp_path_factory, pool, length, seed):
    # length records drawn from the pool, so long logs still mix every kind of row
    picks = np.random.default_rng(seed).integers(0, len(pool), length)
    log = log_of([pool[i] for i in picks.tolist()])
    assert _written(tmp_path_factory.mktemp("log"), log) == _lines_of(log)


@pytest.mark.parametrize("length", [0, 1, logs._CHUNK - 1, logs._CHUNK, logs._CHUNK + 1])
def test_writer_integral_and_without_latency(tmp_path, monkeypatch, length):
    # every float is integral and every latency missing: no value goes through repr
    log = log_of([Row(float(i // 2), i % 3, i // 2, 1 + i % 2, OUTCOMES[i % 4], None,
                      FAIL_REASONS[i % 5] if i % 4 else None) for i in range(length)])
    monkeypatch.setattr(logs, "repr", lambda x: pytest.fail(f"repr({x!r})"), raising=False)
    assert _written(tmp_path, log) == _lines_of(log)


# a slot's rows as the live prober hands them to encode: ts_s to 1 us, and a success
# with its latency_ms to 1 us or a fail with its reason
_LIVE_ROWS = st.builds(
    lambda ts, slot, attempt, latency, reason: Row(
        round(ts, 6), 0, slot, attempt, FAIL if reason else "success",
        None if reason else round(latency, 3), reason),
    st.floats(0, 2e9), st.integers(0, 10 ** 7), st.integers(1, 9), st.floats(0, 3e5),
    st.none() | st.sampled_from(FAIL_REASONS))


@settings(max_examples=200, deadline=None)
@given(rows=st.lists(_LIVE_ROWS, max_size=9))
@example(rows=[Row(0.0, 0, 0, 1, "success", 0.0), Row(1729270000.123456, 0, 1, 1, "success", 0.001),
               *(Row(86399.999999, 0, 2, n, FAIL, None, r) for n, r in enumerate(FAIL_REASONS, 1))])
def test_encode_matches_attempt_line(rows):
    # the live prober's slot writes, line for line, as the reference writes each row
    assert logs.encode(rows) == "".join(attempt_line(*row) for row in rows).encode()
    assert [logs.encode([row]) for row in rows] == [attempt_line(*row).encode() for row in rows]


def _remove_sidecar(path):
    sidecar = logs.sidecar_path(path)
    (shutil.rmtree if os.path.isdir(sidecar) else os.remove)(sidecar)


@st.composite
def sidecar_logs(draw):
    """Valid logs of 1 to 3 vantages with retries: ts_s nondecreasing per vantage,
    integral or not, latency_ms and reason present or absent, in vantage-major or
    ts_s order, a missing latency as either NaN."""
    rows = []
    for vantage in range(draw(st.integers(1, 3))):
        ts = draw(st.sampled_from([0.0, 0.5, 1729270000.1234567]))
        for slot in range(draw(st.integers(0, 6))):
            for attempt in range(1, draw(st.integers(1, 4)) + 1):
                ts += draw(st.sampled_from([0.0, 1.0, 600.0, 0.1, 1e-05, 2.0 ** 53]))
                rows.append(Row(ts, vantage, slot, attempt, draw(st.sampled_from(OUTCOMES)),
                                draw(st.none() | st.floats(-1e6, 1e6)),
                                draw(st.none() | st.sampled_from(FAIL_REASONS))))
    if draw(st.booleans()):
        rows.sort(key=lambda row: row.ts_s)
    log = log_of(rows)
    latency = log.latency_ms.copy()
    latency[np.isnan(latency)] = draw(st.sampled_from([math.nan, -math.nan]))
    return dataclasses.replace(log, latency_ms=latency)


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(log=sidecar_logs())
def test_sidecar_reads_as_the_log_parses(tmp_path_factory, log):
    path = tmp_path_factory.mktemp("log") / "log.jsonl"
    logs.write_attempt_log(path, log)
    with mock.patch.object(logs, "_parse", side_effect=AssertionError("the log was parsed")):
        from_sidecar = logs.read_attempt_log(path)
    _remove_sidecar(path)
    parsed = logs.read_attempt_log(path)
    for name in COLUMNS:
        a, b = getattr(from_sidecar, name), getattr(parsed, name)
        assert a.dtype == b.dtype and np.array_equal(a, b, equal_nan=a.dtype.kind == "f"), name
        assert a.tobytes() == b.tobytes(), name  # a missing latency is NaN as the parse gives it


SIDECAR_LOG = log_of([Row(0.5, 0, 0, 1, "fail", 12.5, "dns"), Row(1.5, 0, 0, 2, "success"),
                      Row(0.25, 1, 0, 1, "success", 3.0), Row(600.0, 0, 1, 1, "success")])


def _edit(path, old: bytes, new: bytes):
    """Replace old by new, of the same length, in the file at path."""
    text = path.read_bytes()
    assert len(old) == len(new) and old in text
    path.write_bytes(text.replace(old, new, 1))


def _set_cell(path, name, row, value):
    """Overwrite one value of a column in the sidecar of the log at path."""
    k = list(_COLUMNS).index(name)
    before = sum(dtype.itemsize for dtype in logs._DTYPES[:k]) * len(SIDECAR_LOG)
    with open(logs.sidecar_path(path), "r+b") as f:
        f.seek(logs._HEADER.size + before + row * logs._DTYPES[k].itemsize)
        f.write(np.array([value], logs._DTYPES[k]).tobytes())


def _append(path, text):
    with open(path, "a", encoding="utf-8") as f:
        f.write(text)


def _sidecar_bytes(path, edit):
    sidecar = logs.sidecar_path(path)
    with open(sidecar, "rb") as f:
        data = f.read()
    with open(sidecar, "wb") as f:
        f.write(edit(data))


# each case spoils a good log's sidecar, or the log beside it, after both are written
SIDECAR_CASES = {
    "log-edited-same-length": lambda p: _edit(p, b'"slot":1,', b'"slot":7,'),
    "log-edited-to-a-bad-line": lambda p: _edit(p, b'"attempt":2,', b'"attempt":0,'),
    "log-edited-to-crlf": lambda p: p.write_bytes(p.read_bytes().replace(b"\n", b"\r\n")),
    "log-appended-to": lambda p: _append(p, attempt_line(700.0, 0, 2, 1, "success")),
    "sidecar-truncated": lambda p: _sidecar_bytes(p, lambda b: b[:-1]),
    "sidecar-header-only": lambda p: _sidecar_bytes(p, lambda b: b[:logs._HEADER.size]),
    "sidecar-cut-in-header": lambda p: _sidecar_bytes(p, lambda b: b[:10]),
    "sidecar-empty": lambda p: _sidecar_bytes(p, lambda b: b""),
    "sidecar-extended": lambda p: _sidecar_bytes(p, lambda b: b + b"\0"),
    "wrong-magic": lambda p: _sidecar_bytes(p, lambda b: b"X" + b[1:]),
    "wrong-version": lambda p: _sidecar_bytes(p, lambda b: b[:8] + b"\2" + b[9:]),
    "wrong-sha256": lambda p: _sidecar_bytes(p, lambda b: b[:24] + bytes([b[24] ^ 1]) + b[25:]),
    "count-one-short": lambda p: _sidecar_bytes(p, lambda b: b[:56] + bytes([b[56] - 1]) + b[57:]),
    "count-one-over": lambda p: _sidecar_bytes(p, lambda b: b[:56] + bytes([b[56] + 1]) + b[57:]),
    "ts-decreases": lambda p: _set_cell(p, "ts_s", 1, 0.25),
    "ts-negative": lambda p: _set_cell(p, "ts_s", 0, -1.0),
    "ts-nan": lambda p: _set_cell(p, "ts_s", 3, math.nan),
    "vantage-negative": lambda p: _set_cell(p, "vantage", 2, -5),
    "slot-negative": lambda p: _set_cell(p, "slot", 0, -1),
    "attempt-0": lambda p: _set_cell(p, "attempt", 0, 0),
    "outcome-9": lambda p: _set_cell(p, "outcome", 2, 9),
    "outcome-negative": lambda p: _set_cell(p, "outcome", 2, -1),
    "reason-7": lambda p: _set_cell(p, "reason", 0, 7),
    "reason-minus-2": lambda p: _set_cell(p, "reason", 0, -2),
    "latency-inf": lambda p: _set_cell(p, "latency_ms", 1, math.inf),
    "sidecar-a-directory": lambda p: (_remove_sidecar(p), os.mkdir(logs.sidecar_path(p))),
}


@pytest.mark.parametrize("case", sorted(SIDECAR_CASES))
def test_unusable_sidecar_reads_as_the_log_parses(tmp_path, case):
    path = tmp_path / "log.jsonl"
    logs.write_attempt_log(path, SIDECAR_LOG)
    SIDECAR_CASES[case](path)
    with mock.patch.object(logs, "_parse", wraps=logs._parse) as parse:
        got = result_of(logs.read_attempt_log, path)
    assert parse.called  # the sidecar was passed over
    _remove_sidecar(path)
    assert got == result_of(logs.read_attempt_log, path)


def test_sidecar_length_is_checked_before_the_log_is_hashed(tmp_path):
    path = tmp_path / "log.jsonl"
    logs.write_attempt_log(path, SIDECAR_LOG)
    SIDECAR_CASES["log-appended-to"](path)
    with mock.patch.object(logs, "_sha256", side_effect=AssertionError("hashed")):
        assert len(logs.read_attempt_log(path)) == len(SIDECAR_LOG) + 1


@pytest.mark.parametrize("rows, error", [
    ([Row(1.0, 0, 0, 1, "success"), Row(0.5, 0, 1, 1, "success")], "ts_s 0.5 decreases (line 2)"),
    ([Row(0.0, 0, 0, 0, "success")], "attempt must be >= 1"),
    ([Row(math.nan, 0, 0, 1, "success")], "line 1: "),
    ([Row(0.0, 0, 0, 1, "success", math.inf)], "line 1: "),
    ([Row(0.0, -5, 0, 1, "success")], "line 1: vantage must be >= 0, got -5"),
])
def test_bad_log_raises_the_same_error_with_its_sidecar(tmp_path, rows, error):
    # the writer writes what it is given; the sidecar carries the same fault as the log
    path = tmp_path / "log.jsonl"
    logs.write_attempt_log(path, log_of(rows))
    assert os.path.exists(logs.sidecar_path(path))
    got = result_of(logs.read_attempt_log, path)
    _remove_sidecar(path)
    assert got == result_of(logs.read_attempt_log, path)
    assert got[0] is MalformedLogError and error in got[1]


def _fail_in_second_chunk(monkeypatch):
    chunk_text = logs._chunk_text
    written = []

    def first_chunk_only(log):
        if written:
            raise OSError("disk gone")
        written.append(len(log))
        return chunk_text(log)

    monkeypatch.setattr(logs, "_CHUNK", 1)
    monkeypatch.setattr(logs, "_chunk_text", first_chunk_only)


def _fail_in_sidecar(monkeypatch):
    # the third column's write fails, after the log and two columns are written
    monkeypatch.setattr(logs, "_DTYPES", logs._DTYPES[:2] + ["not a dtype"] + logs._DTYPES[3:])


@pytest.mark.parametrize("fail", [_fail_in_second_chunk, _fail_in_sidecar],
                         ids=["log", "sidecar"])
@pytest.mark.parametrize("before", ["none", "old"])
def test_failed_write_leaves_no_new_log_or_sidecar(tmp_path, monkeypatch, fail, before):
    path = tmp_path / "log.jsonl"
    if before == "old":
        logs.write_attempt_log(path, SIDECAR_LOG[:1])
    files = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    fail(monkeypatch)
    with pytest.raises((OSError, TypeError)):
        logs.write_attempt_log(path, SIDECAR_LOG)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == files


@pytest.mark.parametrize("before", ["none", "old"])
def test_failed_truth_write_leaves_the_old_file(tmp_path, monkeypatch, before):
    path = tmp_path / "truth.jsonl"
    if before == "old":
        logs.write_truth(path, Timeline(1000.0, [100.0], [5.0]))
    files = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    dumps, rows = json.dumps, []

    def third_row_fails(obj, **kwargs):  # after two rows are written
        rows.append(obj)
        if len(rows) == 3:
            raise OSError("disk gone")
        return dumps(obj, **kwargs)

    monkeypatch.setattr(logs.json, "dumps", third_row_fails)
    with pytest.raises(OSError, match="disk gone"):
        logs.write_truth(path, Timeline(1000.0, [10.0, 200.0, 300.0, 400.0], [1.0, 2.0, 3.0, 4.0]))
    assert len(rows) == 3
    # the old file byte for byte, or none, and no temporary file
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == files


class TestReadTruth:
    def read(self, tmp_path, text, horizon_s=1000.0):
        path = tmp_path / "truth.jsonl"
        path.write_text(text)
        return path, lambda: logs.read_truth(path, horizon_s)

    @pytest.mark.parametrize("lines, message", [
        (['{"start_s":0,"duration_s":1}', '{"start_s":-1,"duration_s":1}', "not json"],
         " line 2: start_s must be finite and >= 0, got -1.0"),
        (['{"start_s":0,"duration_s":1}', "not json", '{"start_s":-1,"duration_s":1}'],
         " line 2: Expecting value"),
        (["", '{"start_s":0,"duration_s":1}', " ", '{"start_s":5,"duration_s":0}'],
         " line 4: duration_s must be finite and > 0, got 0.0"),
        (['{"start_s":0,"duration_s":1,"cause":["cloud"]}'],
         " line 1: cause must be one of cloud, network, got ['cloud']"),
        (['[0, 1]'], " line 1: list indices must be integers"),
        (['{"start_s":0,"duration_s":100}', '{"start_s":50,"duration_s":10}'],
         ": overlapping cloud events at 50.0"),
        (['{"start_s":990,"duration_s":100}'], ": event ending at 1090.0 exceeds horizon 1000.0"),
        # lines that end at "\r\n", and at a lone "\r", are counted as a text read counts them
        (['{"start_s":0,"duration_s":1}\r', "\r", '{"start_s":-1,"duration_s":1}\r'],
         " line 3: start_s must be finite and >= 0, got -1.0"),
        (['{"start_s":0,"duration_s":1}\r \rnot json\r{"start_s":1,"duration_s":1}'],
         " line 3: Expecting value"),
    ], ids=["fault-before-parse-error", "parse-error-before-fault", "blank-lines-counted",
            "unhashable-cause", "not-an-object", "overlap", "overrun", "crlf", "cr-only"])
    def test_first_fault_named_with_its_line(self, tmp_path, lines, message):
        path, read = self.read(tmp_path, "\n".join(lines) + "\n")
        with pytest.raises(DataError) as err:
            read()
        assert str(err.value).startswith(f"truth file {path}{message}")

    def test_columns_and_default_cause(self, tmp_path):
        _, read = self.read(tmp_path, '{"start_s":500,"duration_s":2,"cause":"network"}\n'
                                      '{"start_s":100,"duration_s":50}\n')
        tl = read()
        assert len(tl) == 2 and tl.horizon_s == 1000.0
        assert [tl.start_s.tolist(), tl.duration_s.tolist(), tl.cause.tolist()] == [
            [100.0, 500.0], [50.0, 2.0], [0, 1]]

    def test_empty_file_is_an_empty_timeline(self, tmp_path):
        _, read = self.read(tmp_path, "\n")
        assert len(read()) == 0
