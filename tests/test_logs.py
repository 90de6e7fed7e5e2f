"""The attempt-log reader against a per-line reference reader.

reference_read is the reader as it was before the regex fast path: json.loads
on each line, the per-record rules, then ts_s nondecreasing per vantage, with
the first bad line in file order named in the error. read_attempt_log must
give the same column bytes, or the same exception type and message, for
every input.
"""
import json
import math
from itertools import repeat
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cloudprobe import logs
from cloudprobe.model import (FAIL, FAIL_REASONS, OUTCOMES, AttemptLog, CampaignConfig,
                              MalformedLogError)
from cloudprobe.simulate import DurationDistribution, OutageProcess, generate_timeline, \
    sample_campaign

from conftest import Row, log_of

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
        latency_ms=_named("latency_ms", np.array, latency, np.float64),
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


def reference_read(path) -> AttemptLog:
    """One line at a time: decode, parse, check, then the per-vantage ts_s order."""
    rows, last_ts = [], {}
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as f:
        for lineno, line in enumerate(f, start=1):
            try:
                row = _reference_columns([line.encode("utf-8", "surrogateescape")
                                          .decode("utf-8")])
            except _ERRORS as exc:
                raise MalformedLogError("?", f"line {lineno}", str(exc)) from None
            for ts, vantage, slot in zip(row.ts_s.tolist(), row.vantage.tolist(),
                                         row.slot.tolist()):
                if ts < last_ts.get(vantage, ts):
                    raise MalformedLogError(vantage, slot, f"ts_s {ts} decreases (line {lineno})")
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
    "blank-lines": "\n" + GOOD + "\n \n" + FAIL_LINE + "\n",
    "only-blank": "\n\n \n",
    "crlf": GOOD.replace("\n", "\r\n") + FAIL_LINE.replace("\n", "\r\n"),
    "cr-only": GOOD.replace("\n", "\r") + FAIL_LINE.replace("\n", "\r"),
    "no-final-newline": GOOD + FAIL_LINE[:-1],
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
    "surrogate-escape-json": line(tail=',"x":"\\udcff"'),
}


@pytest.mark.parametrize("chunk", [1, 2, logs._CHUNK])
@pytest.mark.parametrize("name", sorted(CORPUS))
def test_corpus_matches_reference(tmp_path, name, chunk):
    text = CORPUS[name]
    path = tmp_path / "log.jsonl"
    path.write_bytes(text if isinstance(text, bytes) else text.encode())
    with mock.patch.object(logs, "_CHUNK", chunk):
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
        lines.append(logs.attempt_line(
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
                end = min(p for p in (text.find(",", start), text.find("}", start)) if p >= 0)
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
@given(text=mutated_logs(), chunk=st.sampled_from([1, 2, 3, logs._CHUNK]))
def test_mutated_logs_match_reference(tmp_path_factory, text, chunk):
    path = tmp_path_factory.mktemp("log") / "log.jsonl"
    path.write_text(text, encoding="utf-8", newline="")
    with mock.patch.object(logs, "_CHUNK", chunk):
        assert_same(path)


def test_fault_deep_in_a_large_log(tmp_path):
    # pieces of a whole chunk, then of 64 lines, then single lines are checked
    good = [logs.attempt_line(float(i // 3), i % 3, i // 3, 1, "success")
            for i in range(2 * logs._CHUNK + 500)]
    for at, bad in ((logs._CHUNK + 4000, line(ts="0.0", vantage="1")),   # ts_s decreases
                    (2 * logs._CHUNK + 499, line(ts="9e9", slot="-1")),  # the last line
                    (63, line(ts="0.0", outcome='"x"')), (64, "{\n")):
        path = tmp_path / "log.jsonl"
        path.write_text("".join(good[:at] + [bad] + good[at + 1:]))
        err_type, message = assert_same(path)
        assert err_type is MalformedLogError and f"line {at + 1}" in message


def test_locator_goes_line_by_line_only_in_the_failing_chunk(tmp_path, monkeypatch):
    lines = [logs.attempt_line(float(i), 0, i, 1, "success") for i in range(3 * logs._CHUNK)]
    lines[-1] = line(ts=f"{len(lines)}.0", slot="-1")
    path = tmp_path / "log.jsonl"
    path.write_text("".join(lines))
    calls = []
    columns = logs._columns
    monkeypatch.setattr(logs, "_columns", lambda chunk: calls.append(len(chunk)) or columns(chunk))
    with pytest.raises(MalformedLogError, match=f"line {len(lines)}: slot must be >= 0"):
        logs.read_attempt_log(path)
    # three chunks read, three checked again, then 128 pieces and 64 lines at most
    assert len(calls) <= 3 + 3 + 128 + 64


def _count_json_loads(monkeypatch):
    calls = []
    loads = json.loads
    monkeypatch.setattr(json, "loads", lambda s, *a, **k: calls.append(s) or loads(s, *a, **k))
    return calls


def test_writer_output_takes_the_fast_path(tmp_path, monkeypatch):
    # a change to attempt_line that leaves its lines off the fast path fails here
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
    assert {"success", "cloud_fail", "network_fail"} <= {OUTCOMES[o] for o in
                                                         simulated.outcome.tolist()}
    calls = _count_json_loads(monkeypatch)
    for name, log in (("simulated", simulated), ("live", live)):
        path = tmp_path / f"{name}.jsonl"
        logs.write_attempt_log(path, log)
        back = logs.read_attempt_log(path)
        assert calls == [], name
        for column in COLUMNS:
            assert getattr(back, column).tobytes() == getattr(log, column).tobytes(), column
        assert_same(path)
        calls.clear()  # the reference reader's own calls


def test_other_json_forms_take_the_general_path(tmp_path, monkeypatch):
    path = tmp_path / "log.jsonl"
    path.write_text(CORPUS["spaces-inside"] + CORPUS["int-ts"])
    calls = _count_json_loads(monkeypatch)
    assert logs.read_attempt_log(path).ts_s.tolist() == [0.0, 5.0]
    assert len(calls) == 2
