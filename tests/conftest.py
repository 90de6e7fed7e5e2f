import configparser
import math
import socket
import socketserver
import threading
import time
from collections import namedtuple
from dataclasses import asdict
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import jsonschema
import numpy as np
import pytest

from cloudprobe import report
from cloudprobe.model import (CAUSES, CLOUD, CLOUD_FAIL, FAIL, FAIL_REASONS, NETWORK_FAIL,
                              OUTCOMES, SUCCESS, AttemptLog, Timeline)
from cloudprobe.simulate import _DURATION_RULES, DurationDistribution, _retry_schedule, _rng

BODY = b"cloudprobe test object\n"
# target URLs that ProbeTarget rejects: no host, an unreadable port or port 0, a
# malformed IPv6 literal, a space in the host or the path
BAD_URLS = ("http:///x", "http://127.0.0.1:abc/x", "http://127.0.0.1:70000/x",
            "http://127.0.0.1:0/x", "http://[::1/x", "http://ho st/x", "http://127.0.0.1/a b")

# one attempt as plain values, for building logs in tests and per-record oracles
Row = namedtuple("Row", "ts_s vantage slot attempt outcome latency_ms reason",
                 defaults=(None, None))


def attempt_line(ts_s, vantage, slot, attempt, outcome, latency_ms=None, reason=None) -> str:
    """One record's line, newline included, as json.dumps writes a finite record
    with no spaces; ts_s and latency_ms written as floats by repr (so an infinity
    is inf, which json.dumps writes Infinity), latency_ms and reason left out
    when None. The reference the log writer is held to, record for record."""
    line = (f'{{"ts_s":{float(ts_s)!r},"vantage":{vantage},"slot":{slot},"attempt":{attempt},'
            f'"outcome":"{outcome}"')
    if latency_ms is not None:
        line += f',"latency_ms":{float(latency_ms)!r}'
    if reason is not None:
        line += f',"reason":"{reason}"'
    return line + "}\n"


def log_of(rows) -> AttemptLog:
    """Rows (outcome and reason as names, None for no latency or reason) as a log."""
    ts, vantage, slot, attempt, outcome, latency, reason = list(zip(*rows)) or [()] * 7
    return AttemptLog(ts_s=ts, vantage=vantage, slot=slot, attempt=attempt,
                      outcome=[OUTCOMES.index(o) for o in outcome],
                      latency_ms=[math.nan if x is None else x for x in latency],
                      reason=[-1 if r is None else FAIL_REASONS.index(r) for r in reason])


def rows_of(log: AttemptLog) -> list:
    """The log's records as Rows, the inverse of log_of."""
    reasons = (*FAIL_REASONS, None)  # code -1 is None
    return [Row(ts, vantage, slot, attempt, OUTCOMES[outcome],
                None if math.isnan(latency) else latency, reasons[reason])
            for ts, vantage, slot, attempt, outcome, latency, reason in zip(
                *(getattr(log, name).tolist() for name in Row._fields))]


# one ground-truth outage as plain values, for building timelines in tests and oracles
Outage = namedtuple("Outage", "start_s duration_s cause", defaults=(CLOUD,))


def timeline_of(horizon_s, outages) -> Timeline:
    """Outages (cause as a name) as a timeline."""
    start, duration, cause = list(zip(*outages)) or [()] * 3
    return Timeline(horizon_s, start, duration, [CAUSES.index(c) for c in cause])


def outages_of(timeline: Timeline) -> list:
    """The timeline's outages as Outages, in (start, cause) order, the inverse of
    timeline_of."""
    return [Outage(start, duration, CAUSES[cause]) for start, duration, cause in zip(
        timeline.start_s.tolist(), timeline.duration_s.tolist(), timeline.cause.tolist())]


def iid_attempt_log(success_prob: float, slots: int, retry_max: int,
                    seed: int, vantage: int = 0) -> AttemptLog:
    """Attempts that succeed i.i.d. with success_prob, with no timeline, one slot
    a second.

    This bypasses the renewal model entirely, so the geometric retry-inflation
    predictions (which assume independent attempts) can be checked against
    sampled logs. Its draws come from the seed's substream 3, which the
    simulator leaves unused.
    """
    if not 0.0 <= success_prob <= 1.0:
        raise ValueError("success_prob must be in [0, 1]")
    if slots < 0 or retry_max < 1:
        raise ValueError("need slots >= 0 and retry_max >= 1")
    draws = _rng(seed, 3).random(slots * retry_max) < success_prob
    # every attempt is free: no slot is touched
    made, ok = _retry_schedule(np.full(slots, retry_max), np.zeros(slots, bool),
                               np.zeros((0, retry_max), bool), draws)
    slot, ends = np.repeat(np.arange(slots), made), np.cumsum(made)
    attempt = np.arange(len(slot)) - np.repeat(ends - made, made)
    outcome = np.full(len(slot), OUTCOMES.index(CLOUD_FAIL))
    outcome[ends[ok] - 1] = OUTCOMES.index(SUCCESS)
    return AttemptLog(ts_s=slot + attempt * 1e-3, vantage=np.full(len(slot), vantage), slot=slot,
                      attempt=attempt + 1, outcome=outcome, latency_ms=np.full(len(slot), np.nan),
                      reason=np.full(len(slot), -1))


def loop_retry_schedule(free: np.ndarray, draws: np.ndarray | None):
    """Reference for simulate._retry_schedule: the same walk with one Python step
    per slot, as the sampler had it before its walk over the False draws."""
    slots, retry_max = free.shape
    free_counts = free.sum(axis=1)
    if draws is None:
        used = np.minimum(free_counts, 1)
        ok_slot = used > 0
    else:
        # next_ok[p]: index of the first True draw at or after p (len(draws) if none)
        idx = np.where(draws, np.arange(draws.size), draws.size)
        next_ok = np.minimum.accumulate(idx[::-1])[::-1].tolist() + [draws.size]
        used_list, p = [], 0
        for free_count in free_counts.tolist():
            used_count = next_ok[p] - p + 1  # through the next True draw, at most free_count
            used_count = used_count if used_count < free_count else free_count
            used_list.append(used_count)
            p += used_count
        used = np.array(used_list, dtype=np.int64)
        ok_slot = (used > 0) & draws[np.cumsum(used) - 1]
    # the used-th free attempt of a successful slot is its success
    success_at = np.argmax(free & (np.cumsum(free, axis=1) == used[:, None]), axis=1)
    ok = ok_slot[:, None] & (np.arange(retry_max) == success_at[:, None])
    made = np.arange(retry_max) < np.where(ok_slot, success_at + 1, retry_max)[:, None]
    return made, ok


def make_random_log(rng: np.random.Generator, retry_max=None, slots=None, vantages=None):
    """A structurally valid attempt log with mixed success ranks and all-fail slots."""
    n = int(retry_max if retry_max is not None else rng.integers(1, 6))
    n_vantage = int(vantages if vantages is not None else rng.integers(1, 4))
    n_slots = int(slots if slots is not None else rng.integers(0, 40))
    interval, gap = 60.0, 1.0
    fails = [CLOUD_FAIL, NETWORK_FAIL, FAIL]
    records = []
    for vantage in range(n_vantage):
        for slot in range(n_slots):
            success_at = int(rng.integers(1, n + 1))
            all_fail = rng.random() < 0.3
            last = n if all_fail else success_at
            for attempt in range(1, last + 1):
                ok = (not all_fail) and attempt == success_at
                records.append(Row(
                    ts_s=slot * interval + (attempt - 1) * gap,
                    vantage=vantage,
                    slot=slot,
                    attempt=attempt,
                    outcome=SUCCESS if ok else fails[int(rng.integers(3))],
                ))
    records.sort(key=lambda r: (r.ts_s, r.vantage, r.attempt))
    return log_of(records), n


def write_config(path, campaign, process=None, target=None) -> None:
    """Emit a config file that configfile.read_config parses back identically.

    The package reads configs but never writes one, so the writer lives with the
    tests that build configs from dataclasses."""
    parser = configparser.ConfigParser(interpolation=None)
    parser["campaign"] = _ini_section(campaign)

    if process is not None:
        proc = {
            "up_mean_s": _ini(process.up_mean_s),
            "network_fail_prob": _ini(process.network_fail_prob),
        }
        if process.network_burst is not None:
            proc["burst_rate_per_day"] = _ini(process.network_burst.rate_per_day)
            proc["burst_duration_s"] = _ini(process.network_burst.duration_s)
        parser["process"] = proc
        parser["duration"] = _duration_section(process.duration_dist)

    if target is not None:
        parser["probe"] = _ini_section(target, skip="url")

    with open(path, "w", encoding="utf-8") as f:
        parser.write(f)


def _duration_section(dist: DurationDistribution) -> dict:
    """The kind and the fields it reads, as the simulator's table lists them."""
    return {"kind": dist.kind, **{k: _ini(getattr(dist, k)) for k in _DURATION_RULES[dist.kind]}}


def _ini_section(obj, skip: str = "") -> dict:
    """A config dataclass as INI values; empty fields are left out."""
    return {k: _ini(v) for k, v in asdict(obj).items() if k != skip and v not in (None, "")}


def _ini(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, frozenset):
        return " ".join(str(v) for v in sorted(value))
    if isinstance(value, tuple):
        return " ".join(map(_ini, value))
    return repr(float(value)) if not float(value).is_integer() else str(int(value))


@pytest.fixture
def reports_pass_own_check(monkeypatch):
    """Fail the test if merge_fragments returns a report that jsonschema rejects:
    merge_fragments checks only the fragments, each on entry, so each report
    merged from checked fragments must be valid."""
    merge = report.merge_fragments
    validator = jsonschema.Draft202012Validator(report.load_schema())

    def checked(*args, **kwargs):
        merged = merge(*args, **kwargs)
        validator.validate(merged)
        return merged

    monkeypatch.setattr(report, "merge_fragments", checked)


class _Handler(BaseHTTPRequestHandler):
    def do_GET(self):
        script = self.server.script
        with script.lock:
            index = script.count
            script.count += 1
            script.requests.append((self.path, self.headers))
        action = script.behavior(index)
        kind = action[0]
        if kind == "sleep":
            time.sleep(action[1])
            kind, action = "ok", ("ok",)
        if kind == "ok":
            body = action[1] if len(action) > 1 else BODY
            self.send_response(200)
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)
        elif kind == "status":
            self.send_response(action[1])
            self.send_header("Content-Length", "0")
            self.end_headers()
        elif kind == "redirect":
            self.send_response(302)
            self.send_header("Location", action[1])
            self.send_header("Content-Length", "0")
            self.end_headers()
        elif kind == "truncated":  # the body stops short of its Content-Length
            self.send_response(action[1] if len(action) > 1 else 200)
            self.send_header("Content-Length", str(len(BODY) + 100))
            self.end_headers()
            self.wfile.write(BODY)
            self.close_connection = True
        elif kind == "drip":  # the body one byte every action[1] seconds
            self.send_response(200)
            self.send_header("Content-Length", str(len(BODY)))
            self.end_headers()
            try:
                for byte in BODY:
                    self.wfile.write(bytes([byte]))
                    time.sleep(action[1])
            except OSError:  # the client gave up and closed
                pass
            self.close_connection = True
        elif kind == "garbage":  # a reply that is not HTTP
            self.wfile.write(b"not http at all\r\n\r\n")
            self.close_connection = True

    def log_message(self, *args):
        pass


class HttpFixture:
    def __init__(self, server):
        self.server = server
        self.lock = threading.Lock()
        self.count = 0
        self.requests = []  # (path, headers) of each request, in arrival order
        self.behavior = lambda index: ("ok",)

    @property
    def url(self):
        host, port = self.server.server_address[:2]
        return f"http://{f'[{host}]' if ':' in host else host}:{port}/object"

    def set_behavior(self, fn):
        with self.lock:
            self.count = 0
        self.behavior = fn


class _Ipv6Server(ThreadingHTTPServer):
    address_family = socket.AF_INET6

    def server_bind(self):  # without HTTPServer's reverse lookup of its own address
        socketserver.TCPServer.server_bind(self)
        self.server_name, self.server_port = "localhost", self.server_address[1]


@pytest.fixture
def http_fixture():
    yield from _serve(ThreadingHTTPServer, "127.0.0.1")


@pytest.fixture
def http_fixture_v6():
    """The HTTP fixture on the IPv6 loopback, where the host has one."""
    try:
        with socket.socket(socket.AF_INET6) as s:
            s.bind(("::1", 0))
    except OSError:
        pytest.skip("no IPv6 loopback")
    yield from _serve(_Ipv6Server, "::1")


def _serve(server_class, host):
    server = server_class((host, 0), _Handler)
    server.daemon_threads = True
    script = HttpFixture(server)
    server.script = script
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield script
    finally:
        server.shutdown()
        server.server_close()
