"""Live HTTP probing on the same slot/retry schedule the simulator uses.

One scheduler owns the slot clock; attempts within a slot run sequentially.
Once a slot ends, logs.encode checks its records as a read does, and they append
to the JSONL log in one write and one fsync. So a stopped campaign leaves a log
of whole slots, and the log is its own checkpoint: --resume goes on after its
last slot. Live probes cannot attribute cause, so outcomes are only success/fail
plus a reason code.
"""
from __future__ import annotations

import hashlib
import math
import numbers
import os
import re
import time
import urllib.parse
from dataclasses import dataclass

from .model import (FAIL, SUCCESS, AttemptLog, CampaignConfig, ConfigError, MalformedLogError,
                    aggregate_counts)
from . import logs


@dataclass(frozen=True)
class ProbeTarget:
    """A stored object to fetch, with the success criteria for one attempt."""

    url: str
    timeout_ms: float = 30000.0
    success_statuses: frozenset[int] = frozenset({200})
    expected_body_hash: str | None = None  # hex sha256 of the expected body

    def __post_init__(self):
        try:  # on a malformed IPv6 literal, or a port that is not a number in 0-65535
            url = urllib.parse.urlsplit(self.url)
            port = url.port
        except ValueError as exc:
            raise ConfigError(f"target URL {self.url!r}: {exc}") from None
        if url.scheme not in ("http", "https"):
            raise ConfigError(f"target URL must be http(s), got {self.url!r}")
        if not url.hostname or port == 0:
            raise ConfigError(f"target URL {self.url!r} needs a host and a port other than 0")
        if re.search(r"[\x00-\x20\x7f]", self.url):  # http.client sends none of them
            raise ConfigError(f"target URL {self.url!r} has a space or control character")
        if not 0 < self.timeout_ms < math.inf:
            raise ConfigError("timeout_ms must be finite and > 0")
        if not self.success_statuses:
            raise ConfigError("success_statuses must be nonempty")
        if self.expected_body_hash is not None and not re.fullmatch(
                "[0-9a-fA-F]{64}", self.expected_body_hash):
            raise ConfigError("expected_body_hash must be 64 hex digits (a sha256), "
                              f"got {self.expected_body_hash!r}")


_tls = None  # the one client TLS context of the process, built by its first https probe


def probe_once(target: ProbeTarget) -> tuple[str, float | None, str | None]:
    """Fetch the target once by a direct GET on a connection of its own, which
    follows no redirect and goes through no proxy; success needs the whole
    response within timeout_ms, an allowed status and (when configured) a
    matching body digest. Returns (outcome, latency_ms, reason) as the log
    records them: (success, ms, None) or (fail, None, reason)."""
    import http.client  # on first use, so that only `probe` loads the HTTP stack
    import socket
    global _tls

    url = urllib.parse.urlsplit(target.url)
    if (https := url.scheme == "https") and _tls is None:  # a new one loads the CA store, ~30 ms
        import ssl
        _tls = ssl.create_default_context()  # it resumes no session: each handshake is full
        _tls.set_alpn_protocols(["http/1.1"])  # as http.client sets up its own
    connection = http.client.HTTPSConnection if https else http.client.HTTPConnection
    path = (url.path or "/") + (f"?{url.query}" if url.query else "")
    # a port always, since http.client would read one out of an IPv6 host's colons
    conn = connection(url.hostname, url.port or connection.default_port,
                      timeout=target.timeout_ms / 1000.0, **({"context": _tls} if https else {}))
    started = time.monotonic()
    deadline = started + target.timeout_ms / 1000.0  # one for connect, headers and body
    try:
        conn.request("GET", path, headers={"User-Agent": "cloudprobe", "Connection": "close"})
        sock = conn.sock  # the response reads through it, also once getresponse drops it
        resp = _before(deadline, sock, conn.getresponse)
        if resp.status not in target.success_statuses:  # a 3xx too: no redirect is followed
            return FAIL, None, "status"
        body = hashlib.sha256()
        # one read a piece, within the deadline; none once the response (and so sock) closes
        while not resp.isclosed() and (piece := _before(deadline, sock, resp.read1, 1 << 16)):
            body.update(piece)
        if resp.length:  # the server closed before Content-Length bytes came
            raise http.client.IncompleteRead(b"", resp.length)
    except socket.gaierror:
        return FAIL, None, "dns"
    except TimeoutError:  # socket.timeout is an alias of it since Python 3.10
        return FAIL, None, "timeout"
    except (OSError, http.client.IncompleteRead):  # refused, reset, TLS, or cut mid-body
        return FAIL, None, "connect"
    except http.client.HTTPException:  # a reply that is not HTTP
        return FAIL, None, "status"
    finally:
        conn.close()

    latency_ms = (time.monotonic() - started) * 1000.0
    if target.expected_body_hash is not None:
        if body.hexdigest() != target.expected_body_hash.lower():
            return FAIL, None, "digest"
    return SUCCESS, latency_ms, None


def _before(deadline: float, sock, step, *args):
    """step(*args) with sock's timeout the time left before deadline (monotonic
    seconds); TimeoutError once none is left."""
    if (left := deadline - time.monotonic()) <= 0:
        raise TimeoutError
    sock.settimeout(left)
    return step(*args)


def _sleep_until(deadline_mono: float) -> None:
    while (remaining := deadline_mono - time.monotonic()) > 0:
        time.sleep(remaining)


def run_campaign(target: ProbeTarget, config: CampaignConfig, log_path,
                 resume: bool = False, probe_fn=probe_once) -> AttemptLog:
    """Run the live slot schedule against the target, appending to log_path.

    Slot epochs stay aligned to origin + k*T (drift from slow slots is never
    carried forward). A slot's records are written and fsynced together after its
    last attempt, so the log never ends inside a slot this prober wrote. On resume,
    the log's records must fit retry_max (a slot cut short does not), vantage 0 and
    the slots, else MalformedLogError before any probe, the log unchanged; probing
    goes on after its last slot, the origin re-anchored so ts_s remains ~ slot*T
    and nondecreasing across the gap. Returns the whole log as written, read back.

    probe_fn is the probe adapter seam: any callable returning probe_once's
    (outcome, latency_ms, reason) for a ProbeTarget can stand in for the HTTP
    fetch; only HTTP ships. A result other than success or fail, or one a read
    would refuse, raises ValueError naming the field before its slot is written.
    """
    if config.mode != "live":
        raise ConfigError("run_campaign requires mode=live")
    if config.vantage_points != 1:
        raise ConfigError("live campaigns are single-host; vantage_points must be 1")

    last_done = -1  # an int, not numpy's, which would make each ts_s a numpy float
    if not resume and os.path.exists(log_path):
        os.remove(log_path)
    elif os.path.exists(log_path):
        written = logs.read_attempt_log(log_path)
        aggregate_counts(written, retry_max=config.retry_max, path=log_path)
        if written.vantage.any() or written.slot.max(initial=-1) >= config.slots:
            raise MalformedLogError(None, None, "a record lies outside this campaign's vantage 0,"
                                    f" slots 0 to {config.slots - 1}", log_path)
        last_done = int(written.slot.max(initial=-1))

    interval = config.probe_interval_s
    start_slot = last_done + 1
    origin = time.monotonic() - start_slot * interval

    with open(log_path, "ab") as log:
        for slot in range(start_slot, config.slots):
            _sleep_until(origin + slot * interval)
            rows = []
            for attempt in range(1, config.retry_max + 1):
                # to 1 us, for short lines; rounding is monotone, so ts_s stays nondecreasing
                ts = round(time.monotonic() - origin, 6)
                outcome, latency, reason = probe_fn(target)
                if outcome not in (SUCCESS, FAIL):  # a live probe cannot name a cause
                    raise ValueError(f"outcome must be {SUCCESS} or {FAIL}, got {outcome!r}")
                # None, or a real number (a Python or numpy int or float, never a bool)
                if isinstance(latency, bool) or not isinstance(latency, (numbers.Real, type(None))):
                    raise ValueError(f"latency_ms must be a number, got {latency!r}")
                rows.append((ts, 0, slot, attempt, outcome, None if latency is None
                             else round(logs._named("latency_ms", float, latency), 3), reason))
                if outcome == SUCCESS:
                    break
                if attempt < config.retry_max:
                    _sleep_until(origin + slot * interval + attempt * config.retry_gap_s)
            log.write(logs.encode(rows))
            log.flush()
            os.fsync(log.fileno())
    return logs.read_attempt_log(log_path)
