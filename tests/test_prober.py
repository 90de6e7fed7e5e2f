import hashlib
import itertools
import json
import math
import os
import re
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

from cloudprobe.estimators import first_try_availability, retry_filtered_availability
from cloudprobe.model import (CLOUD_FAIL, FAIL, SUCCESS, CampaignConfig, ConfigError,
                              MalformedLogError, aggregate_counts)
from cloudprobe.prober import ProbeTarget, probe_once, run_campaign
from cloudprobe.cli import main
from cloudprobe.detection import detect_outages
from cloudprobe import logs, prober

from conftest import BAD_URLS, BODY, Row, attempt_line, rows_of, write_config


def live_config(slots, interval=0.25, retry_max=2, gap=0.05, url="http://example.invalid/"):
    return CampaignConfig(
        probe_interval_s=interval,
        horizon_days=slots * interval / 86400.0,
        vantage_points=1,
        retry_max=retry_max,
        retry_gap_s=gap,
        seed=0,
        mode="live",
        target=url,
    )


class TestProbeOnce:
    def test_success_against_up_fixture(self, http_fixture):
        outcome, latency_ms, reason = probe_once(ProbeTarget(url=http_fixture.url))
        assert outcome == SUCCESS and latency_ms > 0 and reason is None

    def test_status_mismatch(self, http_fixture):
        http_fixture.set_behavior(lambda i: ("status", 503))
        assert probe_once(ProbeTarget(url=http_fixture.url)) == (FAIL, None, "status")

    def test_nondefault_success_status(self, http_fixture):
        http_fixture.set_behavior(lambda i: ("status", 204))
        target = ProbeTarget(url=http_fixture.url, success_statuses=frozenset({200, 204}))
        assert probe_once(target)[0] == SUCCESS

    def test_timeout(self, http_fixture):
        http_fixture.set_behavior(lambda i: ("sleep", 0.6))
        assert probe_once(ProbeTarget(url=http_fixture.url, timeout_ms=150)) == (
            FAIL, None, "timeout")

    def test_timeout_is_one_deadline_for_the_attempt(self, http_fixture):
        # each byte comes well within timeout_ms, the whole body (2.3 s) far outside it
        http_fixture.set_behavior(lambda i: ("drip", 0.1))
        started = time.monotonic()
        result = probe_once(ProbeTarget(url=http_fixture.url, timeout_ms=500))
        elapsed = time.monotonic() - started
        assert result == (FAIL, None, "timeout")
        assert elapsed < 0.75

    def test_slow_body_within_the_deadline_succeeds(self, http_fixture):
        http_fixture.set_behavior(lambda i: ("drip", 0.01))
        target = ProbeTarget(url=http_fixture.url, timeout_ms=5000,
                             expected_body_hash=hashlib.sha256(BODY).hexdigest())
        assert probe_once(target)[0] == SUCCESS

    def test_redirect_is_status_fail(self, http_fixture):
        http_fixture.set_behavior(lambda i: ("redirect", http_fixture.url + "x"))
        assert probe_once(ProbeTarget(url=http_fixture.url)) == (FAIL, None, "status")

    def test_digest_match_and_mismatch(self, http_fixture):
        good = hashlib.sha256(BODY).hexdigest()
        assert probe_once(ProbeTarget(url=http_fixture.url,
                                      expected_body_hash=good))[0] == SUCCESS
        bad = "0" * 64
        result = probe_once(ProbeTarget(url=http_fixture.url, expected_body_hash=bad))
        assert result == (FAIL, None, "digest")

    @pytest.mark.parametrize("action, statuses, reason", [
        (("truncated",), {200}, "connect"),
        (("truncated", 404), {404}, "connect"),  # an error status whose body counts
        (("garbage",), {200}, "status"),
    ], ids=["truncated", "truncated-error-status", "not-http"])
    def test_malformed_reply_is_a_fail(self, http_fixture, action, statuses, reason):
        http_fixture.set_behavior(lambda i: action)
        result = probe_once(ProbeTarget(url=http_fixture.url,
                                        success_statuses=frozenset(statuses)))
        assert result == (FAIL, None, reason)

    @pytest.mark.parametrize("kwargs", [
        {"outcome": "bogus"}, {"outcome": CLOUD_FAIL}, {"outcome": FAIL, "reason": "nope"},
        {"outcome": SUCCESS, "latency_ms": math.nan},
        {"outcome": SUCCESS, "latency_ms": math.inf},
    ])
    def test_result_validation(self, tmp_path, kwargs):
        # a probe_fn's result that the log would refuse stops the campaign in its slot,
        # naming the field; the log keeps the slots before it
        bad = (kwargs["outcome"], kwargs.get("latency_ms"), kwargs.get("reason"))
        results = itertools.chain([(SUCCESS, 1.0, None), (SUCCESS, 2.0, None)],
                                  itertools.repeat(bad))
        config = live_config(slots=4, interval=0.02, gap=0.005)
        log_path = tmp_path / "attempts.jsonl"
        field = (set(kwargs) - {"outcome"} or {"outcome"}).pop()
        with pytest.raises(ValueError, match=f"^{field} must be"):
            run_campaign(ProbeTarget(url=config.target), config, log_path,
                         probe_fn=lambda target: next(results))
        assert [(r.slot, r.attempt, r.outcome, r.latency_ms)
                for r in rows_of(logs.read_attempt_log(log_path))] == [
            (0, 1, SUCCESS, 1.0), (1, 1, SUCCESS, 2.0)]

    def test_connection_refused(self):
        with socket.socket() as s:
            s.bind(("127.0.0.1", 0))
            port = s.getsockname()[1]
        assert probe_once(ProbeTarget(url=f"http://127.0.0.1:{port}/")) == (FAIL, None, "connect")

    def test_dns_failure(self):
        outcome, _, reason = probe_once(ProbeTarget(url="http://no-such-host.invalid/object",
                                                     timeout_ms=5000))
        assert outcome == FAIL and reason in ("dns", "connect")

    def test_name_resolution_failure_is_dns(self, monkeypatch):
        # without a network lookup: the resolver fails as it does for an unknown name
        def no_such_name(*args, **kwargs):
            raise socket.gaierror(socket.EAI_NONAME, "Name or service not known")

        monkeypatch.setattr(socket, "getaddrinfo", no_such_name)
        result = probe_once(ProbeTarget(url="http://no-such-host.invalid/object"))
        assert result == (FAIL, None, "dns")

    def test_target_validation(self):
        with pytest.raises(ConfigError):
            ProbeTarget(url="ftp://host/object")
        with pytest.raises(ConfigError):
            ProbeTarget(url="http://host/", timeout_ms=0)
        with pytest.raises(ConfigError):
            ProbeTarget(url="http://host/", success_statuses=frozenset())

    @pytest.mark.parametrize("url", BAD_URLS)
    def test_bad_url_is_a_config_error(self, url):
        with pytest.raises(ConfigError, match=re.escape(f"target URL {url!r}")):
            ProbeTarget(url=url)

    def test_environment_proxy_is_not_used(self, http_fixture):
        # the probe measures the path to the target itself, with no proxy hop in it;
        # it runs in a fresh interpreter, which has made no probe before this one
        with socket.socket() as s:
            s.bind(("127.0.0.1", 0))
            closed = f"http://127.0.0.1:{s.getsockname()[1]}"
        env = {name: value for name, value in os.environ.items() if name != "NO_PROXY"}
        env.update(http_proxy=closed, https_proxy=closed, HTTP_PROXY=closed, no_proxy="",
                   PYTHONPATH=str(Path(prober.__file__).parents[1]))
        code = ("from cloudprobe.prober import ProbeTarget, probe_once; "
                f"print(probe_once(ProbeTarget({http_fixture.url!r}))[0])")
        run = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=env, check=True)
        assert run.stdout.split() == [SUCCESS]
        assert http_fixture.count == 1

    def test_request_is_one_get_of_path_and_query(self, http_fixture):
        origin = http_fixture.url.removesuffix("/object")
        for url in (http_fixture.url + "?sig=a%2Fb#frag", origin):
            assert probe_once(ProbeTarget(url=url))[0] == SUCCESS
        (path, headers), (bare, _) = http_fixture.requests
        assert (path, bare) == ("/object?sig=a%2Fb", "/")
        assert headers["User-Agent"] == "cloudprobe" and headers["Connection"] == "close"
        assert headers["Host"] == origin.removeprefix("http://")
        assert headers["Accept-Encoding"] == "identity"

    @pytest.mark.parametrize("url, address", [
        ("http://[::1]/x", ("::1", 80)), ("https://[::1]/x", ("::1", 443)),
        ("http://[2001:db8::1]/x", ("2001:db8::1", 80)),
        ("http://[fe80::abcd]/x", ("fe80::abcd", 80)),  # ends in what reads as a hex port
        ("http://[::1]:8080/x", ("::1", 8080)), ("http://127.0.0.1/x", ("127.0.0.1", 80))])
    def test_connects_to_the_host_and_port_of_the_url(self, monkeypatch, url, address):
        # an IPv6 host's colons are not a port, with or without one given
        seen = []

        def refuse(address, *args, **kwargs):
            seen.append(address)
            raise ConnectionRefusedError

        monkeypatch.setattr(socket, "create_connection", refuse)
        assert probe_once(ProbeTarget(url=url)) == (FAIL, None, "connect")
        assert seen == [address]

    def test_ipv6_literal_host(self, http_fixture_v6):
        assert probe_once(ProbeTarget(url=http_fixture_v6.url))[0] == SUCCESS
        (path, headers), = http_fixture_v6.requests
        assert path == "/object"
        assert headers["Host"] == http_fixture_v6.url.removeprefix("http://").split("/")[0]

    def test_one_tls_context_serves_every_https_probe(self, http_fixture, monkeypatch):
        # building a context loads the CA store, so the process builds one and keeps it
        import ssl
        built = []

        def create_default_context(*args, **kwargs):
            built.append(context := make(*args, **kwargs))
            return context

        make = ssl.create_default_context
        monkeypatch.setattr(ssl, "create_default_context", create_default_context)
        monkeypatch.setattr(prober, "_tls", None)
        target = ProbeTarget(url=http_fixture.url.replace("http:", "https:", 1))
        assert [probe_once(target) for _ in range(3)] == [(FAIL, None, "connect")] * 3
        assert len(built) == 1 and prober._tls is built[0]
        assert http_fixture.count == 0  # each handshake failed before a request

    def test_https_url_speaks_tls(self, http_fixture):
        # the fixture speaks plain HTTP, so the TLS handshake an https URL starts fails
        result = probe_once(ProbeTarget(url=http_fixture.url.replace("http:", "https:", 1)))
        assert result == (FAIL, None, "connect")

    def test_no_step_once_the_deadline_has_passed(self):
        # the socket is not touched and the step not called: the attempt is a timeout
        with pytest.raises(TimeoutError):
            prober._before(time.monotonic() - 1.0, None, pytest.fail, "stepped past the deadline")

    @pytest.mark.parametrize("digest", ["", "ab" * 31, "ab" * 33, "g" * 64, " " + "a" * 63])
    def test_expected_body_hash_must_be_a_sha256(self, digest):
        with pytest.raises(ConfigError, match="expected_body_hash"):
            ProbeTarget(url="http://host/", expected_body_hash=digest)
        assert ProbeTarget(url="http://host/", expected_body_hash="aB" * 32).expected_body_hash


def succeed_counting(calls):
    """A probe_fn that succeeds at once, appending each target it is given to calls."""
    return lambda target: calls.append(target) or (SUCCESS, 1.0, None)


def stopped_at(call, probe_fn):
    """probe_fn, but its call-th call (counted from 0) raises KeyboardInterrupt, as a
    Ctrl-C would."""
    count = itertools.count()

    def probe(target):
        if next(count) == call:
            raise KeyboardInterrupt
        return probe_fn(target)
    return probe


def fail_then_succeed():
    """A probe_fn that fails its odd calls (the first, the third, ...) and succeeds
    the even ones: under retry_max 2 or more, each slot fails once, then succeeds."""
    results = itertools.cycle([(FAIL, None, "connect"), (SUCCESS, 1.0, None)])
    return lambda target: next(results)


class TestRunCampaign:
    def test_always_up_fixture(self, http_fixture, tmp_path):
        config = live_config(slots=5, url=http_fixture.url)
        log_path = tmp_path / "attempts.jsonl"
        records = run_campaign(ProbeTarget(url=http_fixture.url), config, log_path)
        counts = aggregate_counts(records, retry_max=config.retry_max)
        assert counts.attempts[0] == 5
        assert counts.successes[0] == 5
        # live logs must pass the same structural path as simulated ones
        reread = logs.read_attempt_log(log_path)
        assert aggregate_counts(reread, retry_max=config.retry_max) == counts

    def test_scheduled_outage_yields_one_run(self, http_fixture, tmp_path):
        # retry_max=1 maps requests 1:1 onto slots; fail slots 3-5
        http_fixture.set_behavior(lambda i: ("status", 503) if 3 <= i <= 5 else ("ok",))
        config = live_config(slots=8, retry_max=1, gap=0.0, url=http_fixture.url)
        records = run_campaign(ProbeTarget(url=http_fixture.url), config,
                               tmp_path / "attempts.jsonl")
        runs = detect_outages(records)
        assert runs.tolist() == [[3, 3]]  # first_slot, slot_count

    def test_log_reads_back_to_its_own_values(self, http_fixture, tmp_path):
        # ts_s and latency_ms go to the log at 1 us, and the log has no sidecar, so
        # json.loads reads each line back to the value the prober wrote
        http_fixture.set_behavior(lambda i: ("status", 503) if i % 3 == 0 else ("ok",))
        config = live_config(slots=6, retry_max=2, url=http_fixture.url)
        log_path = tmp_path / "attempts.jsonl"
        run_campaign(ProbeTarget(url=http_fixture.url), config, log_path)
        assert not os.path.exists(logs.sidecar_path(log_path))
        rows = [json.loads(line) for line in log_path.read_text().splitlines()]
        assert len(rows) > 6
        assert rows_of(logs.read_attempt_log(log_path)) == [
            Row(row["ts_s"], row["vantage"], row["slot"], row["attempt"], row["outcome"],
                row.get("latency_ms"), row.get("reason")) for row in rows]
        assert all(round(row["ts_s"], 6) == row["ts_s"] for row in rows)
        latencies = [row["latency_ms"] for row in rows if "latency_ms" in row]
        assert latencies and all(round(x, 3) == x for x in latencies)

    def test_flaky_first_attempt_inflates_retry_filtered(self, http_fixture, tmp_path):
        # every slot: attempt 1 fails, attempt 2 succeeds
        http_fixture.set_behavior(lambda i: ("status", 503) if i % 2 == 0 else ("ok",))
        config = live_config(slots=6, retry_max=2, url=http_fixture.url)
        records = run_campaign(ProbeTarget(url=http_fixture.url), config,
                               tmp_path / "attempts.jsonl")
        counts = aggregate_counts(records, retry_max=config.retry_max)
        assert first_try_availability(counts) == 0.0
        assert retry_filtered_availability(counts) == 1.0

    def test_unreachable_target_still_writes_valid_log(self, tmp_path):
        with socket.socket() as s:
            s.bind(("127.0.0.1", 0))
            port = s.getsockname()[1]
        config = live_config(slots=3, retry_max=2, url=f"http://127.0.0.1:{port}/")
        records = run_campaign(ProbeTarget(url=config.target), config,
                               tmp_path / "attempts.jsonl")
        counts = aggregate_counts(records, retry_max=config.retry_max)
        assert counts.attempts == (3, 3)
        assert counts.total_successes == 0
        assert all(r.reason == "connect" for r in rows_of(records))

    def test_campaign_continues_past_malformed_replies(self, http_fixture, tmp_path):
        bad = {1: ("truncated",), 3: ("garbage",)}
        http_fixture.set_behavior(lambda i: bad.get(i, ("ok",)))
        config = live_config(slots=4, retry_max=2, url=http_fixture.url)
        log_path = tmp_path / "attempts.jsonl"
        records = run_campaign(ProbeTarget(url=http_fixture.url), config, log_path)
        assert [(r.slot, r.attempt, r.outcome, r.reason) for r in rows_of(records)] == [
            (0, 1, SUCCESS, None), (1, 1, FAIL, "connect"), (1, 2, SUCCESS, None),
            (2, 1, FAIL, "status"), (2, 2, SUCCESS, None), (3, 1, SUCCESS, None)]
        # the prober's lines are the ones write_attempt_log gives for the same records
        logs.write_attempt_log(tmp_path / "rewritten.jsonl", records)
        assert (tmp_path / "rewritten.jsonl").read_bytes() == log_path.read_bytes()

    def test_bad_probe_result_fails_before_any_line(self, tmp_path):
        config = live_config(slots=2)
        log_path = tmp_path / "attempts.jsonl"
        with pytest.raises(ValueError, match="bogus"):
            run_campaign(ProbeTarget(url=config.target), config, log_path,
                         probe_fn=lambda target: ("bogus", None, None))
        assert log_path.read_text() == ""

    def test_one_fsync_per_slot(self, tmp_path, monkeypatch):
        # each slot fails once, then succeeds: 8 attempts in 4 slots, and each fsync
        # comes after a slot's last line
        config = live_config(slots=4, interval=0.02, retry_max=3, gap=0.005)
        log_path = tmp_path / "attempts.jsonl"
        synced = []  # the log's line count at each fsync
        fsync = os.fsync
        monkeypatch.setattr(os, "fsync", lambda fd: synced.append(
            len(log_path.read_bytes().splitlines())) or fsync(fd))
        records = run_campaign(ProbeTarget(url=config.target), config, log_path,
                               probe_fn=fail_then_succeed())
        assert len(records) == 8
        assert synced == [2, 4, 6, 8]

    def test_campaign_stopped_on_a_retry_leaves_a_valid_log(self, tmp_path):
        # each slot fails once, then succeeds; the campaign stops (as on Ctrl-C) in place
        # of slot 2's second attempt, and its log holds slots 0 and 1 whole
        config = live_config(slots=4, interval=0.02, retry_max=3, gap=0.005)
        log_path = tmp_path / "attempts.jsonl"
        with pytest.raises(KeyboardInterrupt):
            run_campaign(ProbeTarget(url=config.target), config, log_path,
                         probe_fn=stopped_at(5, fail_then_succeed()))
        log = logs.read_attempt_log(log_path)
        assert [(r.slot, r.attempt, r.outcome) for r in rows_of(log)] == [
            (0, 1, FAIL), (0, 2, SUCCESS), (1, 1, FAIL), (1, 2, SUCCESS)]
        assert aggregate_counts(log, retry_max=3, path=log_path).attempts == (2, 2, 0)
        ini = tmp_path / "live.ini"
        write_config(ini, config)
        assert main(["estimate", "--config", str(ini), "--log", str(log_path),
                     "--out", str(tmp_path)]) == 0

    def test_a_new_campaign_replaces_the_log(self, tmp_path):
        # without resume, a log already at the path (here of another campaign's three
        # slots, at another vantage) is replaced, and probing starts at slot 0
        config = live_config(slots=2, interval=0.02, gap=0.005)
        log_path = tmp_path / "attempts.jsonl"
        log_path.write_text("".join(attempt_line(0.25 * slot, 3, slot, 1, SUCCESS, 1.25)
                                    for slot in range(3)))
        calls = []
        records = run_campaign(ProbeTarget(url=config.target), config, log_path,
                               probe_fn=succeed_counting(calls))
        assert len(calls) == 2
        assert [(r.vantage, r.slot, r.attempt) for r in rows_of(records)] == [(0, 0, 1), (0, 1, 1)]
        assert rows_of(logs.read_attempt_log(log_path)) == rows_of(records)

    def test_resume_never_duplicates_slots(self, http_fixture, tmp_path):
        config = live_config(slots=6, url=http_fixture.url)
        log_path = tmp_path / "attempts.jsonl"

        # a campaign stopped inside slot 3: its first attempt fails, and the campaign
        # stops in place of the second, so the log holds slots 0-2 and none of slot 3
        http_fixture.set_behavior(lambda i: ("status", 503) if i == 3 else ("ok",))
        with pytest.raises(KeyboardInterrupt):
            run_campaign(ProbeTarget(url=http_fixture.url), config, log_path,
                         probe_fn=stopped_at(4, probe_once))
        assert len(http_fixture.requests) == 4
        assert [(r.slot, r.attempt) for r in rows_of(logs.read_attempt_log(log_path))] == [
            (0, 1), (1, 1), (2, 1)]

        records = run_campaign(ProbeTarget(url=http_fixture.url), config, log_path,
                               resume=True)
        slots = [r.slot for r in rows_of(records) if r.attempt == 1]
        assert slots == sorted(set(slots)) == list(range(6))
        reread = rows_of(logs.read_attempt_log(log_path))
        assert [r.slot for r in reread if r.attempt == 1] == list(range(6))
        # slot 3 was probed again from its first attempt
        assert [(r.attempt, r.outcome) for r in reread if r.slot == 3] == [(1, SUCCESS)]
        # no column sidecar and no checkpoint file: the log is its own
        assert sorted(p.name for p in tmp_path.iterdir()) == ["attempts.jsonl"]

    @pytest.mark.parametrize("last", [
        [(SUCCESS, None)],
        [(FAIL, "status"), (FAIL, "status")],  # failed at retry_max: not probed again
    ], ids=["success", "failed-at-retry-max"])
    def test_resume_reads_the_last_slot_from_the_log(self, tmp_path, last):
        # slots 0-1 succeeded; slot 2 ends as last says
        config = live_config(slots=5, interval=0.02, gap=0.005)
        log_path = tmp_path / "attempts.jsonl"
        done = "".join(attempt_line(0.02 * slot, 0, slot, 1, SUCCESS, 1.25)
                       for slot in range(2))
        tail = "".join(attempt_line(0.04 + 0.005 * i, 0, 2, i + 1, outcome, None, reason)
                       for i, (outcome, reason) in enumerate(last))
        log_path.write_text(done + tail)
        calls = []
        records = run_campaign(ProbeTarget(url=config.target), config, log_path, resume=True,
                               probe_fn=succeed_counting(calls))
        assert len(calls) == 2
        assert [r.slot for r in rows_of(records) if r.attempt == 1] == list(range(5))
        assert log_path.read_text().startswith(done + tail)

    def test_resume_refuses_a_slot_cut_short(self, tmp_path):
        # slots 0-1 succeeded, and slot 2 ends after its first failed attempt of 2, as
        # only an older version, a torn write or a hand edit leaves a log: refused
        # before any probe, the log unchanged
        config = live_config(slots=5, interval=0.02, gap=0.005)
        log_path = tmp_path / "attempts.jsonl"
        log_path.write_text("".join(attempt_line(0.02 * slot, 0, slot, 1, SUCCESS, 1.25)
                                    for slot in range(2))
                            + attempt_line(0.04, 0, 2, 1, FAIL, None, "status"))
        before = log_path.read_bytes()
        calls = []
        with pytest.raises(MalformedLogError,
                           match="slot=2: slot ended after failed attempt 1 of 2"):
            run_campaign(ProbeTarget(url=config.target), config, log_path, resume=True,
                         probe_fn=succeed_counting(calls))
        assert calls == []
        assert log_path.read_bytes() == before

    def test_failed_resume_rewrite_keeps_the_log(self, tmp_path, monkeypatch):
        # slots 0-1 succeeded, slot 2 partial: resume neither rewrites the log nor
        # probes, and leaves the directory as it found it, even where a rewrite would
        # crash after its first chunk
        config = live_config(slots=4)
        log_path = tmp_path / "attempts.jsonl"
        log_path.write_text(attempt_line(0.0, 0, 0, 1, SUCCESS, 1.25)
                            + attempt_line(0.25, 0, 1, 1, SUCCESS, 1.25)
                            + attempt_line(0.5, 0, 2, 1, FAIL, None, "connect"))
        before = sorted(tmp_path.iterdir()), log_path.read_bytes()
        chunk_text = logs._chunk_text
        written = []

        def crash_after_first_chunk(log):
            if written:
                raise RuntimeError("disk gone")
            written.append(len(log))
            return chunk_text(log)

        monkeypatch.setattr(logs, "_CHUNK", 1)
        monkeypatch.setattr(logs, "_chunk_text", crash_after_first_chunk)
        with pytest.raises(MalformedLogError, match="slot=2: slot ended after failed attempt 1"):
            run_campaign(ProbeTarget(url=config.target), config, log_path, resume=True,
                         probe_fn=lambda target: pytest.fail("probed before the log was kept"))
        assert written == []
        assert (sorted(tmp_path.iterdir()), log_path.read_bytes()) == before

    def test_stale_checkpoint_file_is_not_read(self, tmp_path):
        # a checkpoint file that an older version left, beside a run aborted inside
        # slot 0, which leaves an empty log: resume goes by the log alone, so no slot
        # is skipped
        config = live_config(slots=4, interval=0.02, gap=0.005)
        log_path = tmp_path / "attempts.jsonl"
        stale = tmp_path / "attempts.jsonl.checkpoint"
        stale.write_text("2\n")
        calls = []

        def abort_at_second_attempt(target):
            if calls:
                raise RuntimeError("aborted")
            calls.append(target)
            return FAIL, None, "connect"

        with pytest.raises(RuntimeError, match="aborted"):
            run_campaign(ProbeTarget(url=config.target), config, log_path,
                         probe_fn=abort_at_second_attempt)
        assert log_path.read_bytes() == b""
        calls.clear()
        records = run_campaign(ProbeTarget(url=config.target), config, log_path, resume=True,
                               probe_fn=succeed_counting(calls))
        assert [(r.slot, r.attempt, r.outcome) for r in rows_of(records)] == [
            (slot, 1, SUCCESS) for slot in range(4)]
        assert len(calls) == 4
        assert stale.read_text() == "2\n"  # neither read nor removed

    def test_resume_under_another_retry_max_probes_nothing(self, tmp_path):
        # written under retry_max 2: slot 0 failed both attempts, slot 1 succeeded
        config = live_config(slots=4, retry_max=3)
        log_path = tmp_path / "attempts.jsonl"
        log_path.write_text(attempt_line(0.0, 0, 0, 1, FAIL, None, "status")
                            + attempt_line(0.05, 0, 0, 2, FAIL, None, "status")
                            + attempt_line(0.25, 0, 1, 1, SUCCESS, 1.25))
        before = log_path.read_bytes()
        calls = []
        with pytest.raises(MalformedLogError,
                           match="slot=0: slot ended after failed attempt 2 of 3"):
            run_campaign(ProbeTarget(url=config.target), config, log_path, resume=True,
                         probe_fn=succeed_counting(calls))
        assert calls == []
        assert log_path.read_bytes() == before

    @pytest.mark.parametrize("vantage, slots", [(0, 6), (3, 2)],
                             ids=["more-slots-than-the-config", "another-vantage"])
    def test_resume_refuses_a_log_of_another_schedule(self, tmp_path, vantage, slots):
        # a 4-slot campaign at vantage 0 resumes neither a longer log nor another
        # vantage's: exit 2 before any probe, the log unchanged
        config = live_config(slots=4)
        log_path = tmp_path / "attempts.jsonl"
        log_path.write_text("".join(attempt_line(0.25 * slot, vantage, slot, 1, SUCCESS, 1.25)
                                    for slot in range(slots)))
        before = log_path.read_bytes()
        calls = []
        with pytest.raises(MalformedLogError, match=re.escape(
                f"{log_path}: a record lies outside this campaign's vantage 0, slots 0 to 3")):
            run_campaign(ProbeTarget(url=config.target), config, log_path, resume=True,
                         probe_fn=succeed_counting(calls))
        assert calls == []
        assert log_path.read_bytes() == before

    def test_schedule_fidelity_within_one_percent(self, http_fixture, tmp_path):
        interval = 1.0
        config = live_config(slots=4, interval=interval, retry_max=1, gap=0.0,
                             url=http_fixture.url)
        records = run_campaign(ProbeTarget(url=http_fixture.url), config,
                               tmp_path / "attempts.jsonl")
        for rec in rows_of(records):
            if rec.attempt == 1:
                assert abs(rec.ts_s - rec.slot * interval) < 0.01 * interval

    def test_mode_must_be_live(self, http_fixture, tmp_path):
        config = CampaignConfig(probe_interval_s=0.25, horizon_days=1e-5,
                                retry_max=1, retry_gap_s=0.0)
        with pytest.raises(ConfigError):
            run_campaign(ProbeTarget(url=http_fixture.url), config, tmp_path / "x.jsonl")
