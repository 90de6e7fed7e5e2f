import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest

from cloudprobe.model import CLOUD_FAIL, FAIL, NETWORK_FAIL, SUCCESS, AttemptLog, AttemptRecord

BODY = b"cloudprobe test object\n"


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
                records.append(AttemptRecord(
                    ts_s=slot * interval + (attempt - 1) * gap,
                    vantage=vantage,
                    slot=slot,
                    attempt=attempt,
                    outcome=SUCCESS if ok else fails[int(rng.integers(3))],
                ))
    records.sort(key=lambda r: (r.ts_s, r.vantage, r.attempt))
    return AttemptLog.from_records(records), n


class _Handler(BaseHTTPRequestHandler):
    def do_GET(self):
        script = self.server.script
        with script.lock:
            index = script.count
            script.count += 1
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

    def log_message(self, *args):
        pass


class HttpFixture:
    def __init__(self, server):
        self.server = server
        self.lock = threading.Lock()
        self.count = 0
        self.behavior = lambda index: ("ok",)

    @property
    def url(self):
        host, port = self.server.server_address
        return f"http://{host}:{port}/object"

    def set_behavior(self, fn):
        with self.lock:
            self.count = 0
        self.behavior = fn


@pytest.fixture
def http_fixture():
    server = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
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
