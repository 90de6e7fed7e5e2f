"""Scripted HTTP target for the live-prober phase of the benchmark.

Run as a child process: ``python3 stub.py PERIOD FAILS OFFSET``. It serves one
request at a time (a plain single-threaded ``HTTPServer``) on an ephemeral
loopback port, prints ``READY <port>`` once it is listening, and answers the
index-th GET (counting from 0) with 503 when ``(index + OFFSET) % PERIOD <
FAILS`` and with 200 plus ``BODY`` otherwise. The parent stops it with
SIGTERM.
"""
from __future__ import annotations

import signal
import sys
from http.server import BaseHTTPRequestHandler, HTTPServer

BODY = b"cloudprobe benchmark object\n"


def scripted_failure(index: int, period: int, fails: int, offset: int) -> bool:
    """The stub's script: does the index-th request get a 503?"""
    return (index + offset) % period < fails


class _Handler(BaseHTTPRequestHandler):
    def do_GET(self):
        server = self.server
        index = server.count
        server.count += 1
        if scripted_failure(index, server.period, server.fails, server.offset):
            self.send_response(503)
            self.send_header("Content-Length", "0")
            self.end_headers()
            return
        self.send_response(200)
        self.send_header("Content-Length", str(len(BODY)))
        self.end_headers()
        self.wfile.write(BODY)

    def log_message(self, format, *args):
        pass


def main(argv) -> int:
    period, fails, offset = (int(a) for a in argv)
    server = HTTPServer(("127.0.0.1", 0), _Handler)
    server.period, server.fails, server.offset, server.count = period, fails, offset, 0
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(0))
    print(f"READY {server.server_address[1]}", flush=True)
    try:
        server.serve_forever()
    finally:
        server.server_close()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
