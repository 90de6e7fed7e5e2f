"""In-memory span recorder for the traced benchmark run.

A span is opened around each call into a cloudprobe module's public function.
It records its name, start and end (``time.perf_counter``), the span that was
open when it started, the workload id, counts taken from the call's result,
and how many generation-2 garbage collections ran while it was open (counted
through ``gc.callbacks``). Spans stay in memory until ``write`` dumps them.
"""
from __future__ import annotations

import contextlib
import functools
import gc
import json
import time


class Tracer:
    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[dict] = []
        self._open: list[dict] = []

    def _on_gc(self, phase, info):
        if phase == "start" and info["generation"] == 2:
            for span in self._open:
                span["gen2_collections"] += 1

    def __enter__(self):
        gc.callbacks.append(self._on_gc)
        return self

    def __exit__(self, *exc):
        gc.callbacks.remove(self._on_gc)

    @contextlib.contextmanager
    def span(self, name: str):
        """Open a span; the yielded dict's ``counts`` may be filled in."""
        span = {
            "id": len(self.spans),
            "parent": self._open[-1]["id"] if self._open else None,
            "workload": self.workload,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
            "counts": {},
            "gen2_collections": 0,
        }
        self.spans.append(span)
        self._open.append(span)
        try:
            yield span
        finally:
            span["end"] = time.perf_counter()
            self._open.pop()

    def wrap(self, name: str, fn, count=None):
        """``fn`` with a span around each call; ``count(result)`` gives counts."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as span:
                result = fn(*args, **kwargs)
                if count is not None:
                    span["counts"].update(count(result))
                return result
        return traced

    @contextlib.contextmanager
    def patched(self, targets):
        """Replace ``module.attr`` with a traced wrapper for each
        ``(module, attr, span_name, count)`` target, restoring on exit."""
        saved = []
        try:
            for module, attr, name, count in targets:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, count))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def named(self, name: str) -> list[dict]:
        return [s for s in self.spans if s["name"] == name]

    def self_time(self, span: dict) -> float:
        """The span's duration minus the time its direct children cover."""
        children = sum(s["end"] - s["start"] for s in self.spans if s["parent"] == span["id"])
        return (span["end"] - span["start"]) - children

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"workload": self.workload, "spans": self.spans}, f)
