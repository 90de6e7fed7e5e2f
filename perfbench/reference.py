"""Fixed reference work that gauges how fast the host runs right now.

``work()`` imports nothing from cloudprobe and does the same kinds of work as
the program, always in the same amounts: numpy draws and searches, JSON
encoding and decoding of small record dicts, and tallies in Python dicts. The
benchmark times it in process between the measured steps and scales each
step's time by the reference's, so a host that runs everything slower for a
while does not move the figures, while a change to cloudprobe does (see
README.md, "Noise").
"""
from __future__ import annotations

import json

import numpy as np

RECORDS = 16_000


def work() -> int:
    """One fixed unit of reference work; returns a checksum."""
    rng = np.random.default_rng(20140803)
    ups = np.cumsum(rng.exponential(30_000.0, RECORDS))
    slots = np.arange(RECORDS) * 600.0
    where = np.searchsorted(ups, slots)
    jitter = rng.random(RECORDS)
    lines = [json.dumps({"slot": i, "vantage": i % 23, "attempt": 1 + int(where[i] % 3),
                         "outcome": "success" if jitter[i] < 0.99 else "fail",
                         "t": float(slots[i] + jitter[i])})
             for i in range(RECORDS)]
    tally: dict = {}
    for line in lines:
        rec = json.loads(line)
        key = (rec["vantage"], rec["attempt"])
        tally[key] = tally.get(key, 0) + (rec["outcome"] == "success")
    return sum(tally.values())
