"""The clock for the benchmark's timings.

On the shared two-vCPU VM where the benchmark was defined, the speed of one
vCPU swings by up to 2x within a minute.  A process on the other vCPU does
not see the same swings, but a probe run in the same process does.  So
``RefClock`` runs a short fixed probe (the dict and tuple reads the library
does, with the garbage collector off) at every reading, and counts the wall
time between two readings at the rate ``REF_PROBE_S / p``, where p is the
mean of the probe times before and after it (each the median of the last
three probes).  Time spent in probes is not counted.  At the reference speed
one reference second is one wall second.  In a traced run the tracer
records every reading as a span of its own, so no probe time counts as any
layer's self time.
"""

from __future__ import annotations

import gc
from statistics import median
from time import perf_counter

REF_PROBE_S = 0.0025  # median probe time on the defining VM in a slow phase
PROBE_WINDOW = 3  # probes whose median sets the rate

_N = 2000
_ROUNDS = 3  # about 2.5 ms a probe in a slow phase
# Built once at import, so that a probe reads the same memory whatever the
# library has allocated and freed: a probe that allocates its own objects
# slowed from 1.2 ms to 2 ms once a survey had fragmented the heap.
_EDGES = tuple(((i * 7 + 1) % _N, (i * 13 + 5) % _N, (i * 31 + 2) % _N) for i in range(_N))
_TABLE = {(i, i % 7): (i % 5, i % 3, i % 11) for i in range(_N)}
_KEYS = tuple(_TABLE)


def probe_work() -> int:
    """Breadth-first searches over a fixed graph, then lookups of every
    tuple key of a fixed dict."""
    total = 0
    for _ in range(_ROUNDS):
        seen = bytearray(_N)
        seen[0] = 1
        frontier = [0]
        while frontier:
            nxt = []
            for u in frontier:
                for v in _EDGES[u]:
                    if not seen[v]:
                        seen[v] = 1
                        nxt.append(v)
            total += len(nxt)
            frontier = nxt
        for key in _KEYS:
            total += _TABLE[key][2]
    return total


class RefClock:
    """``now()`` runs a probe and returns the reference seconds up to it."""

    def __init__(self) -> None:
        self.ref = 0.0  # reference seconds up to ``since``
        self.since = 0.0  # perf_counter() at the end of the last probe
        self.recent: list[float] = []  # the last PROBE_WINDOW probe times
        self.probes = 0
        self.probe_s = 0.0
        for _ in range(PROBE_WINDOW):
            self.now()

    def now(self) -> float:
        start = perf_counter()
        collecting = gc.isenabled()
        gc.disable()
        try:
            probe_work()
        finally:
            if collecting:
                gc.enable()
        end = perf_counter()
        before = median(self.recent) if self.recent else end - start
        self.recent = (self.recent + [end - start])[-PROBE_WINDOW:]
        if self.probes:
            self.ref += (start - self.since) * 2 * REF_PROBE_S / (before + median(self.recent))
        self.since = end
        self.probes += 1
        self.probe_s += end - start
        return self.ref

