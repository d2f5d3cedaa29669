"""Operation timing scaled by a reference workload.

The machine the benchmark was written on shares its cores with other
tenants: the same work took up to twice as long from one minute to the
next, which no run length the benchmark can afford averages out. Beside
every timed operation the clock therefore runs a fixed piece of
interpreter work that shares no code with the program (a probe), and
reports the operation's time in units of that work:

    scaled = seconds * REFERENCE_S / reference

where ``reference`` comes from the probes taken just before and just
after the operation. On a quiet machine the probe takes about REFERENCE_S, so scaled
times read as seconds there. A change to the program cannot move the
probes, so it moves the scaled times exactly as it moves the raw ones.
"""
from __future__ import annotations

import statistics
import time
from typing import Callable

REFERENCE_LOOPS = 5000
REFERENCE_S = 0.010  # probe time on a quiet core of the reference machine
PROBE_SHARE = 0.05  # probing time between operations, as a share of the last one
FIRST_PROBES = 8  # probes before the first operation, which has no predecessor


def reference_work() -> int:
    """String building and splitting, dict counting and a generator over
    zipped tuples: the kinds of interpreter work the program does most."""
    counts: dict[str, int] = {}
    for i in range(REFERENCE_LOOPS):
        labels = f"a{i % 97}.b{i % 13}.example.org".split(".")
        key = ",".join(reversed(labels))
        counts[key] = counts.get(key, 0) + 1
        all(x == y for x, y in zip(labels, labels))
    return len(counts)


class Clock:
    """Times operations with probes between them; ``scaled()`` gives their
    times in reference units, ``raw()`` as measured.

    Before each operation the clock probes for about PROBE_SHARE of the
    previous operation's time, at least once (FIRST_PROBES times before the
    first). An operation's reference is the mean of the medians of the probe
    groups just before and just after it: the machine may change speed
    while it runs, and probes further away would blur such a change.
    """

    def __init__(self):
        self.groups: list[list[float]] = [[]]  # groups[i] precede operation i
        self.ops: list[tuple[float, int]] = []  # (seconds, URIs)

    def probe(self) -> None:
        if self.ops:
            count = max(1, round(PROBE_SHARE * self.ops[-1][0] / REFERENCE_S))
        else:
            count = FIRST_PROBES
        for _ in range(count):
            start = time.perf_counter()
            reference_work()
            self.groups[-1].append(time.perf_counter() - start)

    def record(self, seconds: float, uris: int = 1) -> None:
        """An operation timed by the caller right after a ``probe()``."""
        self.ops.append((seconds, uris))
        self.groups.append([])

    def call(self, fn: Callable, uris: int = 1):
        self.probe()
        start = time.perf_counter()
        result = fn()
        self.record(time.perf_counter() - start, uris)
        return result

    def _reference(self, i: int) -> float:
        return (statistics.median(self.groups[i]) + statistics.median(self.groups[i + 1])) / 2

    def raw(self) -> list[tuple[float, int]]:
        return list(self.ops)

    def scaled(self) -> list[tuple[float, int]]:
        """Needs a ``probe()`` after the last operation."""
        return [(seconds * REFERENCE_S / self._reference(i), uris)
                for i, (seconds, uris) in enumerate(self.ops)]
