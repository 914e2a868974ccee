"""Timing that cancels the host's drifting speed.

The shared host this benchmark was written on runs the same code up to 40%
slower or faster from one ten seconds to the next, and a plain Python loop
slows down with the workload at the same moments. So, while the rounds run,
a SIGALRM timer interrupts them every `PERIOD` seconds to run a fixed
reference loop (interpreter work, small-array NumPy and a small BLAS
product, none of it beamtrack's). The wall time between two samples, a
segment, is divided by the median of the reference times around it
(`WINDOW` samples on each side). Summed over an operation's segments this
gives the operation's cost in `ref`: multiples of the reference loop's time
at that moment. The time spent in the reference loop itself is left out of
both the cost and the plain wall time kept next to it.

Python runs a signal handler between two bytecodes of the main thread, so a
sample never cuts into a NumPy call; it only waits for its end.
"""

from __future__ import annotations

import signal
from contextlib import contextmanager
from statistics import median
from time import perf_counter

import numpy as np

PERIOD = 0.25  # seconds between timer samples
WINDOW = 3  # reference samples on each side of a segment

_MATRIX = np.random.default_rng(0).standard_normal((16, 16))


def reference_loop() -> float:
    """Run the fixed reference work once; return its wall time in seconds."""
    start = perf_counter()
    total = 0
    for i in range(50_000):
        total += i * i % 7
    x = np.ones(8)
    for _ in range(5_000):
        x = x * 0.5 + 1.0
    for _ in range(500):
        _MATRIX @ _MATRIX
    return perf_counter() - start


class Meter:
    """Reference samples and the segments of wall time between them.

    Segment i lies between `refs[i]` and `refs[i + 1]`. A mark, as returned
    by `mark()`, is the number of segments closed so far; `between(a, b)`
    gives the wall time and cost of segments a to b - 1 and is meant to be
    called after `run()` has ended, when every segment has samples on both
    sides. A Meter serves one `run()`.
    """

    def __init__(self):
        self.refs: list[float] = []
        self.segments: list[float] = []
        self.running = False
        self._last_end: float | None = None
        self._sampling = False

    def _sample(self) -> None:
        if self._sampling:
            return
        self._sampling = True
        try:
            now = perf_counter()
            self.refs.append(reference_loop())
            if self._last_end is not None:
                self.segments.append(now - self._last_end)
            self._last_end = perf_counter()
        finally:
            self._sampling = False

    def mark(self) -> int | None:
        """Sample now and return the mark; None outside `run()`."""
        if not self.running:
            return None
        self._sample()
        return len(self.segments)

    def between(self, a: int, b: int) -> tuple[float, float]:
        """(wall seconds, cost in ref) of segments a to b - 1."""
        busy = cost = 0.0
        for i in range(a, b):
            local = median(self.refs[max(0, i + 1 - WINDOW): i + 1 + WINDOW])
            busy += self.segments[i]
            cost += self.segments[i] / local
        return busy, cost

    @contextmanager
    def run(self):
        """Sample the reference loop every PERIOD seconds inside the block."""
        previous = signal.signal(signal.SIGALRM, lambda signum, frame: self._sample())
        self.running = True
        try:
            self._sample()
            signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            self._sample()
            self._last_end = None
            self.running = False
            signal.signal(signal.SIGALRM, previous)
