"""Machine-speed probe: rescales measured times to one reference speed.

The benchmark runs on a few cores of a shared host. As other tenants load
it, the speed of the same pure-Python code changes by up to a factor of two
within a second, and CPU time follows wall time, so neither measures the
program alone. While a run measures, an interval timer interrupts the worker
every `PERIOD_S` and times a short fixed loop (`_probe_loop`), which is the
kind of float arithmetic the series kernels do. Each stretch of time between
two probes is then scaled by the mean of `REFERENCE_PROBE_S / p` at its two
ends, where `p` is the median duration of the probes around that end. The
result is the time the same work takes while the probe loop takes
`REFERENCE_PROBE_S`. The probes' own time is not counted.
"""

from __future__ import annotations

import math
import signal
import time
from statistics import median

PERIOD_S = 0.02
# about the fastest the probe loop ran on the 2-core reference machine of
# README.md; it fixes the scale of every scaled time, and only the scale
REFERENCE_PROBE_S = 1.25e-4
# a stretch's speed is the median of this many probes on each side of it
HALF_WINDOW = 2


def _probe_loop() -> float:
    s = 0.0
    for k in range(1, 400):
        s += math.exp(-math.lgamma(0.5 * k + 1.0) + k * 0.7) * (-1) ** k
    return s


class SpeedProbe:
    """Times `_probe_loop` on every timer tick and on each `mark()`."""

    def __init__(self) -> None:
        self.marks: list[tuple[float, float]] = []  # (start, end), time.monotonic
        self._busy = False
        self._old_handler = None

    def _probe(self, *_) -> None:
        if self._busy:  # a tick during a mark() probe
            return
        self._busy = True
        t0 = time.monotonic()
        _probe_loop()
        self.marks.append((t0, time.monotonic()))
        self._busy = False

    def mark(self) -> int:
        """Probe now; return the index of this probe."""
        self._probe()
        return len(self.marks) - 1

    def start(self) -> int:
        self._old_handler = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self.mark()

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._old_handler)

    def speed(self, k: int) -> float:
        """Reference probe time over the median probe time around probe k."""
        lo, hi = max(0, k - HALF_WINDOW), min(len(self.marks), k + HALF_WINDOW + 1)
        return REFERENCE_PROBE_S / median(e - s for s, e in self.marks[lo:hi])

    def scaled(self, first: int, last: int) -> float:
        """Scaled time from the end of probe `first` to the start of `last`,
        probe time excluded."""
        total = 0.0
        for k in range(first + 1, last + 1):
            gap = self.marks[k][0] - self.marks[k - 1][1]
            total += gap * 0.5 * (self.speed(k - 1) + self.speed(k))
        return total
