"""A fixed reference workload that measures how fast the CPU runs right now.

The benchmark runs on shared virtual machines whose CPU speed drifts by
10-50% over tens of seconds to minutes (see README.md, "Noise"). Work running
at the same moment slows down alike, so while a pass runs, a timer signal
interrupts it every INTERVAL_S to time one reference unit, and right after
set-up a block of units runs. The times are reported scaled to the
reference speed:

    scaled = wall * UNIT_S / (mean measured unit time)

A unit is interpreter work: a Python float loop and numpy scalar arithmetic.
It touches no twotone code, and its working set stays in cache. On a steady
machine the scaled time is the wall time times a constant."""

from __future__ import annotations

import signal
import time

import numpy as np

# A typical unit time on the 2-vCPU Intel Xeon machine the benchmark was
# written on. It fixes the scale only: comparisons between two commits run
# the same units.
UNIT_S = 0.0012
INTERVAL_S = 0.05  # between units while a pass runs: about 2.5% of its time


def _unit() -> float:
    s = 0.0
    for i in range(6000):
        s += (i * 0.5) ** 0.5
    x = np.float64(0.5)
    for _ in range(600):
        x = np.exp(-0.5 * x) * np.cos(x)
    return s + float(x)


def unit_time() -> float:
    """Seconds one reference unit takes now."""
    start = time.perf_counter()
    _unit()
    return time.perf_counter() - start


def block(seconds: float) -> tuple[int, float]:
    """Run units for about ``seconds``; returns (units, their summed seconds)."""
    n, total = 0, 0.0
    while n == 0 or total < seconds:
        total += unit_time()
        n += 1
    return n, total


class Sampler:
    """Times one unit every INTERVAL_S of wall time while the block runs.

    The units run in a SIGALRM handler, in the main thread between two
    bytecodes of whatever runs, so they sample the speed evenly over the
    block; no thread or process is started. ``seconds`` is their summed time
    inside the block, which the caller takes out of its wall time."""

    def __enter__(self) -> "Sampler":
        self._times = [unit_time()]  # before the block, so a short block has a speed
        self.seconds = 0.0
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def _tick(self, signum, frame) -> None:
        seconds = unit_time()
        self._times.append(seconds)
        self.seconds += seconds

    def scale(self) -> float:
        """UNIT_S over the mean unit time: multiplies a time measured in the block."""
        return UNIT_S * len(self._times) / sum(self._times)
