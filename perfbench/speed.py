"""CPU-speed probe: report measured seconds at a fixed reference speed.

On a shared host the speed of one virtual CPU can change by a factor of two
within a second, which swamps the differences a benchmark looks for.  While
a measurement runs, a SIGALRM timer interrupts it every INTERVAL_S and times
a small fixed piece of exact rational arithmetic, the probe.  The probe's
mean duration over an interval, against REFERENCE_S, says how fast the CPU
ran during that interval.  ``Probe.normalize`` returns the interval's length,
less the probes' own time, at the reference speed:

    normalized = (elapsed - probe time) * REFERENCE_S / mean probe duration

so the result reads as seconds on an uncontended CPU of the kind that gave
REFERENCE_S.  Of the probes tried (dict updates, calls, sorting, big-integer
products and mixes of these), this one kept the medians of repeated runs
closest together over all workloads.  It takes about one percent of the
measured time.  Signal handlers run only in the main thread, between
bytecodes.
"""

from __future__ import annotations

import signal
from fractions import Fraction
from time import perf_counter

INTERVAL_S = 0.01
REFERENCE_S = 7e-5  # probe duration on an uncontended 2.1 GHz x86-64 vCPU
MIN_SAMPLES = 3
TRIM = 0.1  # share of the slowest probes dropped: the CPU was taken away


def _work() -> Fraction:
    x = Fraction(1)
    for k in range(1, 20):
        x = x * Fraction(k, k + 1) + Fraction(1, k)
    return x


def probe_seconds() -> float:
    """The duration of one probe."""
    start = perf_counter()
    _work()
    return perf_counter() - start


def slowdown(durations: list[float]) -> float:
    """How many times slower than the reference speed these probes ran.

    The slowest TRIM of the probes are left out: those were preempted
    rather than slowed.
    """
    kept = sorted(durations)[: max(1, round(len(durations) * (1 - TRIM)))]
    return sum(kept) / len(kept) / REFERENCE_S


class Probe:
    """Samples probe durations as (start time, seconds) while running."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []

    def _tick(self, signum, frame):
        self.samples.append((perf_counter(), probe_seconds()))

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def normalize(self, start: float, end: float) -> float:
        """Seconds from start to end, less probe time, at the reference speed.

        An interval with fewer than MIN_SAMPLES probes is judged by every
        sample taken so far.
        """
        inside = [d for t, d in self.samples if start <= t < end]
        basis = inside if len(inside) >= MIN_SAMPLES else [d for _t, d in self.samples]
        if not basis:
            return end - start
        return (end - start - sum(inside)) / slowdown(basis)
