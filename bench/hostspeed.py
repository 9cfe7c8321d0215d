"""Host-speed scaling of the benchmark's timings.

The machine this benchmark was written on changes speed by up to half
within a second and by a fifth between minutes, and the same item's time
follows. So while items run, a timer interrupts the process every PERIOD_S
and times a small fixed kernel of pure-Python work that no change to
arthurcalc can touch. A stretch of measured time is turned into time on a
host where that kernel takes REFERENCE_NS: each sample stands for an equal
share of the stretch, and its share runs REFERENCE_NS / (sample time) as
fast as measured. The sampler's own time is kept apart so that callers can
leave it out of what they measure.
"""

from __future__ import annotations

import signal
from time import perf_counter_ns

PERIOD_S = 0.02
REFERENCE_NS = 300_000


def kernel() -> int:
    """Integer arithmetic, a dict and str; no tuples or lists, so it never
    triggers a garbage collection, whose cost would grow with the heap."""
    total, seen = 0, {}
    for i in range(500):
        key = i % 97 * 89 + i % 89
        seen[key] = seen.get(key, 0) + i * i % 1009
        total += len(str(i))
    return total + len(seen)


class HostSpeed:
    """Context manager that samples the kernel's time every PERIOD_S."""

    def __init__(self):
        self.samples: list[int] = []  # kernel times in ns
        self.spent_ns = 0  # time spent sampling, inside whatever was measured
        self._previous = None

    def sample(self, *_) -> None:
        start = perf_counter_ns()
        kernel()
        self.samples.append(perf_counter_ns() - start)
        self.spent_ns += perf_counter_ns() - start

    def clock(self) -> int:
        """perf_counter_ns() less the time spent sampling so far."""
        return perf_counter_ns() - self.spent_ns

    def __enter__(self) -> HostSpeed:
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def scale_since(self, mark: int) -> float:
        """Factor that turns time measured since len(samples) was `mark`
        into time on the reference host (a sample is taken now if the timer
        has not fired since)."""
        if len(self.samples) == mark:
            self.sample()
        recent = self.samples[mark:]
        return REFERENCE_NS * sum(1 / t for t in recent) / len(recent)
