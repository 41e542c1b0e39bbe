"""Machine-speed reference for the benchmark's timings.

On a shared machine the same work can take 10-20% longer in one stretch of
seconds than in the next, and the stretches outlast a run.  The runner
therefore times a fixed, program-independent Python computation every
SAMPLE_EVERY_S seconds between requests, and reports every end-to-end time
scaled to the speed at which that computation takes NOMINAL_S:

    scaled = measured * NOMINAL_S / (reference time around the measurement)

The reference does what the program spends its time on: it builds and walks
nested tuples recursively and fills a dict with string keys.  NOMINAL_S is
about its median time on the 2-core Intel Xeon VM the benchmark was written
on, so scaled times read close to wall-clock times there.  The raw times are
printed next to the scaled ones.
"""

from __future__ import annotations

import bisect
import statistics
import time

NOMINAL_S = 0.003
SAMPLE_EVERY_S = 0.25


def _tree(depth: int):
    return (depth,) if depth == 0 else (_tree(depth - 1), depth, _tree(depth - 1))


def _walk(t) -> int:
    return t[0] if len(t) == 1 else _walk(t[0]) + _walk(t[2]) + 1


def _work() -> None:
    _walk(_tree(12))
    {str(i): i for i in range(4000)}


class Reference:
    def __init__(self):
        self._times: list[float] = []  # sample midpoints, ascending
        self._seconds: list[float] = []

    def sample(self) -> float:
        """Time the reference once; returns the seconds the sample took."""
        start = time.perf_counter()
        _work()
        end = time.perf_counter()
        self._times.append((start + end) / 2)
        self._seconds.append(end - start)
        return end - start

    def due(self, now: float) -> bool:
        return not self._times or now - self._times[-1] >= SAMPLE_EVERY_S

    def slowdown(self, at: float) -> float:
        """Reference time around `at` over NOMINAL_S: the median of the two
        samples before and the two after it."""
        i = bisect.bisect(self._times, at)
        near = self._seconds[max(0, i - 2):i + 2]
        return statistics.median(near) / NOMINAL_S

    def scaled(self, start: float, seconds: float) -> float:
        return seconds / self.slowdown(start + seconds / 2)

    def median_s(self) -> float:
        return statistics.median(self._seconds)
