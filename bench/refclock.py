"""Host-speed calibration: program time expressed in reference-kernel runs.

On a shared virtual machine the same work can run up to about 1.7x slower
from one moment to the next, and a state can last from a fraction of a
second to minutes.  Wall time of one run then depends more on when it ran
than on the program.  The benchmark therefore times a fixed reference
kernel between the program's work units and reports the program's time in
*refs*: one ref is the mean time of the kernel close to that work.  The
kernel does what the program spends its time on (``Fraction`` arithmetic
and updates of a dict keyed by exponent tuples), so a slower host slows
both alike and the ratio stays put.  The kernel is the benchmark's own
code and calls nothing of the program.

``RefClock`` keeps a position in program seconds.  After each work unit it
runs the kernel once for every ``EVERY_S`` of program time since the last
sample, so samples lie evenly along the program's time.
A unit is then scaled by the mean of the samples within ``WINDOW_S``
program seconds of it.  The mean, not the median, because the host
switches between a fast and a slow state and the mean follows the mix.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from fractions import Fraction
from time import perf_counter

KERNEL_STEPS = 300  # about 3 ms on a 2.0 GHz Xeon core in its fast state
EVERY_S = 0.05
WINDOW_S = 0.5


def kernel() -> Fraction:
    table: dict = {}
    total = Fraction(0)
    for i in range(1, KERNEL_STEPS):
        q = Fraction(i, i + 7) * Fraction(3, i + 1) + Fraction(1, 3)
        key = (i % 5, i % 7, i % 3, i % 2)
        table[key] = table.get(key, 0) + q
        total += q
    return total + sum(table.values())


KERNEL_VALUE = kernel()


class RefClock:
    def __init__(self):
        self.position = 0.0  # program seconds so far
        self.sampled_to = 0.0  # program seconds covered by samples
        self.positions: list[float] = []
        self.samples: list[float] = []
        self.wrong = 0  # kernel runs that gave a wrong value
        self._sample()

    def _sample(self) -> None:
        start = perf_counter()
        value = kernel()
        self.samples.append(perf_counter() - start)
        self.positions.append(self.position)
        self.wrong += value != KERNEL_VALUE

    def advance(self, elapsed: float) -> tuple[float, float]:
        """Record a work unit of ``elapsed`` seconds; returns its span in
        program seconds, for ``refs``."""
        start = self.position
        self.position += elapsed
        while self.sampled_to + EVERY_S <= self.position:
            self.sampled_to += EVERY_S
            self._sample()
        return start, self.position

    def scale(self, start: float, end: float) -> float:
        """Mean kernel time around program seconds ``start`` to ``end``."""
        lo = min(bisect_left(self.positions, start - WINDOW_S), max(0, bisect_right(self.positions, start) - 1))
        hi = max(bisect_right(self.positions, end + WINDOW_S), bisect_left(self.positions, end) + 1)
        window = self.samples[lo:hi]
        return sum(window) / len(window)

    def refs(self, span: tuple[float, float]) -> float:
        """A work unit's time in refs."""
        start, end = span
        return (end - start) / self.scale(start, end)

    def mean_ms(self) -> float:
        return 1000 * sum(self.samples) / len(self.samples)
