"""The host's speed, sampled between operations by a fixed kernel.

On a VM that shares its host, such as the 2-core VM this benchmark was
tuned on, the speed of fixed CPU work moves by up to 1.8x, in spells from
under a second to minutes, and process CPU time slows with it, so no
in-process statistic of wall times removes it: a slow spell that covers a
whole run moves the run's fastest repeats as much as its medians.

So the runner times `kernel` (fixed pure-Python work that does not touch
causal_lab) between operations, at most every EVERY_S, and scales each
operation's wall time by REFERENCE_S over the shorter of the kernel's
times just before and just after it (a sample can only be lengthened, by
an interrupt or preemption, never shortened).  The result reads as
seconds on a host that runs the kernel in REFERENCE_S; the wall times
stay in the report.
"""
from __future__ import annotations

from time import perf_counter

# the kernel's fastest time on a 2-core VM (Intel Xeon, Python 3.11)
REFERENCE_S = 0.0011
EVERY_S = 0.02
_STEPS = 6000


def kernel() -> float:
    """Time one fixed run of interpreter work: integer arithmetic, calls,
    and list and dict traffic over a small working set."""
    t = perf_counter()
    table: dict[int, int] = {}
    row = [0] * 64
    acc = 0
    for i in range(_STEPS):
        acc = (acc * 31 + i) & 0xFFFF
        row[i & 63] = acc
        table[acc & 511] = table.get(acc & 255, 0) + i
    max(row)
    return perf_counter() - t


class HostSpeed:
    """Kernel samples taken between operations, in order."""

    def __init__(self):
        self.samples = [kernel()]
        self._at = perf_counter()

    def sample(self) -> None:
        self.samples.append(kernel())
        self._at = perf_counter()

    def mark(self) -> int:
        """Sample if EVERY_S has passed since the last sample; return the
        index of the sample that precedes the next operation."""
        if perf_counter() - self._at >= EVERY_S:
            self.sample()
        return len(self.samples) - 1

    def scale(self, i: int) -> float:
        """Factor for wall time spent between samples i and i + 1."""
        return REFERENCE_S / min(self.samples[i], self.samples[i + 1])
