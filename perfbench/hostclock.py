"""Job times in seconds of a reference host, steady under a drifting host.

On a shared machine the speed a process gets drifts by tens of percent
within seconds, as other tenants come and go, so two runs of the same
code can differ by more than any regression worth catching.  The clock
times a fixed pure-Python kernel before the first operation and after
every one.  The kernel calls no hknet code: it builds small objects,
hashes tuples and frozensets into a dict, sorts, and adds Fractions,
the same kinds of work hknet does, so its time tracks the host's speed
for hknet's code.  An operation's time is scaled by ``REFERENCE_S``
over the mean of the kernel times just before and just after it, and
so reads as on a host that runs the kernel in ``REFERENCE_S`` seconds.
On a 2-vCPU Xeon VM this cut the spread of ``jobs_per_s`` over five
seeds (distance between quartiles over the median) from 0.13-0.24 to
0.01-0.08 across the four workloads.
A change to hknet does not change the kernel's work: it shares no code
with hknet, and the garbage collector is off while it runs, so the size
of hknet's heap does not reach it.
"""

from __future__ import annotations

import gc
from fractions import Fraction
from time import perf_counter

# about the kernel's time under CPython 3.11 on a 2-vCPU Xeon VM, so that
# reference seconds read close to host seconds there
REFERENCE_S = 0.003


class _Item:
    __slots__ = ("a", "b")

    def __init__(self, a: int, b: str) -> None:
        self.a, self.b = a, b

    def key(self) -> tuple:
        return (self.a, self.b)


def kernel() -> tuple[int, Fraction]:
    table: dict = {}
    for i in range(600):
        key = (_Item(i % 61, str(i % 13)).key(), frozenset((i % 5, i % 7)))
        table[key] = table.get(key, 0) + 1
    items = sorted(table.items(), key=repr)
    total = Fraction(0)
    for i in range(1, 60):
        total += Fraction(i % 17, i % 11 + 1)
    return len(items), total


def kernel_seconds() -> float:
    """The faster of two kernel runs, so one preemption does not count."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(2):
            start = perf_counter()
            kernel()
            times.append(perf_counter() - start)
        return min(times)
    finally:
        if enabled:
            gc.enable()


class HostClock:
    """Call :meth:`scale` right after each timed operation."""

    def __init__(self) -> None:
        self.before = kernel_seconds()
        self.factors: list[float] = []

    def scale(self, seconds: float) -> float:
        """``seconds`` of the operation that just ended, in reference seconds."""
        after = kernel_seconds()
        factor = 2 * REFERENCE_S / (self.before + after)
        self.before = after
        self.factors.append(factor)
        return seconds * factor
