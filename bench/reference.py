"""Fixed reference work that tracks how fast this machine runs Python right now.

On a shared machine the interpreter's speed drifts as other tenants load the
caches and the memory bus: on the 2-vCPU machine this benchmark was tuned on,
one corpus ran anywhere from 7 to 16 ops per second in back-to-back 30-second
runs.  The benchmark therefore times a fixed in-process kernel between ops and
reports each wall time at one reference speed, scaled by ``NOMINAL_S`` over
the median of the kernel times measured nearest to it.  Start-up runs are
scaled the same way by a baseline interpreter start instead.  Neither
reference changes with the program under test, so the scale cancels machine
drift and keeps the program's own speed-ups.  The kernel mixes what ``dakc``
spends its time on: small-object allocation, adjacency lists, big-integer
bitmask walks and dict building.
"""

from __future__ import annotations

import random
from bisect import bisect
from time import perf_counter

# the kernel's median wall time on the machine the benchmark was tuned on
# (2 vCPUs of an Intel Xeon at 2.0 GHz, Python 3.11); reported times are
# scaled to the speed at which the kernel takes this long
NOMINAL_S = 0.005

# a fresh interpreter importing the standard-library modules the dakc CLI
# needs; each timed dakc start-up is divided by the baseline run next to it
# and reported at the baseline's nominal time, because process start-up
# drifts with the machine's file and page-fault load, which the kernel does
# not follow
BASELINE_ARGV = ("-c", "import argparse, dataclasses, itertools, json, math, pathlib")
BASELINE_NOMINAL_S = 0.1

_N = 2000
_rng = random.Random(7)
_ADJ = tuple(tuple(sorted(_rng.sample(range(_N), 3))) for _ in range(_N))


def kernel() -> int:
    into: list[list[int]] = [[] for _ in range(_N)]
    for u, nbrs in enumerate(_ADJ):
        for v in nbrs:
            into[v].append(u)
    masks = [sum(1 << v for v in nbrs) for nbrs in _ADJ]
    seen = frontier = 1
    while frontier:
        nxt = 0
        rest = frontier
        while rest:
            low = rest & -rest
            nxt |= masks[low.bit_length() - 1]
            rest ^= low
        frontier = nxt & ~seen
        seen |= frontier
    index = {(u, v): i for i, (u, nbrs) in enumerate(enumerate(_ADJ)) for v in nbrs}
    return len(index) + seen.bit_count() + len(min(into, key=len))


class Speed:
    """Times the kernel whenever ``every_s`` seconds have passed since the last time,
    and scales a wall time by the kernel times measured nearest to it."""

    NEAR = 4

    def __init__(self, every_s: float = 0.1) -> None:
        self.every_s = every_s
        self.stamps: list[float] = []
        self.durations: list[float] = []

    def sample(self) -> None:
        if self.stamps and perf_counter() - self.stamps[-1] < self.every_s:
            return
        start = perf_counter()
        kernel()
        end = perf_counter()
        self.stamps.append((start + end) / 2)
        self.durations.append(end - start)

    def scale_at(self, stamp: float) -> float:
        """Factor that takes a wall time measured around ``stamp`` to the reference speed."""
        i = bisect(self.stamps, stamp)
        near = sorted(self.durations[max(0, i - self.NEAR // 2) : i + self.NEAR // 2])
        return NOMINAL_S / near[len(near) // 2]

    def scaled(self, timed: list[tuple[float, float]]) -> list[float]:
        """``(stamp, seconds)`` pairs to seconds at the reference speed."""
        return [seconds * self.scale_at(stamp) for stamp, seconds in timed]
