"""The machine-speed reference every reported time is scaled by.

The 2-vCPU VMs this benchmark runs on share their host: identical work
takes 10–30 % longer for seconds to tens of minutes at a time, CPU
time moving with wall time, and two sets of ten runs of one commit
differed by up to 29 % in their medians.  No statistic inside a
20-second run removes that, so a run also samples a fixed reference
operation — NumPy sorting/counting plus a pure-Python loop, nothing
from ``repro`` — in short bursts between its timed operations, and
reports every time multiplied by ``REFERENCE_MS / median(samples)``:
seconds *at the reference speed*.  Across 16 runs of identical fits
that halved the spread between runs (10 % → 5 %).

The reference operation and ``REFERENCE_MS`` define the unit.
Changing either rescales every time metric, so it is a change to the
benchmark, never part of a change that claims a gain.
"""

from __future__ import annotations

import statistics
import time
from typing import List

import numpy as np

#: what the reference operation takes on the sizing box at its usual
#: speed; fixed so reported seconds mean the same thing across commits
REFERENCE_MS = 11.0
BURST = 4
MIN_INTERVAL_S = 1.0


class SpeedReference:
    """Samples the reference operation at most once a second, in
    bursts, outside the timed regions."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._keys = rng.integers(0, 50_000, size=100_000)
        self._values = rng.random(100_000)
        self.samples: List[float] = []
        self._last = float("-inf")

    def _reference_op(self) -> float:
        t0 = time.perf_counter()
        order = np.argsort(self._keys, kind="stable")
        np.bincount(self._keys[order])
        np.cumsum(self._values[order])
        table, acc = {}, 0
        for i in range(30_000):
            acc += i & 7
            if i % 3 == 0:
                table[i] = acc
        return time.perf_counter() - t0

    def due(self) -> bool:
        return time.perf_counter() - self._last >= MIN_INTERVAL_S

    def tick(self) -> None:
        """Call between operations; samples if a burst is due."""
        if self.due():
            self.samples += [self._reference_op() for _ in range(BURST)]
            self._last = time.perf_counter()

    def median_ms(self) -> float:
        return 1e3 * statistics.median(self.samples)

    def factor(self) -> float:
        """Multiply a measured time by this to get reference-speed time."""
        return REFERENCE_MS / self.median_ms()
