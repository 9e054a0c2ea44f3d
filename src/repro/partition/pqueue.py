"""Max-priority queue with updatable keys, for the FM move loops.

Classic heap + lazy invalidation: updating an item pushes a fresh
entry stamped with a running count; stale entries are discarded on
peek/pop. Two loops run on it — the boundary queue of
:func:`repro.partition.refine_kway_fm.kway_fm_refine` and the frontier
of :func:`repro.partition.initial.greedy_graph_growing` — with vertex
ids as items and integer gains as priorities. The bisection FM pass
(:func:`repro.partition.refine_fm._fm_pass`) keeps the same entries
and pop order on a bare ``heapq`` list, without a call per push or pop.

Entries are ``(-priority, count, item)`` and the count is unique, so
entries are totally ordered and the pop sequence depends only on the
order of insertions, not on the heap's layout: a batch handed to the
constructor and ``heapify``-ed pops exactly as the same batch inserted
one by one. Equal priorities leave the queue first-in first-out.
"""

from __future__ import annotations

import heapq
from typing import Hashable, Iterable, Optional, Tuple


class MaxPQ:
    """Max-priority queue keyed by arbitrary hashable items."""

    def __init__(
        self, entries: Iterable[Tuple[Hashable, float]] = ()
    ) -> None:
        self._heap = [
            (-priority, count, item)
            for count, (item, priority) in enumerate(entries)
        ]
        self._version = {item: count for _, count, item in self._heap}
        self._count = len(self._heap)
        heapq.heapify(self._heap)

    def __len__(self) -> int:
        return len(self._version)

    def __contains__(self, item: Hashable) -> bool:
        return item in self._version

    def insert(self, item: Hashable, priority: float) -> None:
        """Insert or update ``item`` with ``priority``."""
        count = self._count
        self._count = count + 1
        self._version[item] = count
        # negate for max-heap on heapq's min-heap; counter breaks ties FIFO
        heapq.heappush(self._heap, (-priority, count, item))

    update = insert

    def remove(self, item: Hashable) -> None:
        """Remove ``item`` if present (lazy; the heap entry is orphaned)."""
        self._version.pop(item, None)

    def peek(self) -> Optional[Tuple[Hashable, float]]:
        """Return ``(item, priority)`` of the max without removing it."""
        heap, version = self._heap, self._version
        while heap:
            neg, count, item = heap[0]
            if version.get(item) == count:
                return item, -neg
            heapq.heappop(heap)  # stale
        return None

    def pop(self) -> Optional[Tuple[Hashable, float]]:
        """Remove and return ``(item, priority)`` of the max, or ``None``."""
        heap, version = self._heap, self._version
        while heap:
            neg, count, item = heapq.heappop(heap)
            if version.get(item) == count:
                del version[item]
                return item, -neg
        return None
