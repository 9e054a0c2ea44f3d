"""Priority-queue k-way FM refinement with hill climbing.

:mod:`repro.partition.refine_kway`'s greedy loop only takes
non-negative-gain moves, so it stalls in local minima that classic FM
escapes by accepting a bounded run of negative-gain moves and rolling
back to the best prefix. This module is the k-way analogue of
:mod:`repro.partition.refine_fm`: one global max-priority queue over
boundary vertices keyed by their best feasible move gain, incremental
gain updates around each move, and prefix rollback per pass. The loop
reads the graph and the labels as Python ints
(:attr:`~repro.graph.csr.CSRGraph.lists`, a list kept in step with
``part``). Each pass's first batch — every boundary vertex keyed by
its best feasible gain — is array code over the boundary's move-gain
cells (:func:`~repro.partition.refine_kway.move_gain_cells`) and is
heapified rather than pushed one by one; the loop after it stays
scalar.

:func:`repro.partition.kway.partition_kway` always ends with it, as
the final polish after recursive bisection and the fragment, rebalance
and greedy rounds; MCML+DT's §4.2 reshape ends with it too, on the
collapsed leaf graph ``G'``.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.graph.csr import AdjacencyLists, CSRGraph
from repro.graph.metrics import boundary_vertices, edge_cut, partition_weights
from repro.partition.balance import BalanceTracker, equal_targets
from repro.partition.config import PartitionOptions
from repro.partition.pqueue import MaxPQ
from repro.partition.refine_kway import (
    move_gain_cells,
    neighbor_partition_weights,
)


def _best_move(
    lists: AdjacencyLists,
    part: List[int],
    tracker: BalanceTracker,
    v: int,
) -> Optional[Tuple[int, int]]:
    """Best feasible (gain, dst) for vertex ``v``, or None; of equal
    gains the destination ``v``'s CSR row meets first wins."""
    src = part[v]
    conn = neighbor_partition_weights(lists, part, v)
    own = conn.get(src, 0)
    vw = lists.weights(v)
    best = None
    for dst, wgt in conn.items():
        if dst == src:
            continue
        if not tracker.fits(dst, vw):
            continue
        gain = wgt - own
        if best is None or gain > best[0]:
            best = (gain, dst)
    return best


def _first_batch(
    graph: CSRGraph, part: np.ndarray, k: int, tracker: BalanceTracker
) -> List[Tuple[int, int]]:
    """A pass's first queue batch: ``(v, gain)`` for every boundary
    vertex ``v`` that has a feasible move, ascending, ``gain`` being the
    :func:`_best_move` gain — array code over the boundary's move-gain
    cells instead of one :func:`_best_move` per vertex."""
    bnd = boundary_vertices(graph, part)
    owner, dst, gain = move_gain_cells(graph, part, bnd, k)
    fits = tracker.fits_each(dst, graph.vwgts[bnd[owner]])
    owner, gain = owner[fits], gain[fits]
    if len(owner) == 0:
        return []
    first = np.flatnonzero(np.diff(owner, prepend=np.int64(-1)))
    best = np.maximum.reduceat(gain, first)
    return list(zip(bnd[owner[first]].tolist(), best.tolist()))


def kway_fm_refine(
    graph: CSRGraph,
    part: np.ndarray,
    k: int,
    options: Optional[PartitionOptions] = None,
) -> np.ndarray:
    """FM-style k-way refinement in place; returns ``part``. Runs at
    most ``options.kway_passes`` passes, stopping after the first one
    that does not lower the cut.

    Requires a (near-)feasible input partition: moves never overload a
    destination, so infeasible inputs should go through
    :func:`repro.partition.refine_kway.rebalance_kway` first.
    """
    options = options or PartitionOptions()
    part = np.asarray(part, dtype=np.int64)
    targets = equal_targets(graph.total_vwgt, k)
    lists = graph.lists
    start, nbr = lists.start, lists.nbr
    labels: List[int] = part.tolist()  # mirror of ``part``, kept in step

    for _pass in range(options.kway_passes):
        tracker = BalanceTracker(
            partition_weights(graph, part, k), targets, options.ubfactor
        )
        locked = bytearray(graph.num_vertices)
        pq = MaxPQ(_first_batch(graph, part, k, tracker))

        start_cut = cur_cut = edge_cut(graph, part)
        best_cut = cur_cut
        journal: List[Tuple[int, int]] = []  # (v, src)
        best_len = 0
        since_best = 0

        while since_best < options.fm_neg_moves:
            entry = pq.pop()
            if entry is None:
                break
            v, _stale_gain = entry
            if locked[v]:
                continue
            mv = _best_move(lists, labels, tracker, v)
            if mv is None:
                continue
            gain, dst = mv
            src = labels[v]
            # execute
            part[v] = labels[v] = dst
            tracker.apply_move(src, dst, lists.weights(v))
            locked[v] = 1
            cur_cut -= gain
            journal.append((v, src))
            if cur_cut < best_cut:
                best_cut = cur_cut
                best_len = len(journal)
                since_best = 0
            else:
                since_best += 1
            # refresh unlocked neighbours
            for i in range(start[v], start[v + 1]):
                u = nbr[i]
                if locked[u]:
                    continue
                mu = _best_move(lists, labels, tracker, u)
                if mu is not None:
                    pq.insert(u, mu[0])
                else:
                    pq.remove(u)

        # rollback past best prefix
        for v, src in reversed(journal[best_len:]):
            part[v] = labels[v] = src
        if best_cut >= start_cut:
            break
    return part
