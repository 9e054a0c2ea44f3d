"""Fiduccia–Mattheyses bisection refinement with multi-constraint balance.

Each pass has two phases:

1. *Rebalance* — while the bisection violates a constraint bound, move
   the best-gain vertex out of a violating side (boundary vertices
   first). This is what repairs infeasible initial bisections and the
   paper's post-projection imbalances.
2. *Hill-climb* — classic FM: repeatedly move the highest-gain vertex
   whose move keeps the bisection feasible, allowing a bounded run of
   negative-gain moves, then roll back to the best prefix seen.

Whole-graph state is array code: one same-side mask over the edge
arrays per pass yields the gain vector, the boundary and the cut. The
move loops are inherently sequential and run on Python ints — the
graph through :attr:`~repro.graph.csr.CSRGraph.lists`, the hill-climb's
sides and gains as lists kept in step with ``part``, locks in a
``bytearray`` — and one :class:`~repro.partition.balance.BalanceTracker`
per refinement call answers both phases' balance questions.
"""

from __future__ import annotations

from typing import List, Tuple

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.metrics import partition_weights
from repro.partition.balance import BalanceTracker
from repro.partition.config import PartitionOptions
from repro.partition.pqueue import MaxPQ
from repro.utils.arrays import sum_by_label


def _edge_state(
    graph: CSRGraph, part: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, int]:
    """``(gains, boundary, cut)`` of a bisection: per-vertex external
    minus internal edge weight, the mask of vertices with a neighbour
    on the other side, and the edge cut."""
    n = graph.num_vertices
    src = graph.row_index
    same = part[src] == part[graph.adjncy]
    gains = sum_by_label(src, np.where(same, -graph.adjwgt, graph.adjwgt), n)
    boundary = np.zeros(n, dtype=bool)
    boundary[src[~same]] = True
    return gains, boundary, int(graph.adjwgt[~same].sum() // 2)


def gain_vector(graph: CSRGraph, part: np.ndarray) -> np.ndarray:
    """FM gains for all vertices: external minus internal edge weight."""
    return _edge_state(graph, part)[0]


def _rebalance(
    graph: CSRGraph,
    part: np.ndarray,
    tracker: BalanceTracker,
    max_moves: int,
) -> None:
    """Greedy violation descent (phase 1). Mutates ``part``/``tracker``.

    Each move targets the worst (side, constraint) excess and scores
    only vertices carrying weight in that constraint; gains are
    maintained incrementally after each move.
    """
    # the two rows are recomputed from the weights on every move, so
    # their sum carries no drift from earlier passes (``total`` does)
    if tracker.violation_of(0) + tracker.violation_of(1) <= 1e-12:
        return
    gains, boundary, _ = _edge_state(graph, part)
    vwgts = graph.vwgts
    lists = graph.lists
    start, nbr, wgt = lists.start, lists.nbr, lists.wgt

    for _ in range(max_moves):
        worst = tracker.worst()
        if worst is None:
            break
        side, j_star = worst
        cand = np.nonzero(
            (part == side) & boundary & (vwgts[:, j_star] > 0)
        )[0]
        if len(cand) == 0:
            cand = np.nonzero((part == side) & (vwgts[:, j_star] > 0))[0]
        if len(cand) == 0:
            break  # the binding weight cannot be exported at all
        # best balance improvement, then best gain. HAZARD: this argsort
        # is NumPy's default *unstable* sort, so which of several
        # equal-gain candidates land in the top 64 depends on the sort
        # kernel NumPy dispatches to (AVX-512 here), and paper-scale
        # labels depend on it: kind="stable" moves the k = 25 fit from
        # cut 7,045 to 7,169. Leave the expression verbatim; an explicit
        # tie-break is a quality change that re-pins the label digests
        # (ROADMAP item 1(d)).
        top = cand[np.argsort(gains[cand])[::-1][:64]]
        best = None  # (delta, -gain, v)
        for v in top.tolist():
            dv = tracker.delta_move(side, 1 - side, lists.weights(v))
            if dv < -1e-12:
                key = (dv, -gains[v], v)
                if best is None or key < best:
                    best = key
        if best is None:
            break  # no single move improves balance
        _, _, v = best
        dst = 1 - side
        part[v] = dst
        tracker.apply_move(side, dst, lists.weights(v))
        # incremental gain + boundary maintenance around v
        gains[v] = -gains[v]
        for i in range(start[v], start[v + 1]):
            u = nbr[i]
            if part[u] == dst:
                gains[u] -= 2 * wgt[i]
            else:
                gains[u] += 2 * wgt[i]
            boundary[u] = True
        boundary[v] = True


def fm_refine_bisection(
    graph: CSRGraph,
    part: np.ndarray,
    targets: np.ndarray,
    options: PartitionOptions,
) -> np.ndarray:
    """Refine a 0/1 partition in place; returns ``part``.

    ``targets`` has shape ``(2, ncon)``.
    """
    n = graph.num_vertices
    part = np.asarray(part, dtype=np.int64)
    tracker = BalanceTracker(
        partition_weights(graph, part, 2), targets, options.ubfactor
    )
    for _pass in range(options.fm_passes):
        _rebalance(graph, part, tracker, max_moves=n)
        if not _fm_pass(graph, part, tracker, options):
            break
    return part


def _fm_pass(
    graph: CSRGraph,
    part: np.ndarray,
    tracker: BalanceTracker,
    options: PartitionOptions,
) -> bool:
    """One FM hill-climbing pass. Returns True if the cut improved."""
    gain_arr, boundary, start_cut = _edge_state(graph, part)
    lists = graph.lists
    start, nbr, wgt = lists.start, lists.nbr, lists.wgt
    gains: List[int] = gain_arr.tolist()
    sides: List[int] = part.tolist()  # mirror of ``part``, kept in step
    locked = bytearray(graph.num_vertices)

    # One queue for both sides, keyed ``2 * gain + (1 - side)``: the
    # larger gain leads, side 0 wins a gain tie, and a side's equal
    # gains leave first-in first-out. The initial batch is heapified,
    # boundary vertices ascending.
    bnd = np.flatnonzero(boundary).tolist()
    queue = MaxPQ((v, 2 * gains[v] + 1 - sides[v]) for v in bnd)

    cur_cut = best_cut = start_cut
    moves: List[Tuple[int, int]] = []  # (v, from_side)
    best_len = 0
    since_best = 0

    while since_best < options.fm_neg_moves:
        top = queue.pop()
        if top is None:
            break
        v = top[0]
        if locked[v]:
            continue
        side = sides[v]
        dst = 1 - side
        vw = lists.weights(v)
        if not tracker.fits(dst, vw):
            continue  # discard for this pass

        # execute the move
        part[v] = sides[v] = dst
        tracker.apply_move(side, dst, vw)
        locked[v] = 1
        cur_cut -= gains[v]
        moves.append((v, side))

        if cur_cut < best_cut:
            best_cut = cur_cut
            best_len = len(moves)
            since_best = 0
        else:
            since_best += 1

        # incremental gain updates for unlocked neighbours
        for i in range(start[v], start[v + 1]):
            u = nbr[i]
            if locked[u]:
                continue
            if sides[u] == dst:
                gains[u] -= 2 * wgt[i]  # edge became internal
            else:
                gains[u] += 2 * wgt[i]  # edge became external
            queue.insert(u, 2 * gains[u] + 1 - sides[u])

    # roll back past the best prefix
    for v, side in reversed(moves[best_len:]):
        part[v] = side
        tracker.apply_move(1 - side, side, lists.weights(v))

    return best_cut < start_cut
