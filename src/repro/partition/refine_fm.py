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
sides and gains as lists, locks in a ``bytearray`` — and one :class:`~repro.partition.balance.BalanceTracker`
per refinement call answers both phases' balance questions.

The hill-climb is one flat loop with no call per move: its queue is a
bare ``heapq`` list with a per-vertex live-entry count (the entries and
pop order of :class:`~repro.partition.pqueue.MaxPQ`), it tests the fit
and writes both side weights in the tracker's own rows, and at the end
of the pass it writes the kept moves into ``part`` in one assignment
and calls :meth:`~repro.partition.balance.BalanceTracker.resync` once
to bring the violation rows up to date.
"""

from __future__ import annotations

import heapq
from typing import List, Tuple

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.metrics import partition_weights
from repro.partition.balance import BalanceTracker
from repro.partition.config import PartitionOptions
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
    # the two rows are re-derived from the weights after every move
    # here and once per FM pass, so their sum carries no drift from
    # earlier passes
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
        # (ROADMAP item 2(d)).
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
    """One FM hill-climbing pass. Returns True if the cut improved.

    Writes the tracker's side weights in place and re-derives its
    violation rows once, at the end (:meth:`BalanceTracker.resync`).
    """
    gain_arr, boundary, start_cut = _edge_state(graph, part)
    start, nbr, wgt, vwgt, ncon = graph.lists
    gains: List[int] = gain_arr.tolist()
    sides: List[int] = part.tolist()  # ``part`` as the moves leave it
    locked = bytearray(graph.num_vertices)
    pw, allowed, binding = tracker.pw, tracker.allowed, tracker.binding
    cons = range(ncon)

    # One heap for both sides, entries ``(-(2 * gain + 1 - side), count,
    # v)``: the larger gain leads, side 0 wins a gain tie, and a side's
    # equal gains leave first-in first-out (``MaxPQ``'s order). The
    # first batch is the boundary, ascending, heapified. ``ver[v]`` is
    # the count of v's live entry (-1: none); every other entry is
    # stale. A pop clears it, so a vertex that does not fit stays out
    # until a neighbour's move pushes it again.
    ver = [-1] * graph.num_vertices
    heap: List[Tuple[int, int, int]] = []
    for count, v in enumerate(np.flatnonzero(boundary).tolist()):
        ver[v] = count
        heap.append((-(2 * gains[v] + 1 - sides[v]), count, v))
    heapq.heapify(heap)
    count = len(heap)
    heappop, heappush = heapq.heappop, heapq.heappush

    cur_cut = best_cut = start_cut
    moves: List[int] = []  # moved vertices; each came from 1 - sides[v]
    best_len = 0
    since_best = 0
    neg_moves = options.fm_neg_moves

    while since_best < neg_moves and heap:
        _, c, v = heappop(heap)
        if ver[v] != c:
            continue  # stale (locked vertices are never pushed)
        ver[v] = -1
        side = sides[v]
        dst = 1 - side
        base = v * ncon
        pw_d, al_d = pw[dst], allowed[dst]
        fits = True
        for j in binding:
            if pw_d[j] + vwgt[base + j] > al_d[j]:
                fits = False
                break
        if not fits:
            continue  # discard for this pass

        # execute the move (``part`` is written once, after the pass)
        sides[v] = dst
        pw_s = pw[side]
        for j in cons:
            w = vwgt[base + j]
            pw_s[j] -= w
            pw_d[j] += w
        locked[v] = 1
        cur_cut -= gains[v]
        moves.append(v)

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
            ver[u] = count
            heappush(heap, (-(2 * gains[u] + 1 - sides[u]), count, u))
            count += 1

    # roll back past the best prefix
    for v in reversed(moves[best_len:]):
        side = 1 - sides[v]
        pw_now, pw_back = pw[1 - side], pw[side]
        base = v * ncon
        for j in cons:
            w = vwgt[base + j]
            pw_now[j] -= w
            pw_back[j] += w
    kept = moves[:best_len]  # each vertex moved at most once
    part[kept] = 1 - part[kept]
    tracker.resync()

    return best_cut < start_cut
