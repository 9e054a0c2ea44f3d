"""Greedy multi-constraint k-way refinement and rebalancing.

Two related loops over boundary vertices:

* :func:`greedy_kway_refine` — cut-driven: move a vertex to the
  adjacent partition with the largest positive gain among
  balance-feasible destinations (gain-0 moves are taken when they
  strictly improve balance). This is the final polish after recursive
  bisection *and* the refinement operator applied to the collapsed leaf
  graph ``G'`` in the paper's §4.2 (there, each vertex is a whole
  rectangular region, so feasible moves preserve axis-parallel
  boundaries by construction).

* :func:`rebalance_kway` — balance-driven: while any partition exceeds
  a constraint bound, pick the partition/constraint with the worst
  relative excess and move the vertex that best reduces the total
  violation (cheapest cut loss among ties) out of it. Restores
  feasibility of the paper's P' majority-reassigned partition and
  implements the diffusion step of the repartitioner.

Both loops track balance with
:class:`~repro.partition.balance.BalanceTracker`. The greedy sweep
asks it one move at a time (O(ncon), no allocation) and walks each
neighbourhood as Python ints — the graph through
:attr:`~repro.graph.csr.CSRGraph.lists`, the labels through a list
kept in step with ``part`` (:func:`neighbor_partition_weights`, shared
with the k-way FM). It walks only the vertices that can move: one
array pass per sweep (:func:`move_gain_cells`) finds the boundary
vertices with an adjacent partition at gain ≥ 0, and a move re-opens
its neighbours. The rebalancer
scores a whole candidate × destination table per move through the
tracker's array queries and keeps its boundary incrementally, so a
move costs one O(n) mask plus O(deg + candidates · k) array work
rather than a rescan of every edge.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.graph.csr import AdjacencyLists, CSRGraph
from repro.graph.metrics import (
    boundary_vertices,
    external_degree,
    partition_weights,
)
from repro.partition.balance import BalanceTracker, target_weights
from repro.partition.config import PartitionOptions
from repro.utils.rng import as_rng


def neighbor_partition_weights(
    lists: AdjacencyLists, part: List[int], v: int
) -> Dict[int, int]:
    """Total edge weight from ``v`` into each adjacent partition, keyed
    in the order ``v``'s CSR row first meets them (``part`` is the
    label vector as a list)."""
    start, nbr, wgt = lists.start, lists.nbr, lists.wgt
    conn: Dict[int, int] = {}
    for i in range(start[v], start[v + 1]):
        p = part[nbr[i]]
        if p in conn:
            conn[p] += wgt[i]
        else:
            conn[p] = wgt[i]
    return conn


def move_gain_cells(
    graph: CSRGraph, part: np.ndarray, vertices: np.ndarray, k: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Array twin of :func:`neighbor_partition_weights` for a vertex
    set, as move gains.

    Returns ``(owner, dst, gain)`` with one cell per vertex
    ``vertices[owner]`` and adjacent partition ``dst`` other than the
    vertex's own, sorted by ``(owner, dst)``; ``gain`` is the edge
    weight into ``dst`` minus the edge weight into the own partition,
    summed exactly in ``int64``. Sparse on purpose: memory follows the
    vertices' adjacency entries, not ``len(vertices) × k``.
    """
    owner, edges = graph.incident_edges(vertices)
    key = owner * k + part[graph.adjncy[edges]]
    order = np.argsort(key, kind="stable")
    key = key[order]
    first = np.flatnonzero(np.diff(key, prepend=np.int64(-1)))
    if len(first) == 0:
        return key, key, key  # three empty int64 arrays
    weight = np.add.reduceat(graph.adjwgt[edges[order]], first)
    owner, dst = np.divmod(key[first], k)
    home = dst == part[vertices[owner]]
    own = np.zeros(len(vertices), dtype=np.int64)
    own[owner[home]] = weight[home]
    away = ~home
    owner = owner[away]
    return owner, dst[away], weight[away] - own[owner]


def _make_tracker(
    graph: CSRGraph,
    part: np.ndarray,
    k: int,
    ubfactor: float,
    fracs: Optional[np.ndarray],
) -> BalanceTracker:
    if fracs is None:
        fracs = np.full(k, 1.0 / k, dtype=np.float64)
    targets = target_weights(graph.total_vwgt, fracs)
    pwgts = partition_weights(graph, part, k)
    return BalanceTracker(pwgts, targets, ubfactor)


def greedy_kway_refine(
    graph: CSRGraph,
    part: np.ndarray,
    k: int,
    options: Optional[PartitionOptions] = None,
    fracs: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Refine a k-way partition in place; returns ``part``."""
    options = options or PartitionOptions()
    part = np.asarray(part, dtype=np.int64)
    rng = as_rng(options.seed)
    tracker = _make_tracker(graph, part, k, options.ubfactor, fracs)
    lists = graph.lists
    start, nbr = lists.start, lists.nbr
    labels: List[int] = part.tolist()  # mirror of ``part``, kept in step

    for _pass in range(options.kway_passes):
        moved = 0
        bnd = boundary_vertices(graph, part)
        # a vertex whose every adjacent partition has gain < 0 would
        # fail ``gain < 0`` at every destination before the tracker is
        # asked, so the loop skips it — until a neighbour moves and
        # changes its gains
        owner, _, gain = move_gain_cells(graph, part, bnd, k)
        opened = np.zeros(graph.num_vertices, dtype=np.uint8)
        opened[bnd[owner[gain >= 0]]] = 1
        scan = bytearray(opened.tobytes())
        rng.shuffle(bnd)
        for v in bnd.tolist():
            if not scan[v]:
                continue
            src = labels[v]
            conn = neighbor_partition_weights(lists, labels, v)
            own = conn.get(src, 0)
            vw = lists.weights(v)
            best = None  # (gain, -delta, dst)
            for dst, wgt in conn.items():
                if dst == src:
                    continue
                gain = wgt - own
                if gain < 0:
                    continue
                if not tracker.fits(dst, vw):
                    continue
                dv = tracker.delta_move(src, dst, vw)
                if gain == 0 and dv >= -1e-12:
                    continue  # zero-gain move must strictly help balance
                key = (gain, -dv, dst)
                if best is None or key > best:
                    best = key
            if best is not None:
                dst = best[2]
                part[v] = labels[v] = dst
                tracker.apply_move(src, dst, vw)
                moved += 1
                for i in range(start[v], start[v + 1]):
                    scan[nbr[i]] = 1
        if moved == 0:
            break
    return part


def _best_rebalance_move(
    graph: CSRGraph,
    part: np.ndarray,
    k: int,
    tracker: BalanceTracker,
    cand: np.ndarray,
    p_star: int,
    j_star: int,
) -> Optional[Tuple[int, int]]:
    """Score every ``cand`` × destination move out of ``p_star`` at
    once; returns the ``(v, dst)`` with the lexicographically smallest
    ``(violation delta, cut loss, v, dst)``, or ``None`` when no move
    lowers the violation."""
    m = len(cand)
    # conn[i, q]: edge weight from cand[i] into partition q
    owner, edges = graph.incident_edges(cand)
    cell = owner * k + part[graph.adjncy[edges]]
    conn = np.bincount(
        cell, weights=graph.adjwgt[edges], minlength=m * k
    ).reshape(m, k)
    adjacent = np.bincount(cell, minlength=m * k).reshape(m, k) > 0

    # adjacent partitions first, but also any partition with spare
    # capacity overall or slack in the binding constraint: when every
    # neighbouring partition is itself overweight, balance can only be
    # restored by a "teleport" move that a later refinement pass
    # cleans up
    vw = graph.vwgts[cand]
    open_dst = adjacent | tracker.fits_many(vw) | tracker.has_slack(j_star)
    open_dst[:, p_star] = False
    dv = tracker.delta_move_many(p_star, vw)
    dv[~open_dst | (dv >= -1e-12)] = np.inf
    best = dv.min()
    if best == np.inf:
        return None
    rows, dsts = np.nonzero(dv == best)
    cut_loss = conn[rows, p_star] - conn[rows, dsts]
    # smallest (cut loss, v, dst) without sorting the ~1,000 ties a
    # move has: candidates are distinct and ``np.nonzero`` lists a
    # row's destinations ascending, so the first entry of the smallest
    # vertex among the cheapest is the lexicographic minimum
    tied = np.flatnonzero(cut_loss == cut_loss.min())
    pick = tied[np.argmin(cand[rows[tied]])]
    return int(cand[rows[pick]]), int(dsts[pick])


def rebalance_kway(
    graph: CSRGraph,
    part: np.ndarray,
    k: int,
    options: Optional[PartitionOptions] = None,
    fracs: Optional[np.ndarray] = None,
    max_moves: Optional[int] = None,
    sample_cap: int = 384,
) -> Tuple[np.ndarray, int]:
    """Drive a k-way partition toward feasibility with minimal cut loss.

    Returns ``(part, n_moved)``. Terminates when feasible, when no
    single move improves the violation, or after ``max_moves``. Each
    move targets the worst (partition, constraint) excess; at most
    ``sample_cap`` candidate vertices are scored per move to bound the
    per-move cost on huge boundaries.

    One move costs O(n) mask work plus O(deg + candidates × k) scoring:
    the per-vertex external-neighbour count that defines the boundary
    is kept incrementally (only the moved vertex and its neighbours
    change), and the candidate × destination table is scored in one
    batch by :func:`_best_rebalance_move`.
    """
    if sample_cap < 1:
        raise ValueError(f"sample_cap must be >= 1 (got {sample_cap})")
    options = options or PartitionOptions()
    part = np.asarray(part, dtype=np.int64)
    tracker = _make_tracker(graph, part, k, options.ubfactor, fracs)
    vwgts = graph.vwgts
    carries = vwgts > 0
    if max_moves is None:
        max_moves = 4 * graph.num_vertices
    rng = as_rng(options.seed)
    ext = external_degree(graph, part)

    n_moved = 0
    stall = 0  # consecutive candidate samples that held no useful move
    while n_moved < max_moves and tracker.total > 1e-12 and stall < k + 2:
        worst = tracker.worst()
        if worst is None:
            break
        p_star, j_star = worst
        # the binding constraint only shrinks by exporting weight in it
        carriers = (part == p_star) & carries[:, j_star]
        cand = np.flatnonzero(carriers & (ext > 0))
        if len(cand) == 0:
            cand = np.flatnonzero(carriers)
        if len(cand) == 0:
            break  # nothing movable carries this constraint
        sampled = len(cand) > sample_cap
        if sampled:
            cand = rng.choice(cand, size=sample_cap, replace=False)

        move = _best_rebalance_move(
            graph, part, k, tracker, cand, p_star, j_star
        )
        if move is None:
            if not sampled:
                break  # every candidate was scored; the state is final
            stall += 1  # another draw may still hold an improving move
            continue
        stall = 0
        v, dst = move
        part[v] = dst
        tracker.apply_move(p_star, dst, vwgts[v].tolist())
        n_moved += 1
        # v's neighbours gain (in p_star) or lose (in dst) one external
        # entry each; v itself is recounted against its new partition
        nbrs = graph.neighbors(v)
        nbr_part = part[nbrs]
        gained = (nbr_part == p_star).astype(np.int64)
        np.add.at(ext, nbrs, gained - (nbr_part == dst))
        ext[v] = np.count_nonzero(nbr_part != dst)
    return part, n_moved
