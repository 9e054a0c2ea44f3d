"""Test-only oracles: the scalar rebalancer and the BFS component
labelling as they stood before the incremental / batch-scored rewrite.

The bodies are verbatim copies of the old ``rebalance_kway``,
``_neighbor_partition_weights``, ``_make_tracker``,
``connected_components`` and ``absorb_fragments`` (per-edge dict
connectivity); the differential tests assert the library
versions return the same labels, move counts and RNG state. They use
only the *scalar* :class:`~repro.partition.balance.BalanceTracker`
methods and the edge-scan ``boundary_vertices`` below, so nothing the
rewrite added is on the oracle's path. Do not "fix" or speed these up.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.metrics import partition_weights
from repro.graph.ops import induced_subgraph
from repro.partition.balance import BalanceTracker, target_weights
from repro.partition.config import PartitionOptions
from repro.utils.rng import as_rng


def boundary_vertices_reference(
    graph: CSRGraph, part: np.ndarray
) -> np.ndarray:
    """Vertices with at least one neighbour in another partition."""
    part = np.asarray(part, dtype=np.int64)
    src = np.repeat(np.arange(graph.num_vertices, dtype=np.int64), graph.degrees())
    cut = part[src] != part[graph.adjncy]
    return np.unique(src[cut])


def _neighbor_partition_weights(
    graph: CSRGraph, part: np.ndarray, v: int
) -> Dict[int, int]:
    """Total edge weight from ``v`` into each adjacent partition."""
    conn: Dict[int, int] = {}
    nbrs = graph.neighbors(v)
    wts = graph.edge_weights_of(v)
    for u, w in zip(nbrs, wts):
        p = int(part[u])
        conn[p] = conn.get(p, 0) + int(w)
    return conn


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


def rebalance_kway_reference(
    graph: CSRGraph,
    part: np.ndarray,
    k: int,
    options: Optional[PartitionOptions] = None,
    fracs: Optional[np.ndarray] = None,
    max_moves: Optional[int] = None,
    sample_cap: int = 384,
) -> Tuple[np.ndarray, int]:
    """The scalar ``rebalance_kway`` (one Python-level score per
    candidate × destination, boundary rescanned every move)."""
    options = options or PartitionOptions()
    part = np.asarray(part, dtype=np.int64)
    tracker = _make_tracker(graph, part, k, options.ubfactor, fracs)
    vwgts_arr = graph.vwgts
    vwgts = vwgts_arr.tolist()
    if max_moves is None:
        max_moves = 4 * graph.num_vertices
    rng = as_rng(options.seed)

    n_moved = 0
    stall = 0
    while n_moved < max_moves and tracker.total > 1e-12 and stall < k + 2:
        worst = tracker.worst()
        if worst is None:
            break
        p_star, j_star = worst
        bnd = boundary_vertices_reference(graph, part)
        cand = bnd[part[bnd] == p_star]
        # the binding constraint only shrinks by exporting weight in it
        cand = cand[vwgts_arr[cand, j_star] > 0]
        if len(cand) == 0:
            wide = np.nonzero(
                (part == p_star) & (vwgts_arr[:, j_star] > 0)
            )[0]
            cand = wide
        if len(cand) == 0:
            stall += 1  # nothing movable carries this constraint
            continue
        if len(cand) > sample_cap:
            cand = rng.choice(cand, size=sample_cap, replace=False)

        best = None  # (delta, cut_loss, v, dst)
        for v in cand:
            v = int(v)
            conn = _neighbor_partition_weights(graph, part, v)
            own = conn.get(p_star, 0)
            vw = vwgts[v]
            # adjacent partitions first, but also any partition with
            # spare capacity overall or slack in the binding constraint:
            # when every neighbouring partition is itself overweight,
            # balance can only be restored by a "teleport" move that a
            # later refinement pass cleans up
            dsts = set(conn)
            for d in range(k):
                if tracker.fits(d, vw) or (
                    tracker.pw[d][j_star] < tracker.allowed[d][j_star]
                ):
                    dsts.add(d)
            dsts.discard(p_star)
            for dst in dsts:
                dv = tracker.delta_move(p_star, dst, vw)
                if dv >= -1e-12:
                    continue
                cut_loss = own - conn.get(dst, 0)
                key = (dv, cut_loss, v, dst)
                if best is None or key < best:
                    best = key
        if best is None:
            stall += 1
            continue
        stall = 0
        _, _, v, dst = best
        part[v] = dst
        tracker.apply_move(p_star, dst, vwgts[v])
        n_moved += 1
    return part, n_moved


def connected_components_reference(graph: CSRGraph) -> np.ndarray:
    """Iterative BFS over the CSR arrays; labels in first-vertex order."""
    n = graph.num_vertices
    comp = np.full(n, -1, dtype=np.int64)
    current = 0
    for seed in range(n):
        if comp[seed] >= 0:
            continue
        frontier = np.array([seed], dtype=np.int64)
        comp[seed] = current
        while len(frontier):
            nxt = []
            for v in frontier:
                nbrs = graph.neighbors(v)
                fresh = nbrs[comp[nbrs] < 0]
                comp[fresh] = current
                if len(fresh):
                    nxt.append(np.unique(fresh))
            frontier = (
                np.concatenate(nxt) if nxt else np.empty(0, dtype=np.int64)
            )
        current += 1
    return comp


def _fragments_of_reference(
    graph: CSRGraph, part: np.ndarray, p: int
) -> Tuple[np.ndarray, list]:
    """Vertices of partition ``p`` and their connected components
    (list of index arrays into the *global* vertex space), largest
    first."""
    verts = np.nonzero(part == p)[0]
    if len(verts) == 0:
        return verts, []
    sub, ids = induced_subgraph(graph, verts)
    comp = connected_components_reference(sub)
    groups = [
        ids[comp == c] for c in range(comp.max() + 1)
    ]
    groups.sort(key=len, reverse=True)
    return verts, groups


def absorb_fragments_reference(
    graph: CSRGraph,
    part: np.ndarray,
    k: int,
    options: Optional[PartitionOptions] = None,
    fracs: Optional[np.ndarray] = None,
    max_passes: int = 3,
    force: bool = True,
    force_limit: float = 0.5,
) -> Tuple[np.ndarray, int]:
    """Merge non-dominant partition fragments into their best
    neighbouring partition.

    A fragment moves to the foreign partition it shares the most edge
    weight with, preferring destinations within the balance bounds.
    With ``force=True`` (METIS's EliminateComponents policy) a fragment
    whose weight is below ``force_limit`` of the mean partition target
    is moved to its most-connected neighbour *even when that overloads
    it* — eliminating the fragment is worth a temporary imbalance that
    the caller's subsequent rebalancing sweep repairs with cheap
    single-vertex moves. Returns ``(part, n_vertices_moved)``.
    """
    options = options or PartitionOptions()
    part = np.asarray(part, dtype=np.int64)
    if fracs is None:
        fracs = np.full(k, 1.0 / k, dtype=np.float64)
    targets = target_weights(graph.total_vwgt, fracs)
    mean_target = targets.mean(axis=0)
    tracker = BalanceTracker(
        partition_weights(graph, part, k), targets, options.ubfactor
    )

    total_moved = 0
    for _pass in range(max_passes):
        moved_this_pass = 0
        for p in range(k):
            verts, groups = _fragments_of_reference(graph, part, p)
            if len(groups) <= 1:
                continue
            for frag in groups[1:]:
                # edge weight from the fragment into each partition
                conn: dict = {}
                for v in frag:
                    nbrs = graph.neighbors(int(v))
                    wts = graph.edge_weights_of(int(v))
                    for u, w in zip(nbrs, wts):
                        q = int(part[u])
                        if q != p:
                            conn[q] = conn.get(q, 0) + int(w)
                if not conn:
                    continue  # body-isolated fragment; nothing adjacent
                frag_w = graph.vwgts[frag].sum(axis=0)
                ranked = sorted(
                    conn.items(), key=lambda kv: kv[1], reverse=True
                )
                chosen = None
                for dst, _w in ranked:
                    if tracker.fits(dst, frag_w.tolist()):
                        chosen = dst
                        break
                if chosen is None and force:
                    small = True
                    for j in range(graph.ncon):
                        if mean_target[j] > 0 and (
                            frag_w[j] > force_limit * mean_target[j]
                        ):
                            small = False
                            break
                    if small:
                        chosen = ranked[0][0]
                if chosen is None:
                    dst = ranked[0][0]
                    if tracker.delta_move(p, dst, frag_w.tolist()) < -1e-12:
                        chosen = dst
                if chosen is None:
                    continue
                part[frag] = chosen
                tracker.apply_move(p, chosen, frag_w.tolist())
                moved_this_pass += len(frag)
        total_moved += moved_this_pass
        if moved_this_pass == 0:
            break
    return part, total_moved
