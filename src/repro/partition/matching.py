"""Vectorised heavy-edge matching for multilevel coarsening.

Uses the handshaking formulation: each unmatched vertex proposes its
heaviest-edge unmatched neighbour; mutual proposals become matches; the
rest retry next round. A few rounds match the large majority of
vertices, all with whole-array NumPy passes instead of a per-vertex
Python loop — the standard way to keep multilevel coarsening fast in
array languages, and the same scheme used by parallel multilevel
partitioners. A round sorts nothing and touches only live entries
(both endpoints unmatched): the edge arrays are compacted after each
round's matches, which keeps CSR order, so a vertex's live entries are
one run and its proposal is a segmented maximum
(``np.maximum.reduceat``) of the weights, then of the random
priorities among the heaviest.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.graph.csr import CSRGraph
from repro.utils.rng import SeedLike, as_rng

EdgeArrays = Tuple[np.ndarray, np.ndarray, np.ndarray]


def _live(match: np.ndarray, edges: EdgeArrays) -> EdgeArrays:
    """The ``(src, dst, wgt)`` entries whose endpoints are both
    unmatched, in their original (CSR) order."""
    src, dst, wgt = edges
    keep = (match[src] < 0) & (match[dst] < 0)
    return src[keep], dst[keep], wgt[keep]


def _propose(
    live: EdgeArrays, prio: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """One proposal round over the live entries ``(src, dst, wgt)``
    (CSR order, see :func:`_live`): each vertex with a live entry picks
    its heaviest live neighbour (ties broken by the random priority
    ``prio``).

    Returns ``(proposers, proposed)``: every vertex with a live entry,
    ascending, and the neighbour it picked.
    """
    s, d, w = live
    if len(s) == 0:
        return s, d
    # CSR order makes ``s`` ascending and each vertex's live entries one
    # run: its argmax by (weight, prio[dst]) is two segmented maxima,
    # no sort
    starts = np.flatnonzero(np.diff(s, prepend=np.int64(-1)))
    runs = np.diff(starts, append=len(s))
    heaviest = w == np.repeat(np.maximum.reduceat(w, starts), runs)
    p = np.where(heaviest, prio[d], -np.inf)
    best = np.flatnonzero(p == np.repeat(np.maximum.reduceat(p, starts), runs))
    # every run has a best entry; of equal priorities the last in CSR
    # order wins, as the last of a stable ascending sort's run would
    owner = s[best]
    last = np.append(owner[1:] != owner[:-1], True)
    return s[starts], d[best[last]]


def heavy_edge_matching(
    graph: CSRGraph,
    rounds: int = 4,
    seed: SeedLike = None,
) -> Tuple[np.ndarray, int]:
    """Compute a heavy-edge matching of ``graph``.

    Returns ``(cmap, n_coarse)``: ``cmap[v]`` is the coarse-vertex id
    of ``v``; matched pairs share an id, unmatched vertices become
    singletons. Coarse ids are dense in ``[0, n_coarse)``.
    """
    n = graph.num_vertices
    rng = as_rng(seed)
    match = np.full(n, -1, dtype=np.int64)
    proposal = np.full(n, -1, dtype=np.int64)  # -1 between rounds
    live = (graph.row_index, graph.adjncy, graph.adjwgt)  # all unmatched
    for _ in range(rounds):
        prio = rng.random(n)
        us, vs = _propose(live, prio)
        proposal[us] = vs
        # mutual proposals, each pair once from its lower vertex
        mutual = (proposal[vs] == us) & (us < vs)
        proposal[us] = -1
        us, vs = us[mutual], vs[mutual]
        if len(us) == 0:
            break
        match[us] = vs
        match[vs] = us
        live = _live(match, live)
    # assign dense coarse ids: pair takes the id slot of its lower vertex
    is_rep = (match < 0) | (np.arange(n, dtype=np.int64) < match)
    cmap = np.full(n, -1, dtype=np.int64)
    reps = np.nonzero(is_rep)[0]
    cmap[reps] = np.arange(len(reps), dtype=np.int64)
    partner_of_rep = match[reps]
    has_partner = partner_of_rep >= 0
    cmap[partner_of_rep[has_partner]] = cmap[reps[has_partner]]
    return cmap, len(reps)
