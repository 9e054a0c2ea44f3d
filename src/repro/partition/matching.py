"""Vectorised heavy-edge matching for multilevel coarsening.

Uses the handshaking formulation: each unmatched vertex proposes its
heaviest-edge unmatched neighbour; mutual proposals become matches; the
rest retry next round. A few rounds match the large majority of
vertices, all with whole-array NumPy passes instead of a per-vertex
Python loop — the standard way to keep multilevel coarsening fast in
array languages, and the same scheme used by parallel multilevel
partitioners. A round sorts nothing: masking the edge arrays keeps CSR
order, so a vertex's live entries are one run and its proposal is a
segmented maximum (``np.maximum.reduceat``) of the weights, then of the
random priorities among the heaviest.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.graph.csr import CSRGraph
from repro.utils.rng import SeedLike, as_rng


def _propose(
    graph: CSRGraph,
    match: np.ndarray,
    prio: np.ndarray,
) -> np.ndarray:
    """One proposal round: each unmatched vertex picks its heaviest
    unmatched neighbour (ties broken by the random priority ``prio``).

    Returns ``proposal[n]`` with -1 where no candidate exists.
    """
    n = graph.num_vertices
    src = np.repeat(np.arange(n, dtype=np.int64), graph.degrees())
    dst = graph.adjncy
    ok = (match[src] < 0) & (match[dst] < 0)
    proposal = np.full(n, -1, dtype=np.int64)
    if not ok.any():
        return proposal
    s, d, w = src[ok], dst[ok], graph.adjwgt[ok]
    # the mask keeps CSR order, so ``s`` is ascending and each vertex's
    # live entries form one run: its argmax by (weight, prio[dst]) is
    # two segmented maxima, no sort
    first = np.diff(s, prepend=np.int64(-1)) != 0
    starts = np.flatnonzero(first)
    run = np.cumsum(first) - 1
    heaviest = w == np.maximum.reduceat(w, starts)[run]
    p = np.where(heaviest, prio[d], -np.inf)
    best = p == np.maximum.reduceat(p, starts)[run]
    # equal priorities: the last such entry in CSR order wins, as the
    # last of a stable ascending sort's run would
    pick = np.maximum.reduceat(
        np.where(best, np.arange(len(s), dtype=np.int64), -1), starts
    )
    proposal[s[starts]] = d[pick]
    return proposal


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
    for _ in range(rounds):
        prio = rng.random(n)
        proposal = _propose(graph, match, prio)
        v = np.arange(n, dtype=np.int64)
        mutual = (
            (proposal >= 0)
            & (proposal[np.clip(proposal, 0, n - 1)] == v)
            & (v < proposal)
        )
        us = v[mutual]
        if len(us) == 0:
            break
        vs = proposal[us]
        match[us] = vs
        match[vs] = us
    # assign dense coarse ids: pair takes the id slot of its lower vertex
    is_rep = (match < 0) | (np.arange(n, dtype=np.int64) < match)
    cmap = np.full(n, -1, dtype=np.int64)
    reps = np.nonzero(is_rep)[0]
    cmap[reps] = np.arange(len(reps), dtype=np.int64)
    partner_of_rep = match[reps]
    has_partner = partner_of_rep >= 0
    cmap[partner_of_rep[has_partner]] = cmap[reps[has_partner]]
    return cmap, len(reps)


def random_matching(
    graph: CSRGraph, seed: SeedLike = None
) -> Tuple[np.ndarray, int]:
    """Random maximal-ish matching (baseline / tie-breaking fallback).

    Same handshaking machinery but proposals ignore edge weights, so it
    produces worse coarse graphs than heavy-edge matching — kept for
    ablation tests of the coarsening stage.
    """
    uniform = graph.with_adjwgt(np.ones_like(graph.adjwgt))
    return heavy_edge_matching(uniform, rounds=4, seed=seed)
