"""Initial bisection of the coarsest graph.

Greedy graph growing (GGGP): grow one side breadth-first from a random
seed, always absorbing the frontier vertex whose move into the growing
region cuts the fewest edges, until the region's weight reaches the
target fraction. Several seeds are tried; each candidate is judged by
(balance violation, edge cut) lexicographically after a quick FM pass
in the caller. The coarsest graph is a few hundred vertices at most,
but a fit grows ``n_init_trials`` regions for each of its ``k - 1``
bisections (144 runs at k = 25), so the loop is not free: it runs on
Python ints (:attr:`~repro.graph.csr.CSRGraph.lists`, ``bytearray``
membership, list weights), which took it from 9 % of a paper-scale
k = 25 fit to about 4 %, and keeps each frontier vertex's gain, so an
absorbed vertex costs O(deg), not a re-sum of every neighbour's row.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.graph.csr import CSRGraph
from repro.partition.balance import target_weights
from repro.partition.pqueue import MaxPQ
from repro.utils.rng import SeedLike, as_rng


def _growth_progress(
    w0: List[float], total: List[float], constraint: int = -1
) -> float:
    """Fraction of the way to the target.

    ``constraint == -1`` averages over constraints with nonzero totals;
    otherwise progress is measured on that single constraint. With
    several spatially-uncorrelated constraints no single stopping rule
    is right for every graph, so the driver tries all of them and lets
    FM pick the best refined candidate.
    """
    if constraint >= 0:
        if total[constraint] <= 0:
            return 1.0
        return w0[constraint] / total[constraint]
    # left-to-right sum: what ``np.mean`` does below eight elements
    ratios = [w / t for w, t in zip(w0, total) if t > 0]
    if not ratios:
        return 1.0
    mean = 0.0
    for r in ratios:
        mean += r
    return mean / len(ratios)


def greedy_graph_growing(
    graph: CSRGraph,
    frac0: float,
    seed_vertex: int,
    constraint: int = -1,
) -> np.ndarray:
    """Single GGGP run from ``seed_vertex``; returns a 0/1 partition.

    Side 0 is grown until its relative weight (per ``constraint``, or
    the mean when -1) reaches ``frac0``.
    """
    n = graph.num_vertices
    lists = graph.lists
    start, nbr, wgt = lists.start, lists.nbr, lists.wgt
    total: List[float] = graph.total_vwgt.astype(float).tolist()
    in0 = bytearray(n)
    w0 = [0.0] * graph.ncon

    # gain of absorbing u: edge weight into the region minus out. It
    # starts at minus u's row sum and gains 2·w per entry of a joining
    # vertex's row that points at u, so the last push of u while v
    # joins carries the full gain (parallel edges and self-loops too)
    gain: Dict[int, int] = {}
    pq = MaxPQ([(seed_vertex, 0)])
    while _growth_progress(w0, total, constraint) < frac0:
        popped = pq.pop()
        if popped is None:
            break  # region's component exhausted before reaching target
        v, _ = popped
        if in0[v]:
            continue
        in0[v] = 1
        for j, w in enumerate(lists.weights(v)):
            w0[j] += w
        for i in range(start[v], start[v + 1]):
            u = nbr[i]
            if in0[u]:
                continue
            g = gain.get(u)
            if g is None:
                g = -sum(wgt[start[u] : start[u + 1]])
            g += 2 * wgt[i]
            gain[u] = g
            pq.insert(u, g)
    return 1 - np.frombuffer(in0, dtype=np.uint8).astype(np.int64)


def initial_bisection(
    graph: CSRGraph,
    frac0: float,
    n_trials: int,
    seed: SeedLike = None,
) -> list:
    """Generate ``n_trials`` candidate bisections (caller refines and
    ranks them). Falls back to a random split when the graph has no
    edges."""
    n = graph.num_vertices
    rng = as_rng(seed)
    candidates = []
    if graph.num_edges == 0:
        for _ in range(n_trials):
            part = (rng.random(n) > frac0).astype(np.int64)
            candidates.append(part)
        return candidates
    seeds = rng.choice(n, size=min(n_trials, n), replace=False)
    # alternate the growth stopping rule across trials: mean progress,
    # then each individual constraint (multi-constraint graphs need a
    # candidate that is balanced in *each* constraint for FM to start
    # from)
    rules = [-1] + (
        list(range(graph.ncon)) if graph.ncon > 1 else []
    )
    for i, s in enumerate(seeds):
        rule = rules[i % len(rules)]
        candidates.append(
            greedy_graph_growing(graph, frac0, int(s), constraint=rule)
        )
    return candidates
