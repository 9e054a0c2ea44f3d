"""Test-only oracles: the partitioner's scalar move loops and the
sorting handshake matching as they stood before the loops moved onto
Python ints (``CSRGraph.lists``) and the matching lost its sort.

The bodies are verbatim copies of the old ``_fm_pass``, ``_rebalance``
and ``fm_refine_bisection`` (with their ``gain_vector`` /
``_boundary_mask`` / ``_partition_weights2`` helpers),
``kway_fm_refine`` + ``_best_move`` + ``_conn_of``,
``greedy_kway_refine`` (+ ``_neighbor_partition_weights`` /
``_make_tracker``), ``greedy_graph_growing`` (+ ``_growth_progress``),
``_propose`` + ``heavy_edge_matching``, ``move_keeps_feasible`` (+
``max_allowed``), the ``np.add.at`` ``partition_weights`` and the
push-one-by-one ``MaxPQ`` they ran on. They read the graph through
``neighbors`` / ``edge_weights_of`` array views and use only the
scalar :class:`~repro.partition.balance.BalanceTracker` methods, so
nothing the rewrite added is on the oracle's path. The differential
tests in ``test_moves_differential.py`` assert the library versions
return the same labels, weights, flags, move counts, coarse maps and
RNG state. Do not "fix" or speed these up — that includes the
unstable ``np.argsort`` in ``_rebalance``.
"""

from __future__ import annotations

import heapq
import itertools
from typing import Dict, Hashable, Optional, Tuple

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.metrics import boundary_vertices, edge_cut
from repro.partition.balance import BalanceTracker, target_weights
from repro.partition.config import PartitionOptions
from repro.utils.rng import SeedLike, as_rng


class MaxPQ:
    """Max-priority queue keyed by arbitrary hashable items."""

    def __init__(self) -> None:
        self._heap: list = []
        self._version: dict = {}
        self._counter = itertools.count()

    def __len__(self) -> int:
        return len(self._version)

    def __contains__(self, item: Hashable) -> bool:
        return item in self._version

    def insert(self, item: Hashable, priority: float) -> None:
        """Insert or update ``item`` with ``priority``."""
        count = next(self._counter)
        self._version[item] = count
        # negate for max-heap on heapq's min-heap; counter breaks ties FIFO
        heapq.heappush(self._heap, (-priority, count, item))

    update = insert

    def remove(self, item: Hashable) -> None:
        """Remove ``item`` if present (lazy; the heap entry is orphaned)."""
        self._version.pop(item, None)

    def peek(self) -> Optional[Tuple[Hashable, float]]:
        """Return ``(item, priority)`` of the max without removing it."""
        self._drop_stale()
        if not self._heap:
            return None
        neg, _, item = self._heap[0]
        return item, -neg

    def pop(self) -> Optional[Tuple[Hashable, float]]:
        """Remove and return ``(item, priority)`` of the max, or ``None``."""
        self._drop_stale()
        if not self._heap:
            return None
        neg, count, item = heapq.heappop(self._heap)
        del self._version[item]
        return item, -neg

    def _drop_stale(self) -> None:
        heap = self._heap
        version = self._version
        while heap:
            neg, count, item = heap[0]
            if version.get(item) == count:
                return
            heapq.heappop(heap)


def max_allowed(targets: np.ndarray, ubfactor: float) -> np.ndarray:
    """Upper weight bounds: ``ubfactor * target`` (zero targets stay 0
    but are never binding — see :func:`violation`)."""
    return targets * ubfactor


def move_keeps_feasible(
    pwgts: np.ndarray,
    vwgt: np.ndarray,
    src: int,
    dst: int,
    targets: np.ndarray,
    ubfactor: float,
) -> bool:
    """Would moving a vertex of weight ``vwgt`` from ``src`` to ``dst``
    keep (or leave) the destination within bounds?

    Only the destination can gain weight, so only it is checked.
    Zero-total constraints are ignored.
    """
    allowed = max_allowed(targets, ubfactor)
    new_dst = pwgts[dst] + vwgt
    for j in range(targets.shape[1]):
        if targets[:, j].sum() <= 0:
            continue
        if new_dst[j] > allowed[dst, j]:
            return False
    return True


def partition_weights(graph: CSRGraph, part: np.ndarray, k: int) -> np.ndarray:
    """Per-partition, per-constraint weight sums, shape ``(k, ncon)``."""
    part = np.asarray(part, dtype=np.int64)
    out = np.zeros((k, graph.ncon), dtype=np.int64)
    np.add.at(out, part, graph.vwgts)
    return out


def gain_vector(graph: CSRGraph, part: np.ndarray) -> np.ndarray:
    """FM gains for all vertices: external minus internal edge weight."""
    n = graph.num_vertices
    src = np.repeat(np.arange(n, dtype=np.int64), graph.degrees())
    same = part[src] == part[graph.adjncy]
    contrib = np.where(same, -graph.adjwgt, graph.adjwgt)
    gains = np.zeros(n, dtype=np.int64)
    np.add.at(gains, src, contrib)
    return gains


def _boundary_mask(graph: CSRGraph, part: np.ndarray) -> np.ndarray:
    n = graph.num_vertices
    src = np.repeat(np.arange(n, dtype=np.int64), graph.degrees())
    cut = part[src] != part[graph.adjncy]
    mask = np.zeros(n, dtype=bool)
    mask[src[cut]] = True
    return mask


def _partition_weights2(graph: CSRGraph, part: np.ndarray) -> np.ndarray:
    pw = np.zeros((2, graph.ncon), dtype=np.int64)
    np.add.at(pw, part, graph.vwgts)
    return pw


def _rebalance(
    graph: CSRGraph,
    part: np.ndarray,
    pwgts: np.ndarray,
    targets: np.ndarray,
    ubfactor: float,
    max_moves: int,
) -> None:
    """Greedy violation descent (phase 1). Mutates ``part``/``pwgts``.

    Each move targets the worst (side, constraint) excess and scores
    only vertices carrying weight in that constraint; gains are
    maintained incrementally after each move.
    """
    tracker = BalanceTracker(pwgts, targets, ubfactor)
    if tracker.total <= 1e-12:
        return
    gains = gain_vector(graph, part)
    boundary = _boundary_mask(graph, part)
    vwgts = graph.vwgts

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
        # best balance improvement, then best gain
        top = cand[np.argsort(gains[cand])[::-1][:64]]
        best = None  # (delta, -gain, v)
        for v in top:
            v = int(v)
            dv = tracker.delta_move(side, 1 - side, vwgts[v].tolist())
            if dv < -1e-12:
                key = (dv, -gains[v], v)
                if best is None or key < best:
                    best = key
        if best is None:
            break  # no single move improves balance
        _, _, v = best
        part[v] = 1 - side
        tracker.apply_move(side, 1 - side, vwgts[v].tolist())
        # incremental gain + boundary maintenance around v
        gains[v] = -gains[v]
        nbrs = graph.neighbors(v)
        wts = graph.edge_weights_of(v)
        for u, w in zip(nbrs, wts):
            if part[u] == part[v]:
                gains[u] -= 2 * w
            else:
                gains[u] += 2 * w
            boundary[u] = True
        boundary[v] = True
    pwgts[:] = tracker.pwgts_array().astype(np.int64)


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
    pwgts = _partition_weights2(graph, part)

    for _pass in range(options.fm_passes):
        _rebalance(
            graph, part, pwgts, targets, options.ubfactor, max_moves=n
        )
        improved = _fm_pass(graph, part, pwgts, targets, options)
        if not improved:
            break
    return part


def _fm_pass(
    graph: CSRGraph,
    part: np.ndarray,
    pwgts: np.ndarray,
    targets: np.ndarray,
    options: PartitionOptions,
) -> bool:
    """One FM hill-climbing pass. Returns True if the cut improved."""
    gains = gain_vector(graph, part)
    boundary = _boundary_mask(graph, part)
    locked = np.zeros(graph.num_vertices, dtype=bool)

    queues = (MaxPQ(), MaxPQ())
    for v in np.nonzero(boundary)[0]:
        queues[part[v]].insert(int(v), float(gains[v]))

    start_cut = cur_cut = edge_cut(graph, part)
    best_cut = cur_cut
    moves: list = []  # (v, from_side)
    best_len = 0
    since_best = 0

    while since_best < options.fm_neg_moves:
        # pick the feasible move with the larger gain among the two tops
        choice = None
        for side in (0, 1):
            top = queues[side].peek()
            if top is None:
                continue
            v, g = top
            if choice is None or g > choice[1]:
                choice = (side, g, v)
        if choice is None:
            break
        side, g, v = choice
        queues[side].pop()
        if locked[v] or part[v] != side:
            continue
        if not move_keeps_feasible(
            pwgts, graph.vwgts[v], side, 1 - side, targets, options.ubfactor
        ):
            continue  # discard for this pass

        # execute the move
        part[v] = 1 - side
        pwgts[side] -= graph.vwgts[v]
        pwgts[1 - side] += graph.vwgts[v]
        locked[v] = True
        cur_cut -= int(gains[v])
        moves.append((v, side))

        if cur_cut < best_cut:
            best_cut = cur_cut
            best_len = len(moves)
            since_best = 0
        else:
            since_best += 1

        # incremental gain updates for unlocked neighbours
        nbrs = graph.neighbors(v)
        wts = graph.edge_weights_of(v)
        for u, w in zip(nbrs, wts):
            if locked[u]:
                continue
            if part[u] == part[v]:
                gains[u] -= 2 * w  # edge became internal
            else:
                gains[u] += 2 * w  # edge became external
            queues[part[u]].insert(int(u), float(gains[u]))

    # roll back past the best prefix
    for v, side in reversed(moves[best_len:]):
        part[v] = side
        pwgts[1 - side] -= graph.vwgts[v]
        pwgts[side] += graph.vwgts[v]

    return best_cut < start_cut


def _conn_of(graph: CSRGraph, part: np.ndarray, v: int) -> Dict[int, int]:
    conn: Dict[int, int] = {}
    nbrs = graph.neighbors(v)
    wts = graph.edge_weights_of(v)
    for u, w in zip(nbrs, wts):
        p = int(part[u])
        conn[p] = conn.get(p, 0) + int(w)
    return conn


def _best_move(
    graph: CSRGraph,
    part: np.ndarray,
    tracker: BalanceTracker,
    vwgts: list,
    v: int,
) -> Optional[Tuple[int, int]]:
    """Best feasible (gain, dst) for vertex ``v``, or None."""
    src = int(part[v])
    conn = _conn_of(graph, part, v)
    own = conn.get(src, 0)
    vw = vwgts[v]
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


def kway_fm_refine(
    graph: CSRGraph,
    part: np.ndarray,
    k: int,
    options: Optional[PartitionOptions] = None,
    fracs: Optional[np.ndarray] = None,
    passes: Optional[int] = None,
) -> np.ndarray:
    """FM-style k-way refinement in place; returns ``part``.

    Requires a (near-)feasible input partition: moves never overload a
    destination, so infeasible inputs should go through
    :func:`repro.partition.refine_kway.rebalance_kway` first.
    """
    options = options or PartitionOptions()
    part = np.asarray(part, dtype=np.int64)
    if fracs is None:
        fracs = np.full(k, 1.0 / k, dtype=np.float64)
    targets = target_weights(graph.total_vwgt, fracs)
    vwgts = graph.vwgts.tolist()
    n_passes = passes if passes is not None else options.kway_passes

    for _pass in range(n_passes):
        tracker = BalanceTracker(
            partition_weights(graph, part, k), targets, options.ubfactor
        )
        pq = MaxPQ()
        moved_to: Dict[int, Tuple[int, int]] = {}  # v -> (from, to)
        locked = np.zeros(graph.num_vertices, dtype=bool)
        for v in boundary_vertices(graph, part):
            mv = _best_move(graph, part, tracker, vwgts, int(v))
            if mv is not None:
                pq.insert(int(v), float(mv[0]))

        start_cut = cur_cut = edge_cut(graph, part)
        best_cut = cur_cut
        journal: list = []  # (v, src, dst)
        best_len = 0
        since_best = 0

        while since_best < options.fm_neg_moves:
            entry = pq.pop()
            if entry is None:
                break
            v, _stale_gain = entry
            if locked[v]:
                continue
            mv = _best_move(graph, part, tracker, vwgts, v)
            if mv is None:
                continue
            gain, dst = mv
            src = int(part[v])
            # execute
            part[v] = dst
            tracker.apply_move(src, dst, vwgts[v])
            locked[v] = True
            cur_cut -= gain
            journal.append((v, src, dst))
            if cur_cut < best_cut:
                best_cut = cur_cut
                best_len = len(journal)
                since_best = 0
            else:
                since_best += 1
            # refresh unlocked neighbours
            for u in graph.neighbors(v):
                u = int(u)
                if locked[u]:
                    continue
                mu = _best_move(graph, part, tracker, vwgts, u)
                if mu is not None:
                    pq.insert(u, float(mu[0]))
                else:
                    pq.remove(u)

        # rollback past best prefix
        for v, src, dst in reversed(journal[best_len:]):
            part[v] = src
        if best_cut >= start_cut:
            break
    return part


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
    vwgts = graph.vwgts.tolist()

    for _pass in range(options.kway_passes):
        moved = 0
        bnd = boundary_vertices(graph, part)
        rng.shuffle(bnd)
        for v in bnd:
            v = int(v)
            src = int(part[v])
            conn = _neighbor_partition_weights(graph, part, v)
            own = conn.get(src, 0)
            vw = vwgts[v]
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
                part[v] = dst
                tracker.apply_move(src, dst, vw)
                moved += 1
        if moved == 0:
            break
    return part


def _growth_progress(
    w0: np.ndarray, total: np.ndarray, constraint: int = -1
) -> float:
    """Fraction of the way to the target.

    ``constraint == -1`` averages over constraints with nonzero totals;
    otherwise progress is measured on that single constraint. With
    several spatially-uncorrelated constraints no single stopping rule
    is right for every graph, so the driver tries all of them and lets
    FM pick the best refined candidate.
    """
    nz = total > 0
    if not nz.any():
        return 1.0
    if constraint >= 0:
        if total[constraint] <= 0:
            return 1.0
        return float(w0[constraint] / total[constraint])
    return float((w0[nz] / total[nz]).mean())


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
    total = graph.total_vwgt.astype(float)
    part = np.ones(n, dtype=np.int64)
    in0 = np.zeros(n, dtype=bool)
    w0 = np.zeros(graph.ncon, dtype=float)

    pq = MaxPQ()

    def gain_of(v: int) -> float:
        nbrs = graph.neighbors(v)
        wts = graph.edge_weights_of(v)
        inside = in0[nbrs]
        return float(wts[inside].sum() - wts[~inside].sum())

    pq.insert(seed_vertex, 0.0)
    while _growth_progress(w0, total, constraint) < frac0:
        popped = pq.pop()
        if popped is None:
            break  # region's component exhausted before reaching target
        v, _ = popped
        if in0[v]:
            continue
        in0[v] = True
        part[v] = 0
        w0 += graph.vwgts[v]
        for u in graph.neighbors(v):
            if not in0[u]:
                pq.insert(int(u), gain_of(int(u)))
    return part


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
    # ascending sort by (src, weight, prio[dst]); the last edge of each
    # src-run is that vertex's argmax
    order = np.lexsort((prio[d], w, s))
    s, d = s[order], d[order]
    last = np.nonzero(np.diff(s, append=np.int64(-1)))[0]
    proposal[s[last]] = d[last]
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
