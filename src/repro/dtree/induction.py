"""Decision-tree induction (paper §4.1.1 and §4.2).

Both inducers share one engine, a level pass, differing only in the
termination predicate and in how a pure node is cut:

* :func:`induce_pure_tree` — split impure nodes with Eq. 1 until every
  leaf is pure (or geometrically unsplittable, which only happens when
  coincident points carry different labels).
* :func:`induce_bounded_tree` — the §4.2 variant: keep splitting pure
  nodes of ``>= max_p`` points (median cuts — Eq. 1 is indifferent on a
  pure node) and impure nodes of ``>= max_i`` points (Eq. 1 cuts);
  everything else terminates.

Both return ``(tree, leaf_of_point)`` so callers can collapse leaves
into the refinement graph ``G'`` without re-querying.

The tree is grown one depth at a time. The coordinates are sorted once
at the root, stably, and every node open at the current depth is a
contiguous segment of the ``d`` coordinate-sorted rows; one call of
:func:`~repro.dtree.splitter.choose_cuts` picks the cut of every one of
them, and each segment is then stably partitioned into its two
children, which keeps both children sorted in every row. Node ids are
assigned in preorder at the end, so the tree is the one a depth-first
recursion builds, node for node.

Across a snapshot sequence (§4.3: between repartitions only the tree
is re-induced) most of a tree's nodes see the points and labels they
saw one step earlier. The engine therefore reads and refills a
:class:`SubtreeMemo`: a node whose depth, points and labels are bit for
bit a remembered node's takes that node's whole subtree instead of
splitting, and leaves the batch. A subtree is a deterministic function
of exactly that triple, so the result is the from-scratch tree by
construction, and a one-shot call runs the same engine without a memo.
See ``docs/ALGORITHMS.md``, "Carrying the graph and the descriptor
tree across snapshots".
"""

from __future__ import annotations

from typing import List, NamedTuple, Optional, Tuple, Union

import numpy as np

from repro.dtree.splitter import choose_cuts, median_cuts, narrow_labels
from repro.dtree.tree import DecisionTree
from repro.utils.validation import (
    check_array,
    check_finite,
    check_labels,
    check_positive,
)

#: odd 64-bit multipliers of the content hash (splitmix64's constants)
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_SHIFTS = tuple(np.uint64(b) for b in (30, 27, 31))

#: columns of :attr:`_Nodes.ints`
N_POINTS, LABEL, PURE, DIM, LEFT, RIGHT, SIZE, DEPTH = range(8)


def _content(points: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Each point's coordinate bits and label, one ``uint64`` row."""
    n, d = points.shape
    content = np.empty((n, d + 1), dtype=np.uint64)
    content[:, :d] = points.view(np.uint64)
    content[:, d] = labels
    return content


def _point_hashes(content: np.ndarray) -> np.ndarray:
    """One 64-bit hash of each :func:`_content` row: splitmix64's
    finaliser applied after each word, so that no change of a row's
    bits (a sign flip of two coordinates, say) cancels out."""
    s30, s27, s31 = _SHIFTS
    h = np.full(len(content), _GOLDEN, dtype=np.uint64)
    for j in range(content.shape[1]):
        h += content[:, j]
        h ^= h >> s30
        h *= _MIX1
        h ^= h >> s27
        h *= _MIX2
        h ^= h >> s31
    return h


def _ranges(first: np.ndarray, length: np.ndarray) -> np.ndarray:
    """``concatenate([arange(f, f + n) for f, n in zip(first, length)])``."""
    offset = length.cumsum() - length
    return np.repeat(first - offset, length) + np.arange(int(length.sum()))


def _ascending(ids: np.ndarray, length: np.ndarray, n: int) -> np.ndarray:
    """Each run of ``ids`` (lengths ``length``, ids below ``n``) sorted."""
    run = np.repeat(np.arange(len(length)) * n, length)
    return np.sort(run + ids) - run


class _Nodes(NamedTuple):
    """Node fields as parallel arrays: ``ints`` holds the integer
    fields (columns ``N_POINTS`` … ``DEPTH``; child offsets relative to
    the node, 0 on a leaf; ``SIZE`` the node count of the subtree it
    roots), ``key`` the content key of :func:`_Induction.level`."""

    ints: np.ndarray
    threshold: np.ndarray
    key: np.ndarray

    def take(self, idx: np.ndarray) -> "_Nodes":
        return _Nodes(self.ints[idx], self.threshold[idx], self.key[idx])


class SubtreeMemo:
    """The last tree induced through it, node by node in preorder.

    Nothing in it depends on where a node sits in the tree (child ids
    and leaf ids are stored relative to the node's own id), so a
    remembered subtree can be grafted at any position of the next
    tree, and a caller can edit nothing in it (its node arrays are
    read-only, as are the tree fields that view them, and points,
    labels and leaf ids are its own copies). Each induction replaces the
    contents with the tree it built: the memo holds one tree — its node
    arrays and one record per point — and there is nothing to
    invalidate, a changed input is a miss. ``rule`` is the
    ``(margin_weight, max_depth)`` that tree was induced under; an
    induction under another rule starts empty. One memo serves one
    inducer (it does not record the termination predicate).

    A node is looked up by a 64-bit key, the sum of its points' hashes
    plus a constant per depth (equal content at equal depth gives an
    equal key whatever the order), and a hit is used only if the
    remembered node has the same depth and its points — coordinate
    bits — and labels, in point order, equal the node's.
    """

    def __init__(self) -> None:
        self.rule: Optional[Tuple[float, int]] = None
        #: nodes of the last tree that were grafted, not split
        self.n_grafted = 0
        self._nodes: Optional[_Nodes] = None
        #: :func:`_content` of the points
        self._content = np.empty((0, 0), dtype=np.uint64)
        #: per point, its leaf's id
        self._leaf = np.empty(0, dtype=np.int64)
        #: the points leaf by leaf: node q's are the ``n_points`` from
        #: ``_by_leaf[_first[q]]`` on
        self._by_leaf = np.empty(0, dtype=np.int64)
        self._first = np.empty(0, dtype=np.int64)
        self._sorted_keys = np.empty(0, dtype=np.uint64)
        self._key_node = np.empty(0, dtype=np.int64)

    def _lookup(self, key: np.ndarray, blocked: np.ndarray) -> np.ndarray:
        """The remembered node with each key (``blocked`` ones aside),
        or -1; :meth:`_check` confirms the hits."""
        if self._nodes is None:
            return np.full(len(key), -1)
        at = self._sorted_keys.searchsorted(key)
        np.minimum(at, len(self._sorted_keys) - 1, out=at)
        node = self._key_node[at]
        miss = self._sorted_keys[at] != key
        if len(blocked):
            miss |= np.isin(key, blocked)
        node[miss] = -1
        return node

    def _check(
        self, content: np.ndarray, grafts: "_Grafts"
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Whether each key hit is a true one. Returns ``(ok, points,
        leaf)``; when every hit is, ``points`` are their points and
        ``leaf`` the remembered leaf ids relative to the grafted node
        (else both are ``None``)."""
        node, length = grafts.node, grafts.length
        ints = self._nodes.ints
        ok = ints[node, N_POINTS] == length
        ok &= ints[node, DEPTH] == grafts.depth
        if not ok.all():
            return ok, None, None
        mine = _ascending(grafts.points, length, len(content))
        theirs = _ascending(
            self._by_leaf[_ranges(self._first[node], length)],
            length,
            len(self._content),
        )
        same = (content[mine] == self._content[theirs]).all(axis=1)
        ok = np.logical_and.reduceat(same, length.cumsum() - length)
        if not ok.all():
            return ok, None, None
        return ok, mine, self._leaf[theirs] - np.repeat(node, length)

    def _replace(
        self,
        rule: Tuple[float, int],
        nodes: _Nodes,
        content: np.ndarray,
        leaf: np.ndarray,
        n_grafted: int,
    ) -> None:
        """Remember ``nodes`` (and only them)."""
        self.rule = rule
        self.n_grafted = n_grafted
        self._nodes = nodes
        self._content = content
        self._leaf = leaf.copy()
        # leaf ids as narrow as they fit: NumPy radix-sorts 16 bits
        narrow = leaf.astype(np.min_scalar_type(len(nodes.key)))
        self._by_leaf = narrow.argsort(kind="stable")
        in_leaf = np.bincount(leaf, minlength=len(nodes.key))
        self._first = in_leaf.cumsum() - in_leaf
        self._key_node = nodes.key.argsort(kind="stable")
        self._sorted_keys = nodes.key[self._key_node]


class _Level(NamedTuple):
    """The nodes of one depth, in batch order: a split node's children
    are the next level's next two nodes. ``graft`` is the remembered
    node each node was grafted from, or -1."""

    size: np.ndarray
    label: np.ndarray
    pure: np.ndarray
    dim: np.ndarray
    threshold: np.ndarray
    split: np.ndarray
    graft: np.ndarray
    key: np.ndarray


class _Grafts(NamedTuple):
    """Key hits: the hit nodes' level-order ids, depths (one per level
    while they are collected), sizes and remembered nodes, and their
    points, node after node."""

    at: np.ndarray
    depth: Union[int, np.ndarray]
    length: np.ndarray
    node: np.ndarray
    points: np.ndarray


def _pack(
    keep: np.ndarray, seg: np.ndarray, size: np.ndarray, ids: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Only the ``keep`` segments: ``(seg, start, size, ids)``."""
    size = size[keep]
    return (
        np.repeat(np.arange(len(size)), size),
        size.cumsum() - size,
        size,
        ids[:, keep[seg]],
    )


class _Induction:
    """One induction, grown a level at a time by :meth:`level`."""

    def __init__(
        self,
        points: np.ndarray,
        labels: np.ndarray,
        k: int,
        max_p: float,
        max_i: float,
        margin_weight: float,
        max_depth: int,
        old: Optional[SubtreeMemo],
        blocked: np.ndarray,
    ) -> None:
        n, d = points.shape
        self.k = k
        self.max_p, self.max_i = max_p, max_i
        self.median = max_p < np.inf  # pure nodes may be cut
        self.margin_weight = margin_weight
        self.max_depth = max_depth
        self.narrow = narrow_labels(labels, k)
        # coordinate-major: coordinate j of point i at j * n + i
        self.coords = points.T.ravel()
        self.row = (np.arange(d) * n)[:, None]
        self.rank = np.arange(d)[:, None]
        self.none = np.full(n, -1)
        self.go_left = np.zeros(n, dtype=bool)
        #: per point, the level-order id of the last node it was in
        self.node_of = np.empty(n, dtype=np.int64)
        self.old = old
        self.blocked = blocked
        self.hashes = None
        if old is not None:
            self.content = _content(points, labels)
            self.hashes = _point_hashes(self.content)
        self.grafts: List[_Grafts] = []
        self.levels: List[_Level] = []

    def grow(self, points: np.ndarray) -> np.ndarray:
        """Grow the tree level by level from the root, then check the
        key hits. Returns the keys of the hits that are not true ones
        (none: every hit is grafted)."""
        n = len(points)
        state: Optional[Tuple[np.ndarray, ...]] = (
            points.T.argsort(axis=1, kind="stable"),
            np.zeros(n, dtype=np.int64),
            np.zeros(1, dtype=np.int64),
            np.array([n]),
        )
        first = 0
        while state is not None:
            level, state = self.level(len(self.levels), first, *state)
            self.levels.append(level)
            first += len(level.size)
        if not self.grafts:
            return np.empty(0, dtype=np.uint64)
        at, depth, length, node, grafted = zip(*self.grafts)
        self.hits = _Grafts(
            np.concatenate(at),
            np.repeat(depth, [len(a) for a in at]),
            np.concatenate(length),
            np.concatenate(node),
            np.concatenate(grafted),
        )
        ok, self.grafted, self.relative = self.old._check(
            self.content, self.hits
        )
        keys = np.concatenate([lv.key for lv in self.levels])
        return keys[self.hits.at[~ok]]

    def level(
        self,
        depth: int,
        first: int,
        ids: np.ndarray,
        seg: np.ndarray,
        start: np.ndarray,
        size: np.ndarray,
    ) -> Tuple[_Level, Optional[Tuple[np.ndarray, ...]]]:
        """Grow every open node of one depth.

        ``ids`` is the ``(d, m)`` block of point ids, node ``s`` the
        columns ``[start[s], start[s] + size[s])`` (``seg`` maps a
        column to its node), sorted by coordinate ``j`` in row ``j``;
        ``first`` is the level-order id of node 0. Returns the level's
        nodes and ``(ids, seg, start, size)`` of the next depth, or
        ``None`` when nothing was split.
        """
        n_seg = len(size)
        self.node_of[ids[0]] = seg + first
        key = graft = self.none[:n_seg]
        grown = True
        if self.hashes is not None:
            key = np.add.reduceat(self.hashes[ids[0]], start)
            key += np.uint64(_GOLDEN * (depth + 1) % 2**64)
            graft = self.old._lookup(key, self.blocked)
            grown = graft < 0
            if np.count_nonzero(grown) < n_seg:
                hit = ~grown
                at = np.flatnonzero(hit)
                self.grafts.append(_Grafts(
                    first + at, depth, size[at], graft[at], ids[0][hit[seg]]
                ))
        counts = np.bincount(
            seg * self.k + self.narrow[ids[0]], minlength=n_seg * self.k
        ).reshape(n_seg, self.k)
        label = counts.argmax(axis=1)
        pure = counts.max(axis=1) == size
        if self.median:
            want = size >= np.where(pure, self.max_p, self.max_i)
        else:
            want = ~pure  # a pure-tree node splits while impure
        want &= grown
        dim = self.none[:n_seg].copy()
        threshold = np.zeros(n_seg)
        split = np.zeros(n_seg, dtype=bool)
        level = _Level(size, label, pure, dim, threshold, split, graft, key)
        n_want = np.count_nonzero(want)
        if depth >= self.max_depth or not n_want:
            return level, None

        if n_want < n_seg:
            seg, start, size, ids = _pack(want, seg, size, ids)
            counts, pure = counts[want], pure[want]
        cut_dim, cut = self.cuts(ids, seg, start, size, counts, pure)
        # every point goes where its node's cut sends it; a cut whose
        # midpoint rounded onto a coordinate may send every point left
        at = cut_dim[seg] * len(self.go_left) + ids[0]
        go = self.coords[at] <= cut[seg]
        self.go_left[ids[0]] = go
        n_left = np.add.reduceat(go, start, dtype=np.int64)
        ok = n_left < size
        n_ok = np.count_nonzero(ok)
        if n_ok < n_want:
            cut_dim[~ok] = -1
            cut[~ok] = 0.0
        dim[want], threshold[want], split[want] = cut_dim, cut, ok
        if not n_ok:
            return level, None
        if n_ok < n_want:
            seg, start, size, ids = _pack(ok, seg, size, ids)
            n_left = n_left[ok]
        return level, self.partition(ids, seg, size, n_left)

    def cuts(
        self,
        ids: np.ndarray,
        seg: np.ndarray,
        start: np.ndarray,
        size: np.ndarray,
        counts: np.ndarray,
        pure: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Every segment's cut ``(dim, threshold)``: Eq. 1 on impure
        segments, the median on pure ones (only bounded trees split
        those)."""
        n_pure = np.count_nonzero(pure) if self.median else 0
        if not n_pure:
            dim, _, threshold, _ = choose_cuts(
                self.coords[ids + self.row], self.narrow[ids], seg, start,
                size, counts, self.margin_weight,
            )
            return dim, threshold
        dim = np.zeros(len(size), dtype=np.int64)
        threshold = np.empty(len(size))
        if n_pure < len(size):
            impure = ~pure
            i_seg, i_start, i_size, i_ids = _pack(impure, seg, size, ids)
            dim[impure], _, threshold[impure], _ = choose_cuts(
                self.coords[i_ids + self.row], self.narrow[i_ids], i_seg,
                i_start, i_size, counts[impure], self.margin_weight,
            )
        p_seg, p_start, p_size, p_ids = _pack(pure, seg, size, ids)
        dim[pure], _, threshold[pure] = median_cuts(
            self.coords[p_ids + self.row], p_seg, p_start, p_size
        )
        return dim, threshold

    def partition(
        self,
        ids: np.ndarray,
        seg: np.ndarray,
        size: np.ndarray,
        n_left: np.ndarray,
    ) -> Tuple[np.ndarray, ...]:
        """Every segment stably partitioned, in every row, into its left
        child (node ``2s`` of the next level) and its right one (node
        ``2s + 1``)."""
        child = np.empty(2 * len(size), dtype=np.int64)
        child[0::2] = n_left
        child[1::2] = size - n_left
        node = narrow_labels(2 * seg + 1, len(child)) - self.go_left[ids]
        order = node.argsort(axis=1, kind="stable")
        order += self.rank * ids.shape[1]
        return (
            ids.ravel()[order],
            np.repeat(np.arange(len(child)), child),
            child.cumsum() - child,
            child,
        )


def _grown(
    points: np.ndarray,
    labels: np.ndarray,
    k: int,
    max_p: float,
    max_i: float,
    margin_weight: float,
    max_depth: int,
    old: Optional[SubtreeMemo],
    blocked: np.ndarray,
) -> "_Induction":
    """An induction grown to its last level. A key hit that is not a
    true one — the same points in another order, or a 64-bit collision
    — starts it again with that key ``blocked``: within one depth a key
    names one set of points, so only that node changes."""
    run = _Induction(
        points, labels, k, max_p, max_i, margin_weight, max_depth, old,
        blocked,
    )
    refuted = run.grow(points)
    if len(refuted):
        return _grown(
            points, labels, k, max_p, max_i, margin_weight, max_depth, old,
            np.concatenate((blocked, refuted)),
        )
    return run


def _assemble(
    levels: List[_Level], old: Optional[_Nodes]
) -> Tuple[_Nodes, np.ndarray]:
    """The levels' nodes in preorder, grafted subtrees copied in.

    Returns the nodes and the preorder id of every node of the levels,
    in level order. The levels' nodes, concatenated, list every split
    node's two children in the order of the split nodes: node ``i + 1``
    is a left child, node ``i + 2`` its sibling, for even ``i``.
    """
    graft = np.concatenate([lv.graft for lv in levels])
    split = np.concatenate([lv.split for lv in levels])
    widths = [len(lv.graft) for lv in levels]
    # subtree sizes, bottom-up
    size = np.ones(len(graft), dtype=np.int64)
    grafted = graft >= 0
    n_grafted = np.count_nonzero(grafted)
    if n_grafted:
        size[grafted] = old.ints[graft[grafted], SIZE]
    sizes = np.split(size, np.cumsum(widths[:-1]))
    for lv, part, below in zip(levels[-2::-1], sizes[-2::-1], sizes[:0:-1]):
        part[lv.split] += below[0::2] + below[1::2]
    # preorder ids, top-down: the left child right after its parent,
    # the right child after the left child's subtree
    ids = [np.zeros(1, dtype=np.int64)]
    for lv, below in zip(levels, sizes[1:]):
        child = (ids[-1][lv.split] + 1).repeat(2)
        child[1::2] += below[0::2]
        ids.append(child)
    pre = np.concatenate(ids)
    parent = np.flatnonzero(split)
    right = np.zeros(len(graft), dtype=np.int64)
    right[parent] = pre[2::2] - pre[parent]

    ints = np.stack([
        np.concatenate([lv.size for lv in levels]),
        np.concatenate([lv.label for lv in levels]),
        np.concatenate([lv.pure for lv in levels]),
        np.concatenate([lv.dim for lv in levels]),
        split,
        right,
        size,
        np.arange(len(levels)).repeat(widths),
    ], axis=1)
    flat = _Nodes(
        ints,
        np.concatenate([lv.threshold for lv in levels]),
        np.concatenate([lv.key for lv in levels]).astype(np.uint64),
    )
    out = flat.take(np.zeros(int(size[0]), dtype=np.int64))
    mine = ~grafted
    for field, values in zip(out, flat.take(mine)):
        field[pre[mine]] = values
    if n_grafted:
        length = size[grafted]
        into = _ranges(pre[grafted], length)
        copied = old.take(_ranges(graft[grafted], length))
        for field, values in zip(out, copied):
            field[into] = values
    return out, pre


def _induce(
    points: np.ndarray,
    labels: np.ndarray,
    k: int,
    max_p: float,
    max_i: float,
    margin_weight: float,
    max_depth: int,
    memo: Optional[SubtreeMemo] = None,
) -> Tuple[DecisionTree, np.ndarray]:
    """The level pass: a node splits while its depth is below
    ``max_depth`` and it holds at least ``max_p`` points (pure) or
    ``max_i`` points (impure)."""
    points = check_array("points", np.asarray(points, dtype=float), ndim=2)
    points = np.ascontiguousarray(check_finite("points", points))
    labels = np.asarray(labels, dtype=np.int64)
    if len(points) != len(labels):
        raise ValueError("points and labels lengths differ")
    labels = check_labels("labels", labels, k)
    if len(points) == 0:
        raise ValueError("cannot induce a tree on zero points")

    rule = (margin_weight, max_depth)
    old = memo
    if memo is not None and (
        memo.rule != rule or memo._content.shape[1] != points.shape[1] + 1
    ):
        old = SubtreeMemo()  # nothing it holds can match
    run = _grown(
        points, labels, k, max_p, max_i, margin_weight, max_depth, old,
        np.empty(0, dtype=np.uint64),
    )
    levels = run.levels
    nodes, pre = _assemble(levels, old._nodes if old is not None else None)
    leaf_of_point = pre[run.node_of]
    n_grafted = 0
    if run.grafts:
        leaf_of_point[run.grafted] += run.relative
        n_grafted = int(nodes.ints[pre[run.hits.at], SIZE].sum())

    # the memo keeps these and the tree's fields view them: read-only at
    # the base, no view can be made writeable again
    for field in nodes:
        field.setflags(write=False)
    ints = nodes.ints
    node_id = np.arange(len(ints))
    tree = DecisionTree(
        n_points=ints[:, N_POINTS],
        label=ints[:, LABEL],
        is_pure=ints[:, PURE] > 0,
        dim=ints[:, DIM],
        threshold=nodes.threshold,
        left=np.where(ints[:, LEFT] > 0, node_id + ints[:, LEFT], -1),
        right=np.where(ints[:, RIGHT] > 0, node_id + ints[:, RIGHT], -1),
        k=k,
    )
    if memo is not None:
        memo._replace(rule, nodes, run.content, leaf_of_point, n_grafted)
    return tree, leaf_of_point


def induce_pure_tree(
    points: np.ndarray,
    labels: np.ndarray,
    k: int,
    margin_weight: float = 0.0,
    max_depth: int = 64,
    memo: Optional[SubtreeMemo] = None,
) -> Tuple[DecisionTree, np.ndarray]:
    """Induce the contact-search tree: leaves contain points of a
    single partition (§4.1.1).

    ``margin_weight`` enables the §6 margin-aware extension. The
    ``max_depth`` guard bounds pathological inputs; leaves cut off by
    it (or by coincident mixed-label points) are impure and flagged
    ``is_pure=False`` so the search can treat them conservatively.
    Non-finite points raise :class:`ValueError`.

    A caller inducing one tree per snapshot passes the same ``memo``
    every time: subtrees whose points and labels did not change since
    the previous call are taken from it, and it is left holding this
    call's tree. The result is the same with or without one.
    """
    check_positive("k", k)
    # a pure node never splits, an impure one always may
    return _induce(
        points, labels, k, np.inf, 1, margin_weight, max_depth, memo
    )


def induce_bounded_tree(
    points: np.ndarray,
    labels: np.ndarray,
    k: int,
    max_p: int,
    max_i: int,
    margin_weight: float = 0.0,
    max_depth: int = 64,
) -> Tuple[DecisionTree, np.ndarray]:
    """Induce the §4.2 partition-reshaping tree over *all* mesh nodes.

    Splitting continues while (pure and ``n >= max_p``) or (impure and
    ``n >= max_i``); i.e. it terminates at pure nodes smaller than
    ``max_p`` and impure nodes smaller than ``max_i``. Non-finite
    points raise :class:`ValueError`.
    """
    if max_p < 1 or max_i < 1:
        raise ValueError("max_p and max_i must be >= 1")
    check_positive("k", k)
    return _induce(points, labels, k, max_p, max_i, margin_weight, max_depth)


def suggested_bounds(n: int, k: int) -> Tuple[int, int]:
    """Default ``(max_p, max_i)`` for the §4.2 reshaping tree.

    The paper's study (on the 156k-node EPIC mesh) recommends
    ``n/k^1.5 <= max_p <= n/k`` and ``n/k^2.5 <= max_i <= n/k²``. The
    paper also observes that *small* values make the post-refinement
    easy — better final cut and balance — at the price of more leaf
    regions. On our ~9× smaller meshes the paper's absolute box sizes
    correspond to smaller relative exponents, and the ablation
    (``benchmarks/bench_ablation_maxpi.py``) shows the cut/balance side
    dominating, so the default sits half a step *below* the paper's
    window: ``max_p = n/k^1.75``, ``max_i = n/k^2.75``. Callers
    reproducing the paper's exact setting can pass explicit bounds.
    """
    if n < 1 or k < 1:
        raise ValueError("n and k must be >= 1")
    max_p = int(round(n / k**1.75))
    max_i = int(round(n / k**2.75))
    return max(1, max_p), max(1, max_i)
