"""Test-only oracle: tree induction as it stood before it became one
batched pass per tree level.

The bodies are verbatim copies of the old ``repro.dtree.induction``
(the recursive per-node ``_induce`` with its ``SubtreeMemo`` keyed by
``(depth, points.tobytes(), labels.tobytes())``, ``induce_pure_tree``
and ``induce_bounded_tree``) and of the old ``repro.dtree.splitter``
(the per-node ``_index_curves`` pass, ``split_index_curve``,
``best_split`` and the per-dimension ``median_split``), and of the old
``repro.dtree.tree`` (``TreeNode`` and ``DecisionTree``, a list of node
objects), with the ``SplitResult`` record the old splitter returned.
``test_induction_differential.py`` asserts the library's trees,
``leaf_of_point`` and ``n_grafted`` equal these node for node. Do not
"fix" or speed these up.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.utils.validation import check_array, check_labels, check_positive


@dataclass(frozen=True)
class SplitResult:
    """A chosen hyperplane: ``points[:, dim] <= threshold`` go left."""

    dim: int
    threshold: float
    index_value: float
    n_left: int
    n_right: int


@dataclass
class TreeNode:
    """One decision-tree node (interior or leaf)."""

    n_points: int
    label: int = -1  # majority partition label (valid for leaves)
    is_pure: bool = False
    dim: int = -1  # split dimension (interior only)
    threshold: float = 0.0  # split position (interior only)
    left: int = -1  # child ids, -1 on leaves
    right: int = -1

    @property
    def is_leaf(self) -> bool:
        """True when the node has no children."""
        return self.left < 0


@dataclass
class DecisionTree:
    """Flat-array decision tree over a labelled point set.

    ``k`` is the number of partition labels the tree discriminates.
    """

    nodes: List[TreeNode] = field(default_factory=list)
    k: int = 0
    root: int = 0

    # ------------------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        """Total node count — the paper's **NTNodes** metric."""
        return len(self.nodes)

    @property
    def n_leaves(self) -> int:
        """Number of leaves (= rectangles/boxes in the descriptors)."""
        return sum(1 for nd in self.nodes if nd.is_leaf)

    def leaf_ids(self) -> np.ndarray:
        """Ids of all leaf nodes."""
        return np.array(
            [i for i, nd in enumerate(self.nodes) if nd.is_leaf],
            dtype=np.int64,
        )

    def depth(self) -> int:
        """Maximum root-to-leaf edge count (0 for a single-leaf tree)."""
        depths = {self.root: 0}
        best = 0
        stack = [self.root]
        while stack:
            nid = stack.pop()
            node = self.nodes[nid]
            if node.is_leaf:
                best = max(best, depths[nid])
                continue
            for child in (node.left, node.right):
                depths[child] = depths[nid] + 1
                stack.append(child)
        return best

    def leaf_labels(self) -> np.ndarray:
        """Majority partition label of each leaf, aligned with
        :meth:`leaf_ids`."""
        return np.array(
            [nd.label for nd in self.nodes if nd.is_leaf], dtype=np.int64
        )

    def partitions_present(self) -> np.ndarray:
        """Sorted unique partition labels among the leaves."""
        return np.unique(self.leaf_labels())

    def validate(self) -> None:
        """Structural sanity checks (tests/debugging)."""
        seen = np.zeros(len(self.nodes), dtype=bool)
        stack = [self.root]
        while stack:
            nid = stack.pop()
            if seen[nid]:
                raise ValueError(f"node {nid} reachable twice (cycle?)")
            seen[nid] = True
            node = self.nodes[nid]
            if node.is_leaf:
                if node.right >= 0:
                    raise ValueError(f"leaf {nid} has a right child")
                if not 0 <= node.label < max(self.k, 1):
                    raise ValueError(
                        f"leaf {nid} label {node.label} out of range"
                    )
            else:
                if node.right < 0:
                    raise ValueError(f"interior node {nid} missing a child")
                if node.dim < 0:
                    raise ValueError(f"interior node {nid} has no split dim")
                children_pts = (
                    self.nodes[node.left].n_points
                    + self.nodes[node.right].n_points
                )
                if children_pts != node.n_points:
                    raise ValueError(
                        f"node {nid} point count mismatch: "
                        f"{node.n_points} != {children_pts}"
                    )
                stack.extend((node.left, node.right))
        if not seen.all():
            raise ValueError("unreachable nodes present")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DecisionTree(nodes={self.n_nodes}, leaves={self.n_leaves}, "
            f"k={self.k})"
        )


def _index_curves(
    cols: np.ndarray, labels: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Eq. 1 at every candidate cut of every dimension.

    ``cols`` is the ``(d, n)`` coordinate block, ``labels`` the n
    non-negative class labels. Returns ``(order, c, valid, index)``:
    ``order[j]`` sorts the points by coordinate j (stably), ``c`` are
    the sorted coordinates, and for the cut after sorted point ``i``
    of dimension ``j``, ``valid[j, i]`` says it separates two distinct
    coordinates and ``index[j, i]`` is its Eq. 1 value.
    """
    d, n = cols.shape
    order = cols.argsort(axis=1, kind="stable")
    row = (np.arange(d) * n)[:, None]
    c = cols.ravel()[order + row]
    counts = np.bincount(labels)
    # labels as narrow as they fit: NumPy radix-sorts 8- and 16-bit keys
    lab = labels.astype(np.min_scalar_type(len(counts)))[order]
    by_class = lab.argsort(axis=1, kind="stable") + row
    # Sorted by label, a row lists class 0's points in coordinate
    # order, then class 1's, …: entry p has rank p − (start of its
    # class) + 1, and a class starts at the same p in every row. So in
    # that order the increments — 2·rank − 1 on the left of a cut,
    # 2·(count − rank) + 1 on the right — are the same for every
    # dimension, and ``by_class`` says where each one belongs.
    ends = 2 * counts.cumsum()
    odd = np.arange(1, 2 * n, 2)
    inc = np.empty((2, d * n), dtype=np.int64)
    inc[0, by_class] = odd - (ends - 2 * counts).repeat(counts)
    inc[1, by_class] = ends.repeat(counts) - odd
    sumsq = inc.reshape(2, d, n).cumsum(axis=2)[:, :, : n - 1]
    total = int(counts @ counts)
    index = np.sqrt(sumsq[0]) + np.sqrt(total - sumsq[1])
    valid = c[:, :-1] < c[:, 1:]
    return order, c, valid, index


def split_index_curve(
    coords: np.ndarray, labels: np.ndarray
) -> tuple:
    """Eq. 1 values for all candidate cuts along one dimension.

    Returns ``(order, valid, index)`` where ``order`` sorts the points
    by coordinate, ``valid[i]`` marks cut positions *after* sorted
    point ``i`` (i.e. between distinct coordinates), and ``index[i]``
    is the Eq. 1 value of that cut. The one-dimension view of the pass
    :func:`best_split` makes, exposed for tests.
    """
    order, _, valid, index = _index_curves(
        np.asarray(coords)[None, :], np.asarray(labels)
    )
    return order[0], valid[0], index[0]


def best_split(
    points: np.ndarray,
    labels: np.ndarray,
    margin_weight: float = 0.0,
) -> Optional[SplitResult]:
    """Best Eq. 1 split over all dimensions, or ``None`` if every
    dimension is constant (the node is geometrically unsplittable).

    ``margin_weight > 0`` enables the paper's §6 extension: the score
    is augmented by the (normalised) gap width between the two points
    the hyperplane separates, preferring cuts through sparse regions.
    Ties are broken toward the more size-balanced cut to keep trees
    shallow, then toward the lower dimension and coordinate.
    """
    points = np.asarray(points, dtype=float)
    labels = np.asarray(labels, dtype=np.int64)
    n, d = points.shape
    if n < 2:
        return None
    _, c, valid, index = _index_curves(
        np.ascontiguousarray(points.T), labels
    )
    score = index
    if margin_weight > 0.0:
        extent = c[:, -1:] - c[:, :1]
        # a constant dimension has no valid cut; any finite gap will do
        gaps = (c[:, 1:] - c[:, :-1]) / np.where(extent > 0, extent, np.inf)
        score = score + margin_weight * n * gaps
    score = np.where(valid, score, -np.inf)
    top = score.max()
    if top == -np.inf:
        return None
    off_balance = np.abs(np.arange(1, n) - n / 2)
    # argmin takes the first of equals: lowest dimension, then lowest cut
    dim, i = divmod(
        int(np.where(score == top, off_balance, np.inf).argmin()), n - 1
    )
    return SplitResult(
        dim=dim,
        threshold=float(0.5 * (c[dim, i] + c[dim, i + 1])),
        index_value=float(index[dim, i]),
        n_left=i + 1,
        n_right=n - (i + 1),
    )


def median_split(points: np.ndarray) -> Optional[SplitResult]:
    """Balanced median cut along the longest extent.

    Used for *pure* nodes in bounded induction (§4.2), where Eq. 1 is
    indifferent (every cut of a single-class node scores the same) and
    the goal is simply to produce compact, movable boxes.
    """
    points = np.asarray(points, dtype=float)
    n, d = points.shape
    if n < 2:
        return None
    extents = points.max(axis=0) - points.min(axis=0)
    for dim in np.argsort(extents)[::-1]:
        coords = points[:, int(dim)]
        order = np.argsort(coords, kind="stable")
        c = coords[order]
        valid = np.nonzero(c[:-1] < c[1:])[0]
        if len(valid) == 0:
            continue
        i = int(valid[np.argmin(np.abs(valid + 1 - n / 2))])
        return SplitResult(
            dim=int(dim),
            threshold=float(0.5 * (c[i] + c[i + 1])),
            index_value=float(n),
            n_left=i + 1,
            n_right=n - (i + 1),
        )
    return None


#: what identifies a node's input: its depth (the ``max_depth`` cut-off
#: counts from the root) and the bytes of its points and of its labels
_Key = Tuple[int, bytes, bytes]
#: a node without its position: ``(n_points, label, is_pure, dim,
#: threshold, left - id, right - id)``, child offsets 0 on a leaf
_Row = Tuple[int, int, bool, int, float, int, int]
_PENDING = np.empty(0, dtype=np.int64)


class SubtreeMemo:
    """The last tree induced through it, node by node in preorder.

    Nothing in it depends on where a node sits in the tree (child ids
    and leaf ids are stored relative to the node's own id), so a
    remembered subtree can be grafted at any position of the next
    tree, and nothing in it is handed to a caller (nodes are kept as
    tuples, arrays are the engine's own), so no edit of a returned
    tree reaches it. Each induction replaces the contents with the
    tree it built: the memo holds one tree — about ``n · depth`` point
    records — and there is nothing to invalidate, a changed input is a
    miss. ``rule`` is the ``(margin_weight, max_depth)`` that tree was
    induced under; an induction under another rule starts empty. One
    memo serves one inducer (it does not record the termination
    predicate).
    """

    def __init__(self) -> None:
        self.rule: Optional[Tuple[float, int]] = None
        self.keys: List[_Key] = []
        self.rows: List[_Row] = []
        #: per node, the leaf id of each of its points minus its own id
        self.leaves: List[np.ndarray] = []
        self.index: Dict[_Key, int] = {}
        #: nodes of the last tree that were grafted, not split
        self.n_grafted = 0

    def subtree(self, key: _Key) -> Optional[slice]:
        """Where the remembered subtree whose root has ``key`` sits."""
        first = self.index.get(key)
        if first is None:
            return None
        # preorder: a subtree ends at its right-most leaf
        last = first
        while self.rows[last][6]:
            last += self.rows[last][6]
        return slice(first, last + 1)

    def replace(
        self,
        rule: Tuple[float, int],
        tree: DecisionTree,
        keys: List[_Key],
        leaves: List[np.ndarray],
        n_grafted: int,
    ) -> None:
        """Remember ``tree`` (and only it)."""
        self.rule = rule
        self.keys = keys
        self.leaves = leaves
        self.rows = [
            (
                nd.n_points, nd.label, nd.is_pure, nd.dim, nd.threshold,
                nd.left - i if nd.left >= 0 else 0,
                nd.right - i if nd.right >= 0 else 0,
            )
            for i, nd in enumerate(tree.nodes)
        ]
        self.index = {key: i for i, key in enumerate(keys)}
        self.n_grafted = n_grafted


def _induce(
    points: np.ndarray,
    labels: np.ndarray,
    k: int,
    should_split: Callable[[int, bool], bool],
    margin_weight: float,
    max_depth: int,
    memo: Optional[SubtreeMemo] = None,
) -> Tuple[DecisionTree, np.ndarray]:
    points = check_array("points", np.asarray(points, dtype=float), ndim=2)
    labels = np.asarray(labels, dtype=np.int64)
    if len(points) != len(labels):
        raise ValueError("points and labels lengths differ")
    labels = check_labels("labels", labels, k)
    if len(points) == 0:
        raise ValueError("cannot induce a tree on zero points")

    rule = (margin_weight, max_depth)
    old = memo if memo is not None and memo.rule == rule else SubtreeMemo()
    tree = DecisionTree(k=k)
    leaf_of_point = np.full(len(points), -1, dtype=np.int64)
    keys: List[_Key] = []
    leaves: List[np.ndarray] = []
    n_grafted = 0

    def build(idx: np.ndarray, depth: int) -> int:
        nonlocal n_grafted
        nid = len(tree.nodes)
        sub_points = points[idx]
        sub_labels = labels[idx]

        # without a memo to refill, skip the bookkeeping: a one-shot
        # induction costs what it did before there was one
        if memo is not None:
            key = (depth, sub_points.tobytes(), sub_labels.tobytes())
            same = old.subtree(key)
            if same is not None:
                for i, row in enumerate(old.rows[same], nid):
                    n_points, label, is_pure, dim, threshold, left, right = row
                    tree.nodes.append(TreeNode(
                        n_points, label, is_pure, dim, threshold,
                        i + left if left else -1, i + right if right else -1,
                    ))
                keys.extend(old.keys[same])
                leaves.extend(old.leaves[same])
                leaf_of_point[idx] = leaves[nid] + nid
                n_grafted += same.stop - same.start
                return nid
            keys.append(key)
            leaves.append(_PENDING)  # set below, once its leaves have ids

        counts = np.bincount(sub_labels)
        majority = int(counts.argmax())
        pure = int(counts[majority]) == len(idx)
        node = TreeNode(n_points=len(idx), label=majority, is_pure=pure)
        tree.nodes.append(node)

        split = None
        if depth < max_depth and should_split(len(idx), pure):
            # None: coincident points with mixed labels (or a single
            # point) are geometrically unsplittable, must terminate
            if pure:
                split = median_split(sub_points)
            else:
                split = best_split(sub_points, sub_labels, margin_weight)
        if split is not None:
            go_left = sub_points[:, split.dim] <= split.threshold
            if go_left.all() or not go_left.any():
                # midpoint rounding between two adjacent floats can land
                # on one of the coordinates and empty a side; terminate
                # rather than recurse on a degenerate split
                split = None
        if split is None:
            leaf_of_point[idx] = nid
        else:
            node.dim = split.dim
            node.threshold = split.threshold
            node.left = build(idx[go_left], depth + 1)
            node.right = build(idx[~go_left], depth + 1)
        if memo is not None:
            leaves[nid] = leaf_of_point[idx] - nid
        return nid

    build(np.arange(len(points)), 0)
    if memo is not None:
        memo.replace(rule, tree, keys, leaves, n_grafted)
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

    A caller inducing one tree per snapshot passes the same ``memo``
    every time: subtrees whose points and labels did not change since
    the previous call are taken from it, and it is left holding this
    call's tree. The result is the same with or without one.
    """
    check_positive("k", k)
    return _induce(
        points,
        labels,
        k,
        should_split=lambda n, pure: not pure,
        margin_weight=margin_weight,
        max_depth=max_depth,
        memo=memo,
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
    ``max_p`` and impure nodes smaller than ``max_i``.
    """
    if max_p < 1 or max_i < 1:
        raise ValueError("max_p and max_i must be >= 1")
    check_positive("k", k)
    return _induce(
        points,
        labels,
        k,
        should_split=lambda n, pure: (n >= max_p) if pure else (n >= max_i),
        margin_weight=margin_weight,
        max_depth=max_depth,
    )
