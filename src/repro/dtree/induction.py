"""Decision-tree induction (paper §4.1.1 and §4.2).

Both inducers share one recursive engine differing only in the
termination predicate and in which splitter a node uses:

* :func:`induce_pure_tree` — split impure nodes with Eq. 1 until every
  leaf is pure (or geometrically unsplittable, which only happens when
  coincident points carry different labels).
* :func:`induce_bounded_tree` — the §4.2 variant: keep splitting pure
  nodes of ``>= max_p`` points (median cuts — Eq. 1 is indifferent on a
  pure node) and impure nodes of ``>= max_i`` points (Eq. 1 cuts);
  everything else terminates.

Both return ``(tree, leaf_of_point)`` so callers can collapse leaves
into the refinement graph ``G'`` without re-querying.

Across a snapshot sequence (§4.3: between repartitions only the tree
is re-induced) most of a tree's nodes see the points and labels they
saw one step earlier. The engine therefore reads and refills a
:class:`SubtreeMemo`: a node whose ``(depth, points, labels)`` are
bit for bit a remembered node's takes that node's whole subtree
instead of splitting. A subtree is a deterministic function of exactly
that triple, so the result is the from-scratch tree by construction —
there is one engine, and a one-shot call runs it without a memo.
See ``docs/ALGORITHMS.md``, "Carrying the graph and the descriptor
tree across snapshots".
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.dtree.splitter import best_split, median_split
from repro.dtree.tree import DecisionTree, TreeNode
from repro.utils.validation import check_array, check_labels, check_positive

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
