"""Decision-tree queries: point location and box traversal.

Both queries are frontier sweeps over (item, node) pairs held in NumPy
arrays — each iteration advances *all* items one level, so cost is
O(pairs · depth) with whole-array operations, not a Python recursion
per item. Box queries can descend both branches when the box straddles
a hyperplane, which is exactly how an element gets sent to multiple
subdomains.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from repro.dtree.tree import DecisionTree
from repro.geometry.boxsearch import SearchPlan
from repro.utils.validation import check_finite, check_labels


def _node_arrays(tree: DecisionTree) -> Tuple[np.ndarray, ...]:
    """Node fields as parallel arrays ``(dim, threshold, left, right,
    label, is_pure)`` for vectorised sweeps.

    Built from ``tree.nodes`` on every call and never kept on the tree:
    a caller may edit a node in place, and a cached copy would not see
    it. A query that sweeps more than once builds them once and passes
    them on.
    """
    dim, thr, left, right, label, pure = zip(*[
        (nd.dim, nd.threshold, nd.left, nd.right, nd.label, nd.is_pure)
        for nd in tree.nodes
    ])
    return (
        np.array(dim, dtype=np.int64),
        np.array(thr, dtype=float),
        np.array(left, dtype=np.int64),
        np.array(right, dtype=np.int64),
        np.array(label, dtype=np.int64),
        np.array(pure, dtype=bool),
    )


def assign_points(tree: DecisionTree, points: np.ndarray) -> np.ndarray:
    """Leaf id reached by each point, ``int64[n]``."""
    points = np.asarray(points, dtype=float)
    dim, thr, left, right, _, _ = _node_arrays(tree)
    cur = np.full(len(points), tree.root, dtype=np.int64)
    active = left[cur] >= 0
    while active.any():
        ids = np.nonzero(active)[0]
        nodes = cur[ids]
        go_left = points[ids, dim[nodes]] <= thr[nodes]
        cur[ids] = np.where(go_left, left[nodes], right[nodes])
        active[ids] = left[cur[ids]] >= 0
    return cur


def predict_partition(tree: DecisionTree, points: np.ndarray) -> np.ndarray:
    """Partition label each point's leaf carries (majority label)."""
    _, _, _, _, labels, _ = _node_arrays(tree)
    return labels[assign_points(tree, points)]


def box_query_pairs(
    tree: DecisionTree,
    boxes: np.ndarray,
    arrays: Optional[Tuple[np.ndarray, ...]] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """All (box index, leaf id) incidences, each pair once.

    A box reaches a leaf iff its slab along every split on the path is
    compatible: at node (dim, t), boxes with ``lo[dim] <= t`` descend
    left and boxes with ``hi[dim] > t`` descend right (possibly both).
    ``arrays`` are the tree's ``_node_arrays`` when the caller already
    built them.
    """
    boxes = np.asarray(boxes, dtype=float)
    m = len(boxes)
    if arrays is None:
        arrays = _node_arrays(tree)
    dim, thr, left, right, _, _ = arrays
    # coordinate-major bounds: box b's bound on axis a sits at a * m + b
    lo_flat = np.ascontiguousarray(boxes[:, 0].T).ravel()
    hi_flat = np.ascontiguousarray(boxes[:, 1].T).ravel()

    box_idx = np.arange(m, dtype=np.int64)
    node_idx = np.full(m, tree.root, dtype=np.int64)
    out_boxes = []
    out_leaves = []
    while len(box_idx):
        is_leaf = left[node_idx] < 0
        if is_leaf.any():
            out_boxes.append(box_idx[is_leaf])
            out_leaves.append(node_idx[is_leaf])
        box_idx, node_idx = box_idx[~is_leaf], node_idx[~is_leaf]
        if len(box_idx) == 0:
            break
        at = dim[node_idx] * m + box_idx
        t = thr[node_idx]
        go_l = lo_flat.take(at) <= t
        go_r = hi_flat.take(at) > t
        # a box not strictly right of the threshold that also fails the
        # left test can only happen on NaN input; treat as both-ways
        neither = ~(go_l | go_r)
        go_l |= neither
        nb = np.concatenate((box_idx[go_l], box_idx[go_r]))
        nn = np.concatenate((left[node_idx[go_l]], right[node_idx[go_r]]))
        box_idx, node_idx = nb, nn
    if out_boxes:
        return np.concatenate(out_boxes), np.concatenate(out_leaves)
    return np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64)


def tree_filter_search(
    tree: DecisionTree,
    element_boxes: np.ndarray,
    element_owner: np.ndarray,
    k: int,
) -> SearchPlan:
    """MCML+DT global search: send each element to every partition whose
    descriptor leaves its box touches (minus its own).

    Impure leaves (possible only under depth cut-off or coincident
    mixed-label points) conservatively stand for *all* the partitions
    whose points they contain — approximated here by their majority
    label plus a "send to everyone touching" flag would overcount, so
    we store per-leaf label and mark impure leaves as wildcards.
    Owners outside ``[0, k)`` and non-finite ``element_boxes`` raise
    :class:`ValueError`.
    """
    element_owner = check_labels(
        "element_owner",
        np.asarray(element_owner, dtype=np.int64),
        k,
        size=len(element_boxes),
    )
    element_boxes = check_finite("element_boxes", element_boxes)

    arrays = _node_arrays(tree)
    _, _, _, _, labels, pure = arrays
    b_idx, leaf_idx = box_query_pairs(tree, element_boxes, arrays)

    send = np.zeros((len(element_boxes), k), dtype=bool)
    if len(b_idx):
        pure_hits = pure[leaf_idx]
        send[b_idx[pure_hits], labels[leaf_idx[pure_hits]]] = True
        # impure leaves: the element may contact any partition, so it is
        # broadcast (rare; bounded-depth safety valve)
        impure_boxes = np.unique(b_idx[~pure_hits])
        send[impure_boxes, :] = True
    send[np.arange(len(element_owner)), element_owner] = False
    return SearchPlan(send_matrix=send, owner=element_owner)
