"""Decision-tree queries: point location and box traversal.

Both queries are frontier sweeps over (item, node) pairs held in NumPy
arrays, indexing the tree's node arrays directly — each iteration
advances *all* items one level, so cost is
O(pairs · depth) with whole-array operations, not a Python recursion
per item. Box queries can descend both branches when the box straddles
a hyperplane, which is exactly how an element gets sent to multiple
subdomains.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

from repro.dtree.tree import DecisionTree
from repro.geometry.boxsearch import SearchPlan
from repro.utils.validation import check_finite, check_labels


def assign_points(tree: DecisionTree, points: np.ndarray) -> np.ndarray:
    """Leaf id reached by each point, ``int64[n]``."""
    points = np.asarray(points, dtype=float)
    dim, thr, left, right = tree.dim, tree.threshold, tree.left, tree.right
    cur = np.zeros(len(points), dtype=np.int64)
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
    return tree.label[assign_points(tree, points)]


def box_query_pairs(
    tree: DecisionTree, boxes: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """All (box index, leaf id) incidences, each pair once.

    A box reaches a leaf iff its slab along every split on the path is
    compatible: at node (dim, t), boxes with ``lo[dim] <= t`` descend
    left and boxes with ``hi[dim] > t`` descend right (possibly both).
    """
    boxes = np.asarray(boxes, dtype=float)
    m = len(boxes)
    dim, thr, left, right = tree.dim, tree.threshold, tree.left, tree.right
    # coordinate-major bounds: box b's bound on axis a sits at a * m + b
    lo_flat = np.ascontiguousarray(boxes[:, 0].T).ravel()
    hi_flat = np.ascontiguousarray(boxes[:, 1].T).ravel()

    box_idx = np.arange(m, dtype=np.int64)
    node_idx = np.zeros(m, dtype=np.int64)
    out_boxes = []
    out_leaves = []
    while len(box_idx):
        is_leaf = left[node_idx] < 0
        if is_leaf.any():
            out_boxes.append(box_idx[is_leaf])
            out_leaves.append(node_idx[is_leaf])
            inner = ~is_leaf
            box_idx, node_idx = box_idx[inner], node_idx[inner]
        at = dim[node_idx] * m + box_idx
        t = thr[node_idx]
        go_r = hi_flat.take(at) > t
        # a box that fails both tests (only on NaN input) goes both ways
        go_l = (lo_flat.take(at) <= t) | ~go_r
        # the next level: the pairs that go left, then those that go right
        n_l = np.count_nonzero(go_l)
        nb = np.empty(n_l + np.count_nonzero(go_r), dtype=np.int64)
        nn = np.empty_like(nb)
        nb[:n_l], nb[n_l:] = box_idx[go_l], box_idx[go_r]
        nn[:n_l], nn[n_l:] = left[node_idx[go_l]], right[node_idx[go_r]]
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

    A leaf is impure only under the depth cut-off or at coincident
    points with mixed labels, and a leaf's label names just its
    majority partition, so a box touching an impure leaf is sent to
    every partition (but its own): no pair can be missed. Owners
    outside ``[0, k)`` and non-finite ``element_boxes`` raise
    :class:`ValueError`.
    """
    element_owner = check_labels(
        "element_owner",
        np.asarray(element_owner, dtype=np.int64),
        k,
        size=len(element_boxes),
    )
    element_boxes = check_finite("element_boxes", element_boxes)

    labels, pure = tree.label, tree.is_pure
    b_idx, leaf_idx = box_query_pairs(tree, element_boxes)

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
