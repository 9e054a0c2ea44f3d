"""Property tests for global-search filter completeness on synthetic
geometry (independent of the mesh workload)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dtree.induction import induce_pure_tree
from repro.dtree.query import tree_filter_search
from repro.geometry.boxsearch import bbox_filter_search


@given(st.integers(0, 10**6), st.integers(2, 5))
@settings(max_examples=40, deadline=None)
def test_property_tree_filter_never_misses(seed, k):
    """For random points/partitions/boxes: whenever a contact point of
    partition q lies inside a (padded) element box, the tree filter
    routes that element to q (or q owns it). This is the correctness
    the paper's descriptors must provide."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(k, 60))
    pts = rng.random((n, 2))
    labels = rng.integers(0, k, n)
    tree, _ = induce_pure_tree(pts, labels, k)

    m = int(rng.integers(1, 12))
    lo = rng.random((m, 2)) - 0.1
    boxes = np.stack((lo, lo + rng.random((m, 2)) * 0.5), axis=1)
    owner = rng.integers(0, k, m)
    plan = tree_filter_search(tree, boxes, owner, k)

    for e in range(m):
        inside = (
            (pts >= boxes[e, 0]) & (pts <= boxes[e, 1])
        ).all(axis=1)
        needed = set(labels[inside].tolist()) - {int(owner[e])}
        got = set(np.flatnonzero(plan.send_matrix[e]).tolist())
        assert needed <= got


@given(st.integers(0, 10**6), st.integers(2, 5))
@settings(max_examples=40, deadline=None)
def test_property_bbox_filter_never_misses(seed, k):
    """Same completeness property for the ML+RCB bounding-box filter."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(k, 60))
    pts = rng.random((n, 2))
    labels = rng.integers(0, k, n)

    m = int(rng.integers(1, 12))
    lo = rng.random((m, 2)) - 0.1
    boxes = np.stack((lo, lo + rng.random((m, 2)) * 0.5), axis=1)
    owner = rng.integers(0, k, m)
    plan = bbox_filter_search(boxes, owner, pts, labels, k)

    for e in range(m):
        inside = (
            (pts >= boxes[e, 0]) & (pts <= boxes[e, 1])
        ).all(axis=1)
        needed = set(labels[inside].tolist()) - {int(owner[e])}
        got = set(np.flatnonzero(plan.send_matrix[e]).tolist())
        assert needed <= got


def test_tree_beats_bbox_where_subdomain_boxes_overlap():
    """The regime the paper targets: a non-convex (L-shaped) subdomain
    whose bounding box covers another subdomain's territory. The bbox
    filter then ships every element in the covered area (false
    positives); the tree's disjoint regions ship almost none.

    The relation is regime-dependent — on *disjoint* compact clusters
    the bbox filter can beat the tree near region boundaries (a leaf
    region tiles space beyond its points) — so the aggregate advantage
    is asserted here in the overlap regime and on the impact scene in
    ``tests/core/test_contact_search.py::
    test_tree_sends_fewer_than_bbox_on_the_same_partition``.
    """
    rng = np.random.default_rng(0)
    # partition 0: an L along the left and bottom; partition 1: a dense
    # block tucked into the L's notch -> bbox(0) fully covers block 1
    left = np.column_stack(
        (rng.random(30) * 0.25, rng.random(30) * 2.0)
    )
    bottom = np.column_stack(
        (0.25 + rng.random(30) * 1.75, rng.random(30) * 0.25)
    )
    notch = np.column_stack(
        (0.9 + rng.random(40) * 0.9, 0.9 + rng.random(40) * 0.9)
    )
    pts = np.concatenate([left, bottom, notch])
    labels = np.array([0] * 60 + [1] * 40)
    tree, _ = induce_pure_tree(pts, labels, 2)

    # elements: small boxes on each of partition 1's points
    boxes = np.stack((notch - 0.05, notch + 0.05), axis=1)
    owner = np.ones(len(notch), dtype=np.int64)

    tree_plan = tree_filter_search(tree, boxes, owner, 2)
    bbox_plan = bbox_filter_search(boxes, owner, pts, labels, 2)
    # bbox: every element sits inside bbox(partition 0) -> all shipped
    assert bbox_plan.n_remote == len(notch)
    # tree: only elements straddling the actual region boundary ship
    assert tree_plan.n_remote < bbox_plan.n_remote / 2
