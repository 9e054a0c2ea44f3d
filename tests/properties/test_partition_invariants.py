"""Randomized invariant tests for the partitioning core.

Hypothesis draws only small integer seeds/shapes; all randomness inside
an example flows through :func:`repro.utils.rng.as_rng` so any
failing example replays from its printed inputs.

Invariants checked (paper §2 and §4.1.1):

* every partition vector is a total labelling into ``[0, k)``;
* both constraint imbalances respect the configured ``ubfactor`` (plus
  one max-weight vertex of integer-granularity slack per constraint);
* induced descriptor leaves are axis-parallel boxes that cover every
  contact point routed to them.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dtree.descriptors import leaf_regions
from repro.dtree.induction import induce_pure_tree
from repro.dtree.query import assign_points
from repro.graph.build import grid_graph
from repro.graph.metrics import load_imbalance
from repro.partition.config import PartitionOptions
from repro.partition.kway import partition_kway
from repro.utils.rng import as_rng


def _random_two_constraint_grid(seed):
    """A connected grid graph with a unit FE constraint and a random
    {1, 2} second constraint — always feasibly balanceable."""
    rng = as_rng(seed)
    nx = int(rng.integers(8, 17))
    ny = int(rng.integers(8, 17))
    n = nx * ny
    vwgts = np.column_stack(
        [
            np.ones(n, dtype=np.int64),
            rng.integers(1, 3, size=n),
        ]
    )
    return grid_graph(nx, ny, vwgts=vwgts)


@given(
    seed=st.integers(0, 10_000),
    k=st.integers(2, 5),
)
@settings(max_examples=25, deadline=None)
def test_property_labels_total_and_in_range(seed, k):
    """partition_kway labels every vertex with a value in [0, k)."""
    graph = _random_two_constraint_grid(seed)
    part = partition_kway(graph, k, PartitionOptions(seed=seed))
    assert part.shape == (graph.num_vertices,)
    assert part.dtype == np.int64
    assert part.min() >= 0
    assert part.max() < k
    # every part is non-empty for these feasible inputs
    assert len(np.unique(part)) == k


@given(
    seed=st.integers(0, 10_000),
    k=st.integers(2, 4),
    ubfactor=st.sampled_from([1.2, 1.3, 1.5]),
)
@settings(max_examples=25, deadline=None)
def test_property_both_constraints_within_ubfactor(seed, k, ubfactor):
    """Both constraint imbalances stay within the configured ubfactor
    (plus one max-weight vertex of granularity slack per constraint)."""
    graph = _random_two_constraint_grid(seed)
    options = PartitionOptions(seed=seed, ubfactor=ubfactor)
    part = partition_kway(graph, k, options)
    imbalance = load_imbalance(graph, part, k)
    slack = graph.vwgts.max(axis=0) / (graph.total_vwgt / k)
    assert imbalance.shape == (2,)
    for j in range(2):
        assert imbalance[j] <= ubfactor + slack[j] + 1e-9, (
            f"constraint {j}: {imbalance[j]:.4f} > "
            f"{ubfactor} + {slack[j]:.4f}"
        )


@given(
    seed=st.integers(0, 10_000),
    k=st.integers(2, 6),
    dim=st.integers(2, 3),
)
@settings(max_examples=25, deadline=None)
def test_property_descriptor_leaves_are_covering_boxes(seed, k, dim):
    """Induced descriptor leaves are axis-parallel boxes and every
    contact point lands inside its leaf's region."""
    rng = as_rng(seed)
    n = int(rng.integers(3 * k, 200))
    points = rng.random((n, dim))
    labels = rng.integers(0, k, size=n)
    tree, leaf_of = induce_pure_tree(points, labels, k)

    domain = np.vstack(
        [points.min(axis=0) - 0.1, points.max(axis=0) + 0.1]
    )
    leaf_ids, regions = leaf_regions(tree, domain)

    # axis-parallel boxes: (2, dim) with lo <= hi on every axis
    assert regions.shape == (len(leaf_ids), 2, dim)
    assert (regions[:, 0, :] <= regions[:, 1, :] + 1e-12).all()

    # leaf_regions enumerates exactly the tree's leaves
    tree_leaves = {
        i for i, left in enumerate(tree.left.tolist()) if left < 0
    }
    assert set(leaf_ids.tolist()) == tree_leaves

    # every point is covered by the region of the leaf it routes to
    region_of = {int(i): regions[j] for j, i in enumerate(leaf_ids)}
    routed = assign_points(tree, points)
    np.testing.assert_array_equal(routed, leaf_of)
    for idx in range(n):
        box = region_of[int(routed[idx])]
        assert (points[idx] >= box[0] - 1e-12).all()
        assert (points[idx] <= box[1] + 1e-12).all()


@given(seed=st.integers(0, 10_000), k=st.integers(2, 6))
@settings(max_examples=15, deadline=None)
def test_property_pure_leaves_match_labels(seed, k):
    """On distinct points, every pure leaf's label agrees with the
    labels of all points routed to it."""
    rng = as_rng(seed)
    n = int(rng.integers(3 * k, 120))
    points = rng.random((n, 2))
    labels = rng.integers(0, k, size=n)
    tree, leaf_of = induce_pure_tree(points, labels, k)
    for leaf in np.unique(leaf_of):
        members = labels[leaf_of == leaf]
        if tree.is_pure[leaf]:
            assert (members == tree.label[leaf]).all()
