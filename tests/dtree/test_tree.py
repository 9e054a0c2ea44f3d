"""Tests for the DecisionTree structure."""

import numpy as np
import pytest

from repro.dtree.induction import induce_pure_tree
from repro.dtree.tree import DecisionTree, TreeNode

#: a hand-built tree's fields: root splits x at 0.5, leaves labelled 0, 1
SMALL = dict(
    n_points=[4, 2, 2],
    label=[-1, 0, 1],
    is_pure=[False, True, True],
    dim=[0, -1, -1],
    threshold=[0.5, 0.0, 0.0],
    left=[1, -1, -1],
    right=[2, -1, -1],
)


def small_tree(**edits):
    """:data:`SMALL` with ``edits`` applied as ``field=(node, value)``
    or, to append a node, ``field=[...]`` lists."""
    fields = {name: list(values) for name, values in SMALL.items()}
    for name, change in edits.items():
        if isinstance(change, tuple):
            node, value = change
            fields[name][node] = value
        else:
            fields[name] = change
    return DecisionTree(**fields, k=2)


class TestStructure:
    def test_counts(self):
        t = small_tree()
        assert t.n_nodes == 3
        assert t.n_leaves == 2
        assert t.depth() == 1

    def test_leaf_ids_and_labels(self):
        t = small_tree()
        assert t.is_leaf.tolist() == [False, True, True]
        assert t.leaf_ids().tolist() == [1, 2]
        assert t.leaf_labels().tolist() == [0, 1]

    def test_single_leaf_tree(self):
        t = DecisionTree(n_points=[5], label=[0], is_pure=[True], dim=[-1],
                         threshold=[0.0], left=[-1], right=[-1], k=1)
        assert t.depth() == 0
        assert t.n_leaves == 1
        t.validate()

    def test_arrays_are_read_only_views(self):
        threshold = np.array([0.5, 0.0, 0.0])
        t = small_tree(threshold=threshold)
        assert t.threshold.dtype == float and t.left.dtype == np.int64
        with pytest.raises(ValueError, match="read-only"):
            t.threshold[0] = 0.0
        threshold[0] = 0.25  # the caller's array stays writeable
        with pytest.raises(AttributeError):
            t.k = 3

    def test_nodes_view_for_the_spine_probe(self):
        # benchmarks/spine/probes.py reads [nd.label for nd in tree.nodes]
        nodes = small_tree().nodes
        assert nodes[0] == TreeNode(4, -1, False, 0, 0.5, 1, 2)
        assert [nd.label for nd in nodes] == [-1, 0, 1]
        assert type(nodes[1].n_points) is int


class TestValidate:
    def test_valid_tree_passes(self):
        small_tree().validate()

    def test_point_count_mismatch(self):
        with pytest.raises(ValueError, match="point count"):
            small_tree(n_points=(1, 3)).validate()

    def test_missing_child(self):
        # an interior node with one child
        with pytest.raises(ValueError, match="missing a child"):
            small_tree(right=(0, -1)).validate()

    def test_leaf_with_a_right_child(self):
        with pytest.raises(ValueError, match="right child"):
            small_tree(right=(1, 2)).validate()

    def test_label_out_of_range(self):
        with pytest.raises(ValueError, match="label"):
            small_tree(label=(2, 7)).validate()

    def test_child_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            small_tree(right=(0, 3)).validate()

    def test_unreachable_node(self):
        extra = {name: values + [values[1]] for name, values in SMALL.items()}
        with pytest.raises(ValueError, match="unreachable"):
            small_tree(**extra).validate()

    def test_node_reachable_twice(self):
        # both of the root's children are node 1
        with pytest.raises(ValueError, match="reachable twice"):
            small_tree(right=(0, 1), n_points=(0, 4)).validate()

    def test_arrays_of_different_lengths(self):
        with pytest.raises(ValueError, match="differ in length"):
            small_tree(label=[-1, 0]).validate()

    def test_induced_trees_always_valid(self):
        rng = np.random.default_rng(0)
        for trial in range(5):
            pts = rng.random((50, 2))
            labels = rng.integers(0, 4, 50)
            tree, _ = induce_pure_tree(pts, labels, 4)
            tree.validate()

    def test_repr_mentions_size(self):
        assert "nodes=3" in repr(small_tree())
