"""Tests for the MCML+DT partitioner."""

import numpy as np
import pytest

from repro.core.mcml_dt import MCMLDTParams, MCMLDTPartitioner
from repro.core.weights import build_contact_graph
from repro.dtree.query import assign_points
from repro.graph.metrics import load_imbalance
from repro.partition.config import PartitionOptions


K = 6


@pytest.fixture(scope="module")
def fitted(mid_sequence):
    params = MCMLDTParams(options=PartitionOptions(seed=0))
    pt = MCMLDTPartitioner(K, params)
    pt.fit(mid_sequence[0])
    return pt


class TestFit:
    def test_partition_covers_all_nodes(self, fitted, mid_sequence):
        assert len(fitted.part) == mid_sequence[0].mesh.num_nodes
        assert fitted.part.min() >= 0 and fitted.part.max() < K

    def test_both_constraints_balanced(self, fitted, mid_sequence):
        g = build_contact_graph(mid_sequence[0])
        imb = load_imbalance(g, fitted.part, K)
        assert imb[0] <= 1.15  # FE work
        assert imb[1] <= 1.15  # contact-search work

    def test_diagnostics_populated(self, fitted):
        d = fitted.diagnostics
        assert d.edge_cut_initial > 0
        assert d.edge_cut_final > 0
        assert d.reshape_tree_nodes > 0
        assert d.max_p > d.max_i > 0

    def test_reshape_actually_moves_points(self, fitted):
        assert fitted.diagnostics.reshape_moved > 0

    def test_unfitted_raises(self, mid_sequence):
        pt = MCMLDTPartitioner(4)
        with pytest.raises(RuntimeError, match="fit"):
            pt.build_descriptors(mid_sequence[0])
        with pytest.raises(RuntimeError, match="fit"):
            pt.search_plan(mid_sequence[0])

    def test_k_validation(self):
        with pytest.raises(ValueError, match="k must be"):
            MCMLDTPartitioner(0)

    def test_reshape_off_ablation(self, mid_sequence):
        params = MCMLDTParams(reshape=False, options=PartitionOptions(seed=0))
        pt = MCMLDTPartitioner(K, params)
        pt.fit(mid_sequence[0])
        assert pt.diagnostics.reshape_tree_nodes == 0
        assert pt.diagnostics.reshape_moved == 0

    def test_k_one_trivial(self, mid_sequence):
        pt = MCMLDTPartitioner(1)
        pt.fit(mid_sequence[0])
        assert (pt.part == 0).all()


class TestReshapeGeometry:
    def test_reshape_reduces_descriptor_tree_size(self, mid_sequence):
        """The point of P→P'→P'': the contact-point search tree induced
        on the reshaped partition is not meaningfully larger (and is
        usually smaller) than on the raw multi-constraint partition.
        The effect is statistical, so a small per-instance slack is
        allowed; the evaluation-scale bench checks the averaged
        effect."""
        snap = mid_sequence[0]
        plain = MCMLDTPartitioner(
            K, MCMLDTParams(reshape=False, options=PartitionOptions(seed=0))
        )
        plain.fit(snap)
        shaped = MCMLDTPartitioner(
            K, MCMLDTParams(options=PartitionOptions(seed=0))
        )
        shaped.fit(snap)
        t_plain, _ = plain.build_descriptors(snap)
        t_shaped, _ = shaped.build_descriptors(snap)
        assert t_shaped.n_nodes <= 1.25 * t_plain.n_nodes

    def test_custom_bounds_respected(self, mid_sequence):
        snap = mid_sequence[0]
        params = MCMLDTParams(
            max_p=50, max_i=10, options=PartitionOptions(seed=0)
        )
        pt = MCMLDTPartitioner(K, params)
        pt.fit(snap)
        assert pt.diagnostics.max_p == 50
        assert pt.diagnostics.max_i == 10


class TestDescriptors:
    def test_pure_tree_over_contact_points(self, fitted, mid_sequence):
        snap = mid_sequence[0]
        tree, leaf_of = fitted.build_descriptors(snap)
        tree.validate()
        coords = snap.mesh.nodes[snap.contact_nodes]
        leaves = assign_points(tree, coords)
        assert np.array_equal(leaves, leaf_of)
        # every leaf pure -> classifies the partition labels exactly
        labels = tree.label[leaves]
        assert np.array_equal(labels, fitted.part[snap.contact_nodes])

    def test_descriptors_follow_moving_points(self, fitted, mid_sequence):
        """Descriptor-only updates: re-inducing the tree at a later
        snapshot still classifies the (fixed) partition exactly."""
        snap = mid_sequence[-1]
        tree, _ = fitted.build_descriptors(snap)
        coords = snap.mesh.nodes[snap.contact_nodes]
        from repro.dtree.query import predict_partition

        got = predict_partition(tree, coords)
        assert np.array_equal(got, fitted.part[snap.contact_nodes])


class TestSearchPlan:
    def test_no_self_sends(self, fitted, mid_sequence):
        snap = mid_sequence[10]
        plan = fitted.search_plan(snap)
        owners = plan.owner
        assert not plan.send_matrix[
            np.arange(len(owners)), owners
        ].any()

    def test_n_remote_nonnegative_and_bounded(self, fitted, mid_sequence):
        snap = mid_sequence[10]
        plan = fitted.search_plan(snap)
        m = len(snap.contact_faces)
        assert 0 <= plan.n_remote <= m * (K - 1)
