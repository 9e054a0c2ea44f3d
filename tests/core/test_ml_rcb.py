"""Tests for the ML+RCB baseline."""

import numpy as np
import pytest

from repro.core.ml_rcb import MLRCBParams, MLRCBPartitioner
from repro.graph.metrics import load_imbalance
from repro.mesh.nodal_graph import nodal_graph
from repro.partition.config import PartitionOptions

K = 6


@pytest.fixture(scope="module")
def fitted(mid_sequence):
    pt = MLRCBPartitioner(K, MLRCBParams(options=PartitionOptions(seed=0)))
    pt.fit(mid_sequence[0])
    return pt


class TestFit:
    def test_fe_partition_balanced(self, fitted, mid_sequence):
        snap = mid_sequence[0]
        mesh = snap.mesh
        vwgts = np.zeros((mesh.num_nodes, 1), dtype=np.int64)
        vwgts[mesh.used_nodes(), 0] = 1
        g = nodal_graph(mesh, vwgts=vwgts)
        assert load_imbalance(g, fitted.part_fe, K).max() <= 1.10

    def test_rcb_balanced_on_contact_points(self, fitted):
        counts = np.bincount(fitted.rcb_labels, minlength=K)
        n = len(fitted.rcb_labels)
        assert counts.max() <= 1.3 * n / K

    def test_unfitted_raises(self, mid_sequence):
        pt = MLRCBPartitioner(4)
        with pytest.raises(RuntimeError, match="fit"):
            pt.search_plan(mid_sequence[0])
        with pytest.raises(RuntimeError, match="fit"):
            pt.m2m_comm_now()

    def test_k_validation(self):
        with pytest.raises(ValueError, match="k must be"):
            MLRCBPartitioner(0)


class TestUpdate:
    def test_update_tracks_contact_set(self, mid_sequence):
        pt = MLRCBPartitioner(
            K, MLRCBParams(options=PartitionOptions(seed=0))
        )
        pt.fit(mid_sequence[0])
        for snap in mid_sequence.snapshots[1:6]:
            labels = pt.update(snap)
            assert len(labels) == len(snap.contact_nodes)
            assert np.array_equal(pt.contact_ids, snap.contact_nodes)
            assert pt.last_upd_comm >= 0

    def test_rcb_balance_maintained_through_updates(self, mid_sequence):
        pt = MLRCBPartitioner(
            K, MLRCBParams(options=PartitionOptions(seed=0))
        )
        pt.fit(mid_sequence[0])
        for snap in mid_sequence.snapshots[1:]:
            pt.update(snap)
        counts = np.bincount(pt.rcb_labels, minlength=K)
        n = len(pt.rcb_labels)
        assert counts.max() <= 1.4 * n / K

    def test_static_snapshot_zero_updcomm(self, mid_sequence):
        pt = MLRCBPartitioner(
            K, MLRCBParams(options=PartitionOptions(seed=0))
        )
        pt.fit(mid_sequence[0])
        pt.update(mid_sequence[0])  # same snapshot again
        assert pt.last_upd_comm == 0


class TestM2MComm:
    def test_positive_for_decoupled_decompositions(self, fitted):
        """Graph and RCB decompositions generally disagree on many
        contact points — the cost MCML+DT eliminates."""
        m2m = fitted.m2m_comm_now()
        n = len(fitted.rcb_labels)
        assert 0 < m2m <= n

    def test_bounded_by_contact_count(self, fitted):
        assert fitted.m2m_comm_now() <= len(fitted.contact_ids)


class TestSearchPlan:
    def test_no_self_sends(self, fitted, mid_sequence):
        snap = mid_sequence[0]
        plan = fitted.search_plan(snap)
        owners = plan.owner
        assert not plan.send_matrix[np.arange(len(owners)), owners].any()

    def test_snapshot_not_updated_to_is_rejected(self, mid_sequence):
        """The RCB labels belong to the last fitted/updated snapshot;
        planning another one would leave faces with no owner."""
        pt = MLRCBPartitioner(4)
        pt.fit(mid_sequence[0])
        late = mid_sequence[29]
        assert not np.array_equal(late.contact_nodes, pt.contact_ids)
        with pytest.raises(ValueError, match=r"update\(snapshot\)"):
            pt.search_plan(late)
        pt.update(late)
        plan = pt.search_plan(late)
        assert plan.owner.min() >= 0 and plan.owner.max() < 4

    def test_owner_is_rcb_partition(self, fitted, mid_sequence):
        snap = mid_sequence[0]
        plan = fitted.search_plan(snap)
        assert plan.owner.min() >= 0
        assert plan.owner.max() < K
