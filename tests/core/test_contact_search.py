"""Tests for contact search: serial reference, parallel execution, and
the completeness of both filters (the paper's correctness claim)."""

import numpy as np
import pytest

from repro.core.contact_search import (
    face_owner_partition,
    parallel_contact_search,
    row_majority,
    serial_candidate_pairs,
)
from repro.core.mcml_dt import MCMLDTParams, MCMLDTPartitioner
from repro.core.ml_rcb import MLRCBPartitioner
from repro.geometry.bbox import element_bboxes
from repro.geometry.boxsearch import bbox_filter_search
from repro.partition.config import PartitionOptions


class TestRowMajority:
    def test_basic(self):
        labels = np.array([[1, 2, 2, 3], [5, 5, 1, 1], [4, 4, 4, 0]])
        assert row_majority(labels).tolist() == [2, 1, 4]

    def test_tie_prefers_smaller(self):
        assert row_majority(np.array([[3, 1, 3, 1]])).tolist() == [1]

    def test_single_column(self):
        assert row_majority(np.array([[7], [2]])).tolist() == [7, 2]


class TestFaceOwner:
    def test_majority_of_nodes(self):
        part = np.array([0, 0, 1, 1, 1])
        faces = np.array([[0, 1, 2], [2, 3, 4]])
        assert face_owner_partition(part, faces).tolist() == [0, 1]


class TestSerialSearch:
    def test_finds_containment(self):
        pts = np.array([[0.5, 0.5], [5.0, 5.0]])
        ids = np.array([10, 11])
        boxes = np.array([[[0.0, 0.0], [1.0, 1.0]]])
        faces = np.array([[98, 99]])  # element's own nodes (not 10/11)
        pairs = serial_candidate_pairs(boxes, faces, pts, ids)
        assert pairs == {(0, 10)}

    def test_excludes_own_nodes(self):
        pts = np.array([[0.5, 0.5]])
        ids = np.array([10])
        boxes = np.array([[[0.0, 0.0], [1.0, 1.0]]])
        faces = np.array([[10, 99]])  # node 10 belongs to the element
        pairs = serial_candidate_pairs(boxes, faces, pts, ids)
        assert pairs == set()

    def test_empty_inputs(self):
        assert (
            serial_candidate_pairs(
                np.empty((0, 2, 2)), np.empty((0, 2), dtype=int),
                np.empty((0, 2)), np.empty(0, dtype=int),
            )
            == set()
        )


PAD = 0.3  # contact capture distance: plate spacing is 0.5, so this
# reaches across the projectile/channel-wall gap without being trivial


def padded_boxes(snap):
    boxes = element_bboxes(snap.mesh.nodes, snap.contact_faces)
    boxes[:, 0] -= PAD
    boxes[:, 1] += PAD
    return boxes


@pytest.fixture(scope="module")
def search_scene(mid_sequence):
    """A mid-penetration snapshot with fitted MCML+DT partitioner.

    Both partitioners use ``pad=PAD`` so their filters see the same
    padded element boxes the detection tests use.
    """
    snap = mid_sequence[20]
    k = 6
    pt = MCMLDTPartitioner(
        k, MCMLDTParams(options=PartitionOptions(seed=0), pad=PAD)
    )
    pt.fit(snap)
    return snap, pt, k


def test_tree_sends_fewer_than_bbox_on_the_same_partition(search_scene):
    """The paper's §4 mechanism on the impact scene: on one MCML+DT
    partition the descriptor tree ships fewer elements than the
    subdomain bounding boxes would (512 vs 1,310 of 704 padded
    elements here; 3,064 vs 8,110 at paper scale, k = 8)."""
    snap, pt, k = search_scene
    boxes = padded_boxes(snap)
    owner = face_owner_partition(pt.part, snap.contact_faces)
    bbox_plan = bbox_filter_search(
        boxes, owner, snap.mesh.nodes[snap.contact_nodes],
        pt.part[snap.contact_nodes], k,
    )
    assert pt.search_plan(snap).n_remote < bbox_plan.n_remote


class TestParallelEqualsSerial:
    def test_tree_filter_complete(self, search_scene, spmd_backend):
        """MCML+DT parallel search finds exactly the serial candidate
        set — the decision-tree filter loses nothing, on every
        execution backend, with identical ledger accounting."""
        snap, pt, k = search_scene
        tree, _ = pt.build_descriptors(snap)
        plan = pt.search_plan(snap, tree)
        boxes = padded_boxes(snap)
        coords = snap.mesh.nodes[snap.contact_nodes]
        point_part = pt.part[snap.contact_nodes]

        serial = serial_candidate_pairs(
            boxes, snap.contact_faces, coords, snap.contact_nodes
        )
        parallel, ledger = parallel_contact_search(
            plan, boxes, snap.contact_faces, coords,
            snap.contact_nodes, point_part, k, backend=spmd_backend,
        )
        assert parallel == serial
        assert ledger.items("contact-exchange") == plan.n_remote

    def test_bbox_filter_complete(self, search_scene):
        """ML+RCB parallel search also finds the full serial set."""
        snap, _, k = search_scene
        from repro.core.ml_rcb import MLRCBParams
        ml = MLRCBPartitioner(k, MLRCBParams(pad=PAD))
        ml.fit(snap)
        plan = ml.search_plan(snap)
        boxes = padded_boxes(snap)
        coords = snap.mesh.nodes[ml.contact_ids]

        serial = serial_candidate_pairs(
            boxes, snap.contact_faces, coords, ml.contact_ids
        )
        parallel, _ = parallel_contact_search(
            plan, boxes, snap.contact_faces, coords,
            ml.contact_ids, ml.rcb_labels, k,
        )
        assert parallel == serial

    def test_ledger_matches_plan(self, search_scene):
        snap, pt, k = search_scene
        plan = pt.search_plan(snap)
        boxes = padded_boxes(snap)
        coords = snap.mesh.nodes[snap.contact_nodes]
        _, ledger = parallel_contact_search(
            plan, boxes, snap.contact_faces, coords,
            snap.contact_nodes, pt.part[snap.contact_nodes], k,
        )
        assert ledger.items("contact-exchange") == plan.n_remote
        # per-rank sends sum to the total
        total = sum(
            ledger.sent_by_rank[("contact-exchange", r)] for r in range(k)
        )
        assert total == plan.n_remote

    def test_backends_bit_identical(self, search_scene, spmd_backend):
        """The thread/process backends reproduce the serial backend's
        candidate set and ledger exactly (not just the serial search
        reference) — the determinism guarantee of the runtime."""
        snap, pt, k = search_scene
        plan = pt.search_plan(snap)
        boxes = padded_boxes(snap)
        coords = snap.mesh.nodes[snap.contact_nodes]
        point_part = pt.part[snap.contact_nodes]

        reference, ref_ledger = parallel_contact_search(
            plan, boxes, snap.contact_faces, coords,
            snap.contact_nodes, point_part, k, backend="serial",
        )
        got, ledger = parallel_contact_search(
            plan, boxes, snap.contact_faces, coords,
            snap.contact_nodes, point_part, k, backend=spmd_backend,
        )
        assert got == reference
        assert ledger.summary() == ref_ledger.summary()
        assert dict(ledger.sent_by_rank) == dict(ref_ledger.sent_by_rank)

    def test_serial_search_nontrivial(self, search_scene):
        """Sanity: the scene actually produces contact candidates
        (projectile faces near plate nodes)."""
        snap, pt, k = search_scene
        boxes = padded_boxes(snap)
        coords = snap.mesh.nodes[snap.contact_nodes]
        serial = serial_candidate_pairs(
            boxes, snap.contact_faces, coords, snap.contact_nodes
        )
        assert len(serial) > 0
