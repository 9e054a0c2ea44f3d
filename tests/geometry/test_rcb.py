"""Tests for recursive coordinate bisection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import rcb
from repro.geometry.rcb import rcb_partition
from repro.metrics.mapping import update_comm

from . import reference_rcb


class TestRCBPartition:
    def test_balanced_counts_power_of_two(self):
        rng = np.random.default_rng(0)
        pts = rng.random((128, 2))
        labels, tree = rcb_partition(pts, 8)
        counts = np.bincount(labels, minlength=8)
        assert counts.min() >= 12 and counts.max() <= 20

    def test_non_power_of_two(self):
        rng = np.random.default_rng(1)
        pts = rng.random((150, 2))
        labels, _ = rcb_partition(pts, 5)
        counts = np.bincount(labels, minlength=5)
        assert counts.min() >= 20 and counts.max() <= 40

    def test_3d(self):
        rng = np.random.default_rng(2)
        pts = rng.random((200, 3))
        labels, _ = rcb_partition(pts, 4)
        assert set(np.unique(labels)) == set(range(4))

    def test_weighted_split(self):
        # two clusters; the left one carries all the weight
        pts = np.concatenate(
            [np.random.default_rng(0).random((50, 2)),
             np.random.default_rng(1).random((50, 2)) + [10, 0]]
        )
        w = np.concatenate([np.full(50, 10.0), np.full(50, 0.1)])
        labels, _ = rcb_partition(pts, 2, weights=w)
        # the heavy cluster should be split, i.e. contain both labels
        assert len(np.unique(labels[:50])) == 2

    def test_parts_are_axis_separable(self):
        """Each pair of RCB parts is separated by some axis-parallel
        hyperplane along the cut structure — verify part bounding boxes
        are disjoint for sibling leaves by checking no point of one part
        falls strictly inside another part's bounding box interior along
        the first cut dimension."""
        rng = np.random.default_rng(3)
        pts = rng.random((100, 2))
        labels, tree = rcb_partition(pts, 2)
        root = tree.nodes[tree.root]
        left_pts = pts[labels == 0][:, root.dim]
        right_pts = pts[labels == 1][:, root.dim]
        assert left_pts.max() <= root.threshold <= right_pts.min()

    def test_assign_matches_build_labels(self):
        rng = np.random.default_rng(4)
        pts = rng.random((80, 2))
        labels, tree = rcb_partition(pts, 6)
        assert np.array_equal(tree.assign(pts), labels)

    def test_coincident_points_handled(self):
        pts = np.zeros((16, 2))  # all identical
        labels, _ = rcb_partition(pts, 4)
        counts = np.bincount(labels, minlength=4)
        assert counts.tolist() == [4, 4, 4, 4]

    def test_k_one(self):
        pts = np.random.default_rng(0).random((5, 2))
        labels, tree = rcb_partition(pts, 1)
        assert (labels == 0).all()
        assert tree.n_nodes == 1

    def test_errors(self):
        pts = np.random.default_rng(0).random((3, 2))
        with pytest.raises(ValueError, match="k must be"):
            rcb_partition(pts, 0)
        with pytest.raises(ValueError, match="at least k"):
            rcb_partition(pts, 5)

    @given(st.integers(0, 10**6), st.integers(2, 10))
    @settings(max_examples=30, deadline=None)
    def test_property_all_parts_nonempty(self, seed, k):
        rng = np.random.default_rng(seed)
        pts = rng.random((k * 10, 2))
        labels, _ = rcb_partition(pts, k)
        assert (np.bincount(labels, minlength=k) > 0).all()


class TestRCBUpdate:
    def test_small_motion_small_migration(self):
        rng = np.random.default_rng(5)
        pts = rng.random((200, 2))
        labels, tree = rcb_partition(pts, 8)
        moved_pts = pts + 0.004 * rng.standard_normal((200, 2))
        new_labels = tree.update(moved_pts)
        migrated = int(np.count_nonzero(new_labels != labels))
        assert migrated <= 20  # tiny motion, tiny migration

    def test_update_restores_balance_after_drift(self):
        rng = np.random.default_rng(6)
        pts = rng.random((200, 2))
        labels, tree = rcb_partition(pts, 4)
        # translate all points: labels from *stale* thresholds would be
        # wildly unbalanced, re-fit thresholds keep counts even
        drifted = pts + np.array([0.8, 0.0])
        new_labels = tree.update(drifted)
        counts = np.bincount(new_labels, minlength=4)
        assert counts.min() >= 30 and counts.max() <= 70

    def test_update_handles_changed_point_count(self):
        rng = np.random.default_rng(7)
        pts = rng.random((100, 2))
        _, tree = rcb_partition(pts, 4)
        more = rng.random((140, 2))
        labels = tree.update(more)
        assert len(labels) == 140
        assert (np.bincount(labels, minlength=4) > 0).all()

    def test_update_is_stable_for_static_points(self):
        rng = np.random.default_rng(8)
        pts = rng.random((150, 2))
        labels, tree = rcb_partition(pts, 8)
        assert np.array_equal(tree.update(pts), labels)


def _replay(seq, k):
    """RCB fit on the first snapshot, re-fit on every one: per step the
    labels and every node's threshold."""
    coords = [s.mesh.nodes[s.contact_nodes] for s in seq]
    labels, tree = rcb_partition(coords[0], k)
    steps = [(labels, [n.threshold for n in tree.nodes])]
    for pts in coords:
        steps.append(
            (tree.update(pts), [n.threshold for n in tree.nodes])
        )
    return steps


class TestSequenceReplay:
    @pytest.mark.parametrize("k", [4, 25])
    def test_same_labels_and_thresholds_as_sort_and_cumsum(
        self, mid_sequence, k, monkeypatch
    ):
        """Build and every re-fit over the sequence equal the sort +
        cumsum solve with ``np.ones(n)`` weights, label for label and
        threshold for threshold."""
        got = _replay(mid_sequence, k)
        monkeypatch.setattr(
            rcb, "_weighted_quantile", reference_rcb.unit_or_weighted_quantile
        )
        want = _replay(mid_sequence, k)
        assert len(got) == len(want) == len(mid_sequence) + 1
        for (gl, gt), (wl, wt) in zip(got, want):
            assert np.array_equal(gl, wl)
            assert gt == wt

    def test_updcomm_small_per_step(self, mid_sequence):
        """Points do migrate as the cuts follow the motion, but each
        step moves only a small fraction of them (paper: UpdComm ≪
        M2MComm). At k = 8 this scene migrates nothing, so k = 25."""
        k = 25
        snap0 = mid_sequence[0]
        labels, tree = rcb_partition(
            snap0.mesh.nodes[snap0.contact_nodes], k
        )
        prev_labels, prev_ids = labels, snap0.contact_nodes
        total = 0
        for snap in mid_sequence.snapshots[1:]:
            new_labels = tree.update(snap.mesh.nodes[snap.contact_nodes])
            total += update_comm(
                prev_labels, new_labels, prev_ids, snap.contact_nodes
            )
            prev_labels, prev_ids = new_labels, snap.contact_nodes
        per_step = total / (len(mid_sequence) - 1)
        assert 0 < per_step < 0.25 * snap0.num_contact_nodes
