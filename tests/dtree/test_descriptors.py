"""Tests for subdomain geometric descriptors."""

import numpy as np
import pytest

from repro.dtree.descriptors import SubdomainDescriptors, leaf_regions
from repro.dtree.induction import induce_pure_tree
from repro.geometry.bbox import bbox_of_points, box_volume


def clusters(seed=0):
    rng = np.random.default_rng(seed)
    pts = np.concatenate(
        [rng.random((20, 2)), rng.random((20, 2)) + [3.0, 0.0],
         rng.random((20, 2)) + [1.5, 3.0]]
    )
    labels = np.repeat(np.arange(3), 20)
    return pts, labels


class TestLeafRegions:
    def test_regions_tile_the_domain(self):
        """Leaf regions are disjoint and their volumes sum to the
        domain volume (they partition the space)."""
        pts, labels = clusters()
        tree, _ = induce_pure_tree(pts, labels, 3)
        domain = bbox_of_points(pts)
        ids, regions = leaf_regions(tree, domain)
        assert len(ids) == tree.n_leaves
        total = sum(box_volume(r) for r in regions)
        assert total == pytest.approx(box_volume(domain))

    def test_regions_contain_their_points(self):
        pts, labels = clusters(1)
        tree, leaf_of = induce_pure_tree(pts, labels, 3)
        domain = bbox_of_points(pts)
        ids, regions = leaf_regions(tree, domain)
        region_of = {int(i): r for i, r in zip(ids, regions)}
        for p, leaf in zip(pts, leaf_of):
            r = region_of[int(leaf)]
            assert (p >= r[0] - 1e-12).all() and (p <= r[1] + 1e-12).all()

    def test_single_leaf_covers_domain(self):
        pts = np.random.default_rng(0).random((10, 2))
        tree, _ = induce_pure_tree(pts, np.zeros(10, int), 1)
        domain = bbox_of_points(pts)
        _, regions = leaf_regions(tree, domain)
        assert len(regions) == 1
        assert np.allclose(regions[0], domain)


class TestSubdomainDescriptors:
    def test_every_partition_described(self):
        pts, labels = clusters(2)
        tree, _ = induce_pure_tree(pts, labels, 3)
        desc = SubdomainDescriptors.from_tree(tree, bbox_of_points(pts))
        assert set(desc.regions_of) == {0, 1, 2}
        n_regions = sum(len(r) for r in desc.regions_of.values())
        assert n_regions == tree.n_leaves

    def test_zero_overlap_invariant(self):
        """The paper's key geometric property: descriptor regions of
        different subdomains never overlap (no false-positive volume),
        unlike plain bounding boxes."""
        pts, labels = clusters(3)
        tree, _ = induce_pure_tree(pts, labels, 3)
        desc = SubdomainDescriptors.from_tree(tree, bbox_of_points(pts))
        assert desc.total_overlap_volume() == pytest.approx(0.0)

    def test_volumes_sum_to_domain(self):
        pts, labels = clusters(4)
        tree, _ = induce_pure_tree(pts, labels, 3)
        domain = bbox_of_points(pts)
        desc = SubdomainDescriptors.from_tree(tree, domain)
        total = sum(desc.volume_of(p) for p in range(3))
        assert total == pytest.approx(box_volume(domain))

    def test_missing_partition_zero_volume(self):
        pts, labels = clusters(5)
        tree, _ = induce_pure_tree(pts, labels, 3)
        desc = SubdomainDescriptors.from_tree(tree, bbox_of_points(pts))
        assert desc.volume_of(99) == 0.0
