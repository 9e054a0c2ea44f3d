"""Bounding-box-filter parallel global search (paper §4, ML+RCB path).

Every processor broadcasts its subdomain's bounding box; each surface
element is then sent to every *other* subdomain whose box its own box
intersects. The number of such (element, remote subdomain) pairs is the
**NRemote** communication cost. Subdomains whose boxes overlap heavily
generate false positives — the inefficiency the paper's decision-tree
descriptors attack.

This module also hosts the contact-search inner kernel:
:func:`candidate_pairs` finds every (box, point-inside-box) pair with
dual-tree KD-tree passes followed by the :func:`box_candidate_pairs`
containment kernel — batch NumPy over the candidate set, with no
Python object per box in the ``global-search/search`` span.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np
from scipy.spatial import cKDTree

from repro.geometry.bbox import bboxes_intersect_matrix, bboxes_of_groups
from repro.utils.validation import check_labels


@dataclass
class SearchPlan:
    """Result of a global-search filter.

    ``sends[e]`` lists the remote partitions element ``e`` must be sent
    to; ``n_remote`` is the total send count (NRemote).
    """

    send_matrix: np.ndarray  # bool[m_elements, k]
    owner: np.ndarray  # int64[m_elements]

    @property
    def n_remote(self) -> int:
        """Total (element, remote partition) send pairs."""
        return int(self.send_matrix.sum())

    def sends_for(self, element: int) -> np.ndarray:
        """Remote partitions element ``element`` is sent to."""
        return np.nonzero(self.send_matrix[element])[0]

    def per_partition_receive_counts(self, k: int) -> np.ndarray:
        """How many remote elements each partition receives."""
        return self.send_matrix.sum(axis=0).astype(np.int64)


def bbox_filter_search(
    element_boxes: np.ndarray,
    element_owner: np.ndarray,
    contact_points: np.ndarray,
    point_partition: np.ndarray,
    k: int,
    pad: float = 0.0,
) -> SearchPlan:
    """Global search with subdomain bounding boxes as the filter.

    ``element_boxes`` are the surface elements' AABBs
    (``float64[m, 2, d]``), owned by ``element_owner`` (the partition
    performing each element's search). Subdomain extents are the
    bounding boxes of each partition's contact points. An element is
    sent to every other partition whose subdomain box it touches.
    Owners outside ``[0, k)`` raise :class:`ValueError`: an element no
    partition owns has no rank to search it.
    """
    element_boxes = np.asarray(element_boxes, dtype=float)
    element_owner = check_labels(
        "element_owner",
        np.asarray(element_owner, dtype=np.int64),
        k,
        size=len(element_boxes),
    )
    sub_boxes = bboxes_of_groups(contact_points, point_partition, k)
    hits = bboxes_intersect_matrix(element_boxes, sub_boxes, pad=pad)
    # never "send" an element to its own partition
    hits[np.arange(len(element_owner)), element_owner] = False
    return SearchPlan(send_matrix=hits, owner=element_owner)


def box_candidate_pairs(
    boxes: np.ndarray,
    points: np.ndarray,
    box_index: np.ndarray,
    point_index: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Exact containment over flattened (box, candidate point) pairs.

    ``box_index``/``point_index`` are parallel ``int64`` arrays naming
    candidate pairs (from any broad phase — KD-tree ball query, dense
    matrix, ...); the kernel keeps the pairs whose point lies inside
    the (inclusive) box and returns the filtered index arrays. One
    batch comparison over all pairs — no Python-level loop.
    """
    pts = points[point_index]
    inside = (
        (pts >= boxes[box_index, 0]) & (pts <= boxes[box_index, 1])
    ).all(axis=1)
    return box_index[inside], point_index[inside]


def candidate_pairs(
    boxes: np.ndarray,
    points: np.ndarray,
    point_ids: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """All (box index, point id) pairs with the point inside the box.

    Boxes are grouped by octave of their half-diagonal below the
    largest; one ``sparse_distance_matrix`` pass per group meets a
    KD-tree over the points at the group's largest radius, under twice
    any member's own. Pairs outside their own box's ball are dropped,
    then :func:`box_candidate_pairs` tests containment
    (``docs/ALGORITHMS.md`` §6). Returns parallel ``int64`` arrays
    ``(box_indices, point_ids)`` in unspecified order — callers treat
    them as a set. Non-finite coordinates raise :class:`ValueError`.
    """
    boxes = np.asarray(boxes, dtype=np.float64)
    points = np.asarray(points, dtype=np.float64)
    point_ids = np.asarray(point_ids, dtype=np.int64)
    for name, arr in (("boxes", boxes), ("points", points)):
        if not np.isfinite(arr).all():
            raise ValueError(f"{name} must be finite")
    if len(points) == 0 or len(boxes) == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    centers = (boxes[:, 0] + boxes[:, 1]) / 2.0
    radii = np.linalg.norm(boxes[:, 1] - boxes[:, 0], axis=1) / 2.0 + 1e-12
    octave = np.log2(radii.max() / radii).astype(np.int64)
    point_tree = cKDTree(points)
    box_index, cand_index = [], []
    for level in np.flatnonzero(np.bincount(octave)).tolist():
        members = np.flatnonzero(octave == level)
        near = cKDTree(centers[members]).sparse_distance_matrix(
            point_tree, radii[members].max(), output_type="ndarray"
        )
        in_ball = near["v"] <= radii[members][near["i"]]
        box_index.append(members[near["i"][in_ball]])
        cand_index.append(near["j"][in_ball])
    kept_boxes, kept_cands = box_candidate_pairs(
        boxes, points, np.concatenate(box_index), np.concatenate(cand_index)
    )
    return kept_boxes, point_ids[kept_cands]
