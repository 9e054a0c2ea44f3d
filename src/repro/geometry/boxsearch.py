"""Bounding-box-filter parallel global search (paper §4, ML+RCB path).

Every processor broadcasts its subdomain's bounding box; each surface
element is then sent to every *other* subdomain whose box its own box
intersects. The number of such (element, remote subdomain) pairs is the
**NRemote** communication cost. Subdomains whose boxes overlap heavily
generate false positives — the inefficiency the paper's decision-tree
descriptors attack.

This module also hosts the contact-search inner kernel:
:func:`candidate_pairs` finds every (box, point-inside-box) pair with
a uniform-grid broad phase followed by exact containment — batch
NumPy over coordinate-major arrays, with no Python object per box in
the ``global-search/search`` span.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from repro.geometry.bbox import bboxes_intersect_matrix, bboxes_of_groups
from repro.utils.validation import check_finite, check_labels


@dataclass
class SearchPlan:
    """Result of a global-search filter.

    ``send_matrix[e]`` marks the remote partitions element ``e`` must
    be sent to; ``n_remote`` is the total send count (NRemote).
    """

    send_matrix: np.ndarray  # bool[m_elements, k]
    owner: np.ndarray  # int64[m_elements]

    @property
    def n_remote(self) -> int:
        """Total (element, remote partition) send pairs."""
        return int(self.send_matrix.sum())

    def per_partition_receive_counts(self) -> np.ndarray:
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
    Owners outside ``[0, k)`` and non-finite ``element_boxes`` raise
    :class:`ValueError`: an element no partition owns has no rank to
    search it, and a NaN box would match no subdomain.
    """
    element_owner = check_labels(
        "element_owner",
        np.asarray(element_owner, dtype=np.int64),
        k,
        size=len(element_boxes),
    )
    element_boxes = check_finite("element_boxes", element_boxes)
    sub_boxes = bboxes_of_groups(contact_points, point_partition, k)
    hits = bboxes_intersect_matrix(element_boxes, sub_boxes, pad=pad)
    # never "send" an element to its own partition
    hits[np.arange(len(element_owner)), element_owner] = False
    return SearchPlan(send_matrix=hits, owner=element_owner)


def _contained(
    lo: np.ndarray,
    hi: np.ndarray,
    pts: np.ndarray,
    box_index: np.ndarray,
    point_index: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """The (box, point) pairs whose point lies inside the (inclusive)
    box, from coordinate-major bounds ``lo``/``hi`` (``(d, m)``) and
    points ``pts`` (``(d, n)``): one axis at a time, each pass keeping
    only the survivors of the last, in their input order."""
    for axis in range(pts.shape[0]):
        x = pts[axis].take(point_index)
        keep = (x >= lo[axis].take(box_index)) & (
            x <= hi[axis].take(box_index)
        )
        box_index, point_index = box_index[keep], point_index[keep]
    return box_index, point_index


def _grid_candidates(
    lo: np.ndarray,
    hi: np.ndarray,
    pts: np.ndarray,
    origin: np.ndarray,
    min_cell: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Broad-phase (box, point index) candidates for one octave group.

    ``lo``/``hi`` are the members' bounds and ``pts`` the points, all
    coordinate-major; ``origin`` is the points' lower corner and
    ``min_cell`` the smallest cell edge per axis. Returns every pair
    whose point shares a cell with its box, a superset of the pairs
    with the point inside the box (see :func:`candidate_pairs`).
    """
    d, m = lo.shape
    cell = np.maximum((hi - lo).max(axis=1), min_cell)
    cell[cell == 0.0] = 1.0  # zero span and zero extent: one cell
    o, c = origin[:, None], cell[:, None]
    point_cell = np.floor((pts - o) / c).astype(np.int64)
    size = (point_cell.max(axis=1) + 1).tolist()
    strides = [1] * d  # linear cell id, last axis fastest
    for axis in range(d - 2, -1, -1):
        strides[axis] = strides[axis + 1] * size[axis + 1]
    n_cells = strides[0] * size[0]
    cell_id = np.asarray(strides) @ point_cell
    order = np.argsort(cell_id, kind="stable")
    start = np.zeros(n_cells + 1, dtype=np.int64)
    np.cumsum(np.bincount(cell_id, minlength=n_cells), out=start[1:])
    # each box's cell range per axis, clipped to the grid in floats
    # (a far box's quotient may not fit an int64); an empty range
    # leaves first > last
    top = np.asarray(size, dtype=np.float64)[:, None]
    first = np.minimum(np.maximum(np.floor((lo - o) / c), 0.0), top)
    last = np.minimum(np.maximum(np.floor((hi - o) / c), -1.0), top - 1.0)
    first = first.astype(np.int64)
    width = np.maximum(last.astype(np.int64) - first + 1, 0)
    # one column per cell of the leading axes: a run of the sorted
    # points from the box's first to its last cell on the last axis
    n_cols = width[:-1].prod(axis=0)
    col_box = np.repeat(np.arange(m, dtype=np.int64), n_cols)
    col_start = first[-1].take(col_box)
    local = np.arange(len(col_box), dtype=np.int64) - np.repeat(
        np.cumsum(n_cols) - n_cols, n_cols
    )
    for axis in range(d - 2, -1, -1):
        w = width[axis].take(col_box)
        col_start += (first[axis].take(col_box) + local % w) * strides[axis]
        local //= w
    run_start = start.take(col_start)
    run_len = start.take(col_start + width[-1].take(col_box)) - run_start
    pair_box = np.repeat(col_box, run_len)
    shift = np.repeat(run_start - (np.cumsum(run_len) - run_len), run_len)
    return pair_box, order.take(
        np.arange(len(pair_box), dtype=np.int64) + shift
    )


def candidate_pairs(
    boxes: np.ndarray,
    points: np.ndarray,
    point_ids: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """All (box index, point id) pairs with the point inside the box.

    The broad phase is a uniform grid over the points, one per group of
    boxes whose largest per-axis extents lie in the same octave below
    the largest. A group's cell edge on each axis is its members'
    largest extent on that axis, or the points' span over
    ``ceil(n ** (1/d))`` if that is larger, so a member covers at most
    2 cells per axis and the grid has O(n) cells. The points are sorted
    by linear cell id (last axis fastest); each box expands into the
    columns of its cells along the leading axes, and each column is one
    run of the sorted points. Exact containment then runs over those
    candidates (``docs/ALGORITHMS.md`` §6).

    No pair is lost: a point's cell and a box's cell range come from
    the same expression, ``floor((x - origin) / cell)``, which is
    monotone in ``x`` under IEEE rounding, so ``lo <= p <= hi``
    implies ``cell(lo) <= cell(p) <= cell(hi)`` on every axis.

    Returns parallel ``int64`` arrays ``(box_indices, point_ids)`` in
    unspecified order — callers treat them as a set. Non-finite
    coordinates raise :class:`ValueError`.
    """
    boxes = check_finite("boxes", boxes)
    points = check_finite("points", points)
    point_ids = np.asarray(point_ids, dtype=np.int64)
    if len(points) == 0 or len(boxes) == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    n, d = points.shape
    pts = np.ascontiguousarray(points.T)
    lo = np.ascontiguousarray(boxes[:, 0].T)
    hi = np.ascontiguousarray(boxes[:, 1].T)
    extent = np.maximum((hi - lo).max(axis=0), 1e-12)
    octave = np.log2(extent.max() / extent).astype(np.int64)
    origin = pts.min(axis=1)
    min_cell = (pts.max(axis=1) - origin) / np.ceil(n ** (1.0 / d))
    levels = np.flatnonzero(np.bincount(octave)).tolist()
    if len(levels) == 1:  # the presets' case: no member gather
        box_index, cand_index = _grid_candidates(
            lo, hi, pts, origin, min_cell
        )
    else:
        box_parts, cand_parts = [], []
        for level in levels:
            members = np.flatnonzero(octave == level)
            # take, not lo[:, members]: the rows must stay contiguous
            b, p = _grid_candidates(
                lo.take(members, axis=1), hi.take(members, axis=1),
                pts, origin, min_cell,
            )
            box_parts.append(members.take(b))
            cand_parts.append(p)
        box_index = np.concatenate(box_parts)
        cand_index = np.concatenate(cand_parts)
    kept_boxes, kept_cands = _contained(lo, hi, pts, box_index, cand_index)
    return kept_boxes, point_ids.take(kept_cands)
