"""The ball-query broad phase ``candidate_pairs`` used before the
dual-tree pass, kept verbatim as a differential oracle.

Each box queried its own ball through ``cKDTree.query_ball_point``,
which built one Python list per box; the ragged lists were flattened
once and exact containment ran over the flattened pairs
(:func:`_contained`, written here so the oracle shares no code with
:mod:`repro.geometry.boxsearch`).
``tests/geometry/test_boxsearch_differential.py`` asserts the library
returns the same pair *set* as this body.
"""

from __future__ import annotations

from itertools import chain
from typing import Tuple

import numpy as np
from scipy.spatial import cKDTree


def _contained(
    boxes: np.ndarray,
    points: np.ndarray,
    box_index: np.ndarray,
    point_index: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """The (box, point) pairs, of the ones named, whose point lies in
    the (inclusive) box, in their input order."""
    p = points[point_index]
    inside = (
        (p >= boxes[box_index, 0]) & (p <= boxes[box_index, 1])
    ).all(axis=1)
    return box_index[inside], point_index[inside]


def candidate_pairs(
    boxes: np.ndarray,
    points: np.ndarray,
    point_ids: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """All (box index, point id) pairs with the point inside the box
    (one ball query per box)."""
    boxes = np.asarray(boxes, dtype=np.float64)
    points = np.asarray(points, dtype=np.float64)
    point_ids = np.asarray(point_ids, dtype=np.int64)
    empty = np.empty(0, dtype=np.int64)
    if len(points) == 0 or len(boxes) == 0:
        return empty, empty
    tree = cKDTree(points)
    centers = (boxes[:, 0] + boxes[:, 1]) / 2.0
    radii = np.linalg.norm(boxes[:, 1] - boxes[:, 0], axis=1) / 2.0
    hits = tree.query_ball_point(centers, radii + 1e-12)
    counts = np.fromiter(
        (len(h) for h in hits), dtype=np.int64, count=len(hits)
    )
    total = int(counts.sum())
    if total == 0:
        return empty, empty
    box_index = np.repeat(np.arange(len(boxes), dtype=np.int64), counts)
    cand_index = np.fromiter(
        chain.from_iterable(hits), dtype=np.int64, count=total
    )
    kept_boxes, kept_cands = _contained(
        boxes, points, box_index, cand_index
    )
    return kept_boxes, point_ids[kept_cands]
