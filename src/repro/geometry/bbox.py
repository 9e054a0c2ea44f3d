"""Axis-aligned bounding-box utilities (all vectorised).

Boxes are ``(lo, hi)`` pairs of ``float64[d]`` arrays; batched boxes
are ``float64[m, 2, d]`` with ``[:, 0]`` the lows and ``[:, 1]`` the
highs. Degenerate boxes (``lo == hi``) are legal — a single contact
point is its own box.
"""

from __future__ import annotations

import numpy as np

from repro.utils.arrays import group_by_label
from repro.utils.validation import check_array


def bbox_of_points(points: np.ndarray) -> np.ndarray:
    """Bounding box of a point set, shape ``(2, d)``."""
    points = check_array("points", np.asarray(points, dtype=float), ndim=2)
    if len(points) == 0:
        raise ValueError("cannot bound an empty point set")
    return np.stack((points.min(axis=0), points.max(axis=0)))


def bboxes_of_groups(
    points: np.ndarray, labels: np.ndarray, n_groups: int
) -> np.ndarray:
    """Per-group bounding boxes, shape ``(n_groups, 2, d)``.

    Empty groups get inverted boxes (``lo = +inf, hi = -inf``) which
    intersect nothing — exactly the behaviour a subdomain with no
    contact points should have in the global-search filter.
    """
    points = np.asarray(points, dtype=float)
    d = points.shape[1]
    out = np.empty((n_groups, 2, d), dtype=np.float64)
    out[:, 0] = np.inf
    out[:, 1] = -np.inf
    for g, idx in enumerate(group_by_label(labels, n_groups)):
        if len(idx):
            out[g, 0] = points[idx].min(axis=0)
            out[g, 1] = points[idx].max(axis=0)
    return out


def element_bboxes(points: np.ndarray, connectivity: np.ndarray) -> np.ndarray:
    """Bounding boxes of mesh elements/faces, shape ``(m, 2, d)``.

    ``connectivity`` is ``(m, nodes_per_element)`` node indices; this is
    the "approximate each surface element by its bounding box" step the
    paper uses for both algorithms' global search.
    """
    points = np.asarray(points, dtype=float)
    corner = points[np.asarray(connectivity, dtype=np.int64).T]
    return np.stack(
        (np.minimum.reduce(corner), np.maximum.reduce(corner)), axis=1
    )


def bboxes_intersect_matrix(
    boxes_a: np.ndarray, boxes_b: np.ndarray, pad: float = 0.0
) -> np.ndarray:
    """Pairwise intersection tests: ``bool[mA, mB]``.

    ``pad`` inflates the B boxes symmetrically — used to model a
    contact-detection capture distance. O(mA·mB·d) vectorised; callers
    keep one side small (k subdomains).
    """
    a = np.asarray(boxes_a, dtype=float)
    b = np.asarray(boxes_b, dtype=float)
    lo_ok = a[:, None, 0, :] <= b[None, :, 1, :] + pad
    hi_ok = a[:, None, 1, :] >= b[None, :, 0, :] - pad
    return (lo_ok & hi_ok).all(axis=2)


def box_contains_points(box: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Which of ``points`` lie inside ``box`` (inclusive)? ``bool[n]``."""
    box = np.asarray(box, dtype=float)
    points = np.asarray(points, dtype=float)
    return ((points >= box[0]) & (points <= box[1])).all(axis=1)


def box_volume(box: np.ndarray) -> float:
    """Volume (area in 2D) of a box; inverted boxes report 0."""
    box = np.asarray(box, dtype=float)
    extents = np.maximum(0.0, box[1] - box[0])
    return float(np.prod(extents))
