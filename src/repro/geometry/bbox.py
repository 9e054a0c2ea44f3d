"""Axis-aligned bounding-box utilities (all vectorised).

Boxes are ``(lo, hi)`` pairs of ``float64[d]`` arrays; batched boxes
are ``float64[m, 2, d]`` with ``[:, 0]`` the lows and ``[:, 1]`` the
highs. Degenerate boxes (``lo == hi``) are legal — a single contact
point is its own box.
"""

from __future__ import annotations

import numpy as np

from repro.utils.arrays import counts_per_label
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
    contact points should have in the global-search filter. One stable
    sort makes every present group a contiguous run, which
    ``np.minimum.reduceat`` / ``np.maximum.reduceat`` bound in one call
    each. Labels outside ``[0, n_groups)`` raise :class:`ValueError`.
    """
    points = np.asarray(points, dtype=float)
    counts = counts_per_label(labels, n_groups)
    d = points.shape[1]
    out = np.empty((n_groups, 2, d), dtype=np.float64)
    out[:, 0] = np.inf
    out[:, 1] = -np.inf
    present = np.flatnonzero(counts)
    if len(present):
        grouped = points[np.argsort(labels, kind="stable")]
        starts = (np.cumsum(counts) - counts)[present]
        out[present, 0] = np.minimum.reduceat(grouped, starts, axis=0)
        out[present, 1] = np.maximum.reduceat(grouped, starts, axis=0)
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
    """Pairwise intersection tests: C-contiguous ``bool[mA, mB]``.

    ``pad`` inflates the B boxes symmetrically — used to model a
    contact-detection capture distance. Two boxes meet when, in every
    dimension, ``a_lo <= b_hi + pad`` and ``a_hi >= b_lo - pad``. The
    A boxes are read coordinate-major — one contiguous row of ``mA``
    values per (side, dimension) — so each of the ``2·d`` comparisons
    is one long broadcast of an ``mA`` row against a column of ``mB``
    padded bounds, ``&=``-ed into a ``(mB, mA)`` mask. No temporary
    carries a trailing coordinate axis to reduce over; the arithmetic
    per (pair, dimension) is exactly the loop form's, so the result is
    bit-identical to it. Callers keep one side small (k subdomains).
    """
    a = np.asarray(boxes_a, dtype=float)
    b = np.asarray(boxes_b, dtype=float)
    a_lo = np.ascontiguousarray(a[:, 0].T)
    a_hi = np.ascontiguousarray(a[:, 1].T)
    b_hi = (b[:, 1] + pad).T[:, :, None]
    b_lo = (b[:, 0] - pad).T[:, :, None]
    hits = np.ones((len(b), len(a)), dtype=bool)
    for dim in range(a.shape[2]):
        hits &= a_lo[dim] <= b_hi[dim]
        hits &= a_hi[dim] >= b_lo[dim]
    return np.ascontiguousarray(hits.T)


def box_volume(box: np.ndarray) -> float:
    """Volume (area in 2D) of a box; inverted boxes report 0."""
    box = np.asarray(box, dtype=float)
    extents = np.maximum(0.0, box[1] - box[0])
    return float(np.prod(extents))
