"""Axis-parallel split search with the paper's splitting index (Eq. 1).

    index = sqrt(Σ_i |A1,i|²) + sqrt(Σ_i |A2,i|²)

maximised over every hyperplane passing between successive sorted
coordinates in each dimension. A node is searched in one pass over the
``(d, n)`` block of its coordinates — two sorts and a fixed number of
array operations whatever d is — because a tree has hundreds of nodes
of a few dozen points each, where the number of NumPy calls and not the
O(n log n) of the sorts is what a split costs.

The pass is independent of the number of partitions k: instead of an
(n × k) prefix-count matrix it uses the occurrence-rank identity

    Σ_c left_c(i)²  =  Σ_{j ≤ i} (2·rank_j − 1)

where ``rank_j`` is the 1-based occurrence number of point j's label
among its class in sorted order. Counted from the other end the same
point has rank ``count_c − rank_j + 1``, so

    Σ_c right_c(i)²  =  Σ_c count_c²  −  Σ_{j ≤ i} (2·(count_c − rank_j) + 1)

and both sides of every cut come from one ranking and one cumulative
sum, in exact integer arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np


@dataclass(frozen=True)
class SplitResult:
    """A chosen hyperplane: ``points[:, dim] <= threshold`` go left."""

    dim: int
    threshold: float
    index_value: float
    n_left: int
    n_right: int


def _index_curves(
    cols: np.ndarray, labels: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Eq. 1 at every candidate cut of every dimension.

    ``cols`` is the ``(d, n)`` coordinate block, ``labels`` the n
    non-negative class labels. Returns ``(order, c, valid, index)``:
    ``order[j]`` sorts the points by coordinate j (stably), ``c`` are
    the sorted coordinates, and for the cut after sorted point ``i``
    of dimension ``j``, ``valid[j, i]`` says it separates two distinct
    coordinates and ``index[j, i]`` is its Eq. 1 value.
    """
    d, n = cols.shape
    order = cols.argsort(axis=1, kind="stable")
    row = (np.arange(d) * n)[:, None]
    c = cols.ravel()[order + row]
    counts = np.bincount(labels)
    # labels as narrow as they fit: NumPy radix-sorts 8- and 16-bit keys
    lab = labels.astype(np.min_scalar_type(len(counts)))[order]
    by_class = lab.argsort(axis=1, kind="stable") + row
    # Sorted by label, a row lists class 0's points in coordinate
    # order, then class 1's, …: entry p has rank p − (start of its
    # class) + 1, and a class starts at the same p in every row. So in
    # that order the increments — 2·rank − 1 on the left of a cut,
    # 2·(count − rank) + 1 on the right — are the same for every
    # dimension, and ``by_class`` says where each one belongs.
    ends = 2 * counts.cumsum()
    odd = np.arange(1, 2 * n, 2)
    inc = np.empty((2, d * n), dtype=np.int64)
    inc[0, by_class] = odd - (ends - 2 * counts).repeat(counts)
    inc[1, by_class] = ends.repeat(counts) - odd
    sumsq = inc.reshape(2, d, n).cumsum(axis=2)[:, :, : n - 1]
    total = int(counts @ counts)
    index = np.sqrt(sumsq[0]) + np.sqrt(total - sumsq[1])
    valid = c[:, :-1] < c[:, 1:]
    return order, c, valid, index


def split_index_curve(
    coords: np.ndarray, labels: np.ndarray
) -> tuple:
    """Eq. 1 values for all candidate cuts along one dimension.

    Returns ``(order, valid, index)`` where ``order`` sorts the points
    by coordinate, ``valid[i]`` marks cut positions *after* sorted
    point ``i`` (i.e. between distinct coordinates), and ``index[i]``
    is the Eq. 1 value of that cut. The one-dimension view of the pass
    :func:`best_split` makes, exposed for tests.
    """
    order, _, valid, index = _index_curves(
        np.asarray(coords)[None, :], np.asarray(labels)
    )
    return order[0], valid[0], index[0]


def best_split(
    points: np.ndarray,
    labels: np.ndarray,
    margin_weight: float = 0.0,
) -> Optional[SplitResult]:
    """Best Eq. 1 split over all dimensions, or ``None`` if every
    dimension is constant (the node is geometrically unsplittable).

    ``margin_weight > 0`` enables the paper's §6 extension: the score
    is augmented by the (normalised) gap width between the two points
    the hyperplane separates, preferring cuts through sparse regions.
    Ties are broken toward the more size-balanced cut to keep trees
    shallow, then toward the lower dimension and coordinate.
    """
    points = np.asarray(points, dtype=float)
    labels = np.asarray(labels, dtype=np.int64)
    n, d = points.shape
    if n < 2:
        return None
    _, c, valid, index = _index_curves(
        np.ascontiguousarray(points.T), labels
    )
    score = index
    if margin_weight > 0.0:
        extent = c[:, -1:] - c[:, :1]
        # a constant dimension has no valid cut; any finite gap will do
        gaps = (c[:, 1:] - c[:, :-1]) / np.where(extent > 0, extent, np.inf)
        score = score + margin_weight * n * gaps
    score = np.where(valid, score, -np.inf)
    top = score.max()
    if top == -np.inf:
        return None
    off_balance = np.abs(np.arange(1, n) - n / 2)
    # argmin takes the first of equals: lowest dimension, then lowest cut
    dim, i = divmod(
        int(np.where(score == top, off_balance, np.inf).argmin()), n - 1
    )
    return SplitResult(
        dim=dim,
        threshold=float(0.5 * (c[dim, i] + c[dim, i + 1])),
        index_value=float(index[dim, i]),
        n_left=i + 1,
        n_right=n - (i + 1),
    )


def median_split(points: np.ndarray) -> Optional[SplitResult]:
    """Balanced median cut along the longest extent.

    Used for *pure* nodes in bounded induction (§4.2), where Eq. 1 is
    indifferent (every cut of a single-class node scores the same) and
    the goal is simply to produce compact, movable boxes.
    """
    points = np.asarray(points, dtype=float)
    n, d = points.shape
    if n < 2:
        return None
    extents = points.max(axis=0) - points.min(axis=0)
    for dim in np.argsort(extents)[::-1]:
        coords = points[:, int(dim)]
        order = np.argsort(coords, kind="stable")
        c = coords[order]
        valid = np.nonzero(c[:-1] < c[1:])[0]
        if len(valid) == 0:
            continue
        i = int(valid[np.argmin(np.abs(valid + 1 - n / 2))])
        return SplitResult(
            dim=int(dim),
            threshold=float(0.5 * (c[i] + c[i + 1])),
            index_value=float(n),
            n_left=i + 1,
            n_right=n - (i + 1),
        )
    return None
