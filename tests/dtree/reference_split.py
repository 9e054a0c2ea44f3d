"""Test-only oracle: the Eq. 1 split search as it stood before it
became one batched pass per node.

The bodies are verbatim copies of the old ``_occurrence_ranks``,
``_sumsq_prefix``, ``split_index_curve`` and ``best_split`` of
``repro.dtree.splitter``: one coordinate ``argsort`` per dimension,
the occurrence ranks computed twice per dimension (prefix and reversed
suffix), the per-dimension ``argmax`` / tie-break / lexicographic key
loop, and the ``SplitResult`` record they return; nothing is shared
with ``src/``. ``test_split_differential.py`` asserts the root cut of
the library's depth-1 pure tree equals ``best_split``'s — dimension,
threshold bit for bit, and the points sent left; whole trees are
compared with the recursive engine in ``reference_induction.py``. Do
not "fix" or speed these up.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np


@dataclass(frozen=True)
class SplitResult:
    """A chosen hyperplane: ``points[:, dim] <= threshold`` go left."""

    dim: int
    threshold: float
    index_value: float
    n_left: int
    n_right: int



def _occurrence_ranks(labels: np.ndarray) -> np.ndarray:
    """1-based occurrence rank of each element among equal labels,
    in array order. E.g. [a, b, a, a] -> [1, 1, 2, 3]."""
    n = len(labels)
    idx = np.argsort(labels, kind="stable")
    sorted_lab = labels[idx]
    boundaries = np.nonzero(np.diff(sorted_lab))[0] + 1
    n_groups = len(boundaries) + 1
    group_start = np.zeros(n_groups, dtype=np.int64)
    group_start[1:] = boundaries
    sizes = np.empty(n_groups, dtype=np.int64)
    sizes[:-1] = np.diff(group_start)
    sizes[-1] = n - group_start[-1]
    ranks_sorted = np.arange(n, dtype=np.int64) - np.repeat(
        group_start, sizes
    )
    ranks = np.empty(n, dtype=np.int64)
    ranks[idx] = ranks_sorted + 1
    return ranks


def _sumsq_prefix(labels_in_order: np.ndarray) -> np.ndarray:
    """``out[i] = Σ_c (count of class c among the first i elements)²``
    for i in 0..n (length n+1)."""
    ranks = _occurrence_ranks(labels_in_order)
    inc = 2 * ranks - 1
    out = np.zeros(len(labels_in_order) + 1, dtype=np.int64)
    np.cumsum(inc, out=out[1:])
    return out


def split_index_curve(
    coords: np.ndarray, labels: np.ndarray
) -> tuple:
    """Eq. 1 values for all candidate cuts along one dimension.

    Returns ``(order, valid, index)`` where ``order`` sorts the points
    by coordinate, ``valid[i]`` marks cut positions *after* sorted
    point ``i`` (i.e. between distinct coordinates), and ``index[i]``
    is the Eq. 1 value of that cut. Exposed for tests and for the
    margin-aware extension.
    """
    order = np.argsort(coords, kind="stable")
    c = coords[order]
    lab = labels[order]
    n = len(c)
    left_sq = _sumsq_prefix(lab)  # prefix sums of squares
    right_sq = _sumsq_prefix(lab[::-1])[::-1]  # suffix sums of squares
    # cut after sorted position i (0-based) puts i+1 points left
    idx_vals = np.sqrt(left_sq[1:n].astype(float)) + np.sqrt(
        right_sq[1:n].astype(float)
    )
    valid = c[:-1] < c[1:]
    return order, valid, idx_vals


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
    shallow.
    """
    points = np.asarray(points, dtype=float)
    labels = np.asarray(labels, dtype=np.int64)
    n, d = points.shape
    if n < 2:
        return None

    best: Optional[SplitResult] = None
    best_key = None
    for dim in range(d):
        coords = points[:, dim]
        order, valid, idx_vals = split_index_curve(coords, labels)
        if not valid.any():
            continue
        score = idx_vals.astype(float)
        if margin_weight > 0.0:
            c = coords[order]
            extent = c[-1] - c[0]
            if extent > 0:
                gaps = (c[1:] - c[:-1]) / extent
                score = score + margin_weight * n * gaps
        score = np.where(valid, score, -np.inf)
        i = int(np.argmax(score))
        # tie-break toward balance among equal scores
        ties = np.nonzero(score == score[i])[0]
        if len(ties) > 1:
            i = int(ties[np.argmin(np.abs(ties + 1 - n / 2))])
        c = coords[order]
        key = (score[i], -abs((i + 1) - n / 2))
        if best_key is None or key > best_key:
            best_key = key
            best = SplitResult(
                dim=dim,
                threshold=float(0.5 * (c[i] + c[i + 1])),
                index_value=float(idx_vals[i]),
                n_left=i + 1,
                n_right=n - (i + 1),
            )
    return best
