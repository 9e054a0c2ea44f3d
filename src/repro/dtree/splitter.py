"""Axis-parallel split search with the paper's splitting index (Eq. 1).

    index = sqrt(Σ_i |A1,i|²) + sqrt(Σ_i |A2,i|²)

maximised over every hyperplane passing between successive sorted
coordinates in each dimension. The search is one batched pass over
*segments*: every node open at one depth of a tree is a contiguous run
of the columns of a ``(d, m)`` block whose row ``j`` lists the node's
points sorted by coordinate ``j`` (stably, ties in point order). A
node costs no NumPy call of its own, because a tree has hundreds of
nodes of a few dozen points each, where the number of calls and not the
O(n log n) of the sorts is what a split costs. Tree induction
(:mod:`repro.dtree.induction`) calls :func:`choose_cuts` and
:func:`median_cuts` once per tree level; a single node is the
one-segment case of the same pass.

The pass is independent of the number of partitions k: instead of an
(n × k) prefix-count matrix it uses the occurrence-rank identity

    Σ_c left_c(i)²  =  Σ_{j ≤ i} (2·rank_j − 1)

where ``rank_j`` is the 1-based occurrence number of point j's label
among its node's points of that class in sorted order. Counted from
the other end the same point has rank ``count_c − rank_j + 1``, so

    Σ_c right_c(i)²  =  Σ_c count_c²  −  Σ_{j ≤ i} (2·(count_c − rank_j) + 1)

Both increments sum to ``Σ_c count_c²`` over a node, so one cumulative
sum along the whole row serves every segment: the previous segment's
sum, taken back at a segment's first column, restarts it there. Both
sides of every cut come from one stable sort of the (narrow) labels per
row and one cumulative sum, in exact integer arithmetic (integers below
2**53 in ``float64``).

Each node then takes the cut with the highest score (Eq. 1, plus the
§6 gap term when ``margin_weight > 0``), ties broken toward the more
size-balanced cut to keep trees shallow, then toward the lower
dimension and the lower coordinate. A pure node of the §4.2 bounded
tree (Eq. 1 scores every cut of it the same) is cut at the median of
its longest extent instead.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


def narrow_labels(labels: np.ndarray, k: int) -> np.ndarray:
    """``labels`` as the narrowest unsigned type holding ``0..k-1``:
    NumPy radix-sorts 8- and 16-bit keys."""
    return labels.astype(np.min_scalar_type(max(k - 1, 0)))


def index_curves(
    lab: np.ndarray,
    seg: np.ndarray,
    start: np.ndarray,
    counts: np.ndarray,
) -> np.ndarray:
    """Eq. 1 after every position of every segment, all dimensions.

    ``lab`` is the ``(d, m)`` block of labels in segment-sorted order
    (row ``j`` sorted by coordinate ``j`` within each segment),
    ``seg[p]`` the segment of column ``p``, ``start`` the first column
    of each segment and ``counts`` the ``(segments, k)`` class counts.
    Entry ``[j, p]`` is Eq. 1 of the cut after position ``p`` of row
    ``j`` (at a segment's last position: of the whole segment).
    """
    d, m = lab.shape
    # Sorted by label, a row lists class 0's points segment by segment
    # (the segments are in order), then class 1's, …: a (segment,
    # class) group starts at the same place in every row, entry q has
    # rank q − (start of its group) + 1, and the increments are the
    # same for every row; ``by_class`` says where each one belongs.
    groups = counts.T.ravel()
    by_class = lab.argsort(axis=1, kind="stable")
    by_class += np.arange(0, d * m, m)[:, None]
    ends = 2 * groups.cumsum()
    odd = np.arange(1, 2 * m, 2)
    # integers below 2**53 add exactly in float64, and sqrt reads them
    # as the float it would have converted them to
    inc = np.empty((2, d * m))
    inc[0, by_class] = odd - (ends - 2 * groups).repeat(groups)
    inc[1, by_class] = ends.repeat(groups) - odd
    inc = inc.reshape(2, d, m)
    # both increments sum to Σ_c count_c² over a segment: taking the
    # previous segment's sum back at each segment's first column makes
    # one running sum per row restart there
    total = (counts * counts).sum(axis=1)
    inc[:, :, start[1:]] -= total[:-1]
    sums = inc.cumsum(axis=2)
    # Σ_c left_c² and Σ_c right_c² of every cut, then their roots
    left, right = sums
    np.subtract(total[seg], right, out=right)
    np.sqrt(sums, out=sums)
    return np.add(left, right, out=left)


def choose_cuts(
    c: np.ndarray,
    lab: np.ndarray,
    seg: np.ndarray,
    start: np.ndarray,
    size: np.ndarray,
    counts: np.ndarray,
    margin_weight: float,
) -> Tuple[np.ndarray, np.ndarray]:
    """The Eq. 1 cut every segment takes.

    ``c`` is the ``(d, m)`` block of segment-sorted coordinates, the
    other arguments as in :func:`index_curves`, plus the segments'
    ``size``. Returns ``(dim, threshold)``: segment ``s`` is cut in
    row ``dim[s]`` at ``threshold[s]``, the midpoint between the two
    coordinates the cut separates. A segment with no valid cut (one
    point, or every coordinate constant) gets ``dim = 0`` and
    ``threshold = +inf``: every point goes left.
    """
    score = index_curves(lab, seg, start, counts)
    if margin_weight > 0.0:
        with np.errstate(over="ignore"):
            extent = c[:, start + size - 1] - c[:, start]
            gaps = c[:, 1:] - c[:, :-1]
        wide = ~np.isfinite(extent)
        redo = ~np.isfinite(gaps)
        if wide.any() or redo.any():
            # a difference of finite coordinates past the float64 range:
            # take the segment's extent and gaps on halved coordinates,
            # where none overflows and (all normal) the ratios are equal
            half = c * 0.5
            extent[wide] = (half[:, start + size - 1] - half[:, start])[wide]
            redo |= wide[:, seg[:-1]]
            gaps[redo] = (half[:, 1:] - half[:, :-1])[redo]
        # a constant dimension has no valid cut; any finite gap will do
        scale = np.where(extent > 0, extent, np.inf)[:, seg[:-1]]
        with np.errstate(over="ignore"):
            # a gap within a segment is at most its extent; only a gap
            # across two segments (never a valid cut) can overflow
            gaps /= scale
        score[:, :-1] += (margin_weight * size)[seg[:-1]] * gaps
    # a valid cut separates two distinct coordinates of one segment
    np.copyto(score[:, :-1], -np.inf, where=c[:, :-1] >= c[:, 1:])
    score[:, start[1:] - 1] = -np.inf
    score[:, -1] = -np.inf
    top = np.maximum.reduceat(score, start, axis=1).max(axis=0)
    none = top == -np.inf
    top[none] = np.nan  # no valid cut: no candidate either
    dim, pos = np.nonzero(score == top[seg])
    has = seg[pos]
    if len(has) + np.count_nonzero(none) > len(size):
        # ties, or a segment tops two rows: of the cuts scoring the
        # top, the most balanced (|n_left − n/2|, doubled), then the
        # lowest dimension, then the lowest cut
        off = np.abs(2 * (pos - start[has]) + 2 - size[has])
        order = np.lexsort((pos, dim, off, has))
        owner = has[order]
        first = np.ones(len(order), dtype=bool)
        np.not_equal(owner[1:], owner[:-1], out=first[1:])
        order = order[first]
        dim, pos, has = dim[order], pos[order], has[order]
    return _cut_at(c, len(start), has, dim, pos)


def median_cuts(
    c: np.ndarray, seg: np.ndarray, start: np.ndarray, size: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """The §4.2 cut of pure segments: along the longest extent (among
    equal ones the higher dimension), the valid cut nearest the middle
    (among two, the lower). Arguments and ``(dim, threshold)`` as in
    :func:`choose_cuts`."""
    d, m = c.shape
    extent = c[:, start + size - 1] - c[:, start]
    longest = d - 1 - extent[::-1].argmax(axis=0)
    column = np.arange(m)
    row = c.ravel()[longest[seg] * m + column]
    # |n_left − n/2| doubled, then the column: the smallest key wins
    key = np.abs(2 * (column - start[seg]) + 2 - size[seg]) * m + column
    never = 2 * m * m + m
    np.copyto(key[:-1], never, where=row[:-1] >= row[1:])
    key[start[1:] - 1] = never
    key[-1] = never
    best = np.minimum.reduceat(key, start)
    has = np.flatnonzero(best < never)
    return _cut_at(c, len(start), has, longest[has], best[has] % m)


def _cut_at(
    c: np.ndarray,
    n_seg: int,
    has: np.ndarray,
    dim: np.ndarray,
    pos: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Per segment ``(dim, threshold)`` from the cuts after column
    ``pos`` of row ``dim`` of segments ``has``; the rest get no cut."""
    out_dim = np.zeros(n_seg, dtype=np.int64)
    out_dim[has] = dim
    threshold = np.empty(n_seg)
    threshold.fill(np.inf)
    threshold[has] = 0.5 * (c[dim, pos] + c[dim, pos + 1])
    return out_dim, threshold
