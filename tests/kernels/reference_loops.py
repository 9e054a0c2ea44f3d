"""Test-only oracles: naive per-pair / per-row / per-point loop forms of
the five array routines of the contact search.

``_src_*`` re-implement :func:`repro.geometry.bbox.bboxes_intersect_matrix`,
:func:`repro.geometry.bbox.bboxes_of_groups`,
:func:`repro.geometry.boxsearch.candidate_pairs`,
:func:`repro.core.contact_search.row_majority` and
:func:`repro.dtree.splitter.index_curves` one element at a time,
performing the same arithmetic per element (comparisons, int64
cumulative sums, IEEE sqrt), so ``test_conformance.py`` can demand
bit-identical results from the vectorised bodies.  ``_prep_*`` mirror
each routine's signature (defaults included) and its input coercions,
returning the positional tuple the loop form consumes.  The bodies
started as verbatim copies of the loop sources that used to live in
``repro.runtime.compiled``; ``_src_bboxes_of_groups`` was written
after them, in the same style, and ``_src_candidate_pairs`` (dense
containment over every box and point) and ``_src_index_curves`` (the
old one-dimension scan, run per row and per segment) now check the
entry points the program calls.  They share no code with ``src/``.
Do not "fix" or speed these up.
"""

from __future__ import annotations

from typing import Any, Tuple

import numpy as np


def _prep_bboxes_intersect_matrix(
    boxes_a: Any, boxes_b: Any, pad: float = 0.0
) -> Tuple[Any, ...]:
    return (
        np.asarray(boxes_a, dtype=float),
        np.asarray(boxes_b, dtype=float),
        float(pad),
    )


def _src_bboxes_intersect_matrix(
    boxes_a: np.ndarray, boxes_b: np.ndarray, pad: float
) -> np.ndarray:
    m_a = boxes_a.shape[0]
    m_b = boxes_b.shape[0]
    d = boxes_a.shape[2]
    out = np.empty((m_a, m_b), dtype=np.bool_)
    for i in range(m_a):
        for j in range(m_b):
            hit = True
            for dim in range(d):
                lo_ok = boxes_a[i, 0, dim] <= boxes_b[j, 1, dim] + pad
                hi_ok = boxes_a[i, 1, dim] >= boxes_b[j, 0, dim] - pad
                if not (lo_ok and hi_ok):
                    hit = False
                    break
            out[i, j] = hit
    return out


def _prep_bboxes_of_groups(
    points: Any, labels: Any, n_groups: int
) -> Tuple[Any, ...]:
    return (np.asarray(points, dtype=float), np.asarray(labels), n_groups)


def _src_bboxes_of_groups(
    points: np.ndarray, labels: np.ndarray, n_groups: int
) -> np.ndarray:
    n, d = points.shape
    out = np.empty((n_groups, 2, d), dtype=np.float64)
    for g in range(n_groups):
        for dim in range(d):
            out[g, 0, dim] = np.inf
            out[g, 1, dim] = -np.inf
    for i in range(n):
        g = labels[i]
        for dim in range(d):
            v = points[i, dim]
            if v < out[g, 0, dim]:
                out[g, 0, dim] = v
            if v > out[g, 1, dim]:
                out[g, 1, dim] = v
    return out


def _prep_candidate_pairs(
    boxes: Any, points: Any, point_ids: Any
) -> Tuple[Any, ...]:
    return (
        np.asarray(boxes, dtype=np.float64),
        np.asarray(points, dtype=np.float64),
        np.asarray(point_ids, dtype=np.int64),
    )


def _src_candidate_pairs(
    boxes: np.ndarray, points: np.ndarray, point_ids: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    m = boxes.shape[0]
    n, d = points.shape
    out_boxes = []
    out_points = []
    for b in range(m):
        for p in range(n):
            inside = True
            for dim in range(d):
                v = points[p, dim]
                if v < boxes[b, 0, dim] or v > boxes[b, 1, dim]:
                    inside = False
                    break
            if inside:
                out_boxes.append(b)
                out_points.append(point_ids[p])
    return (
        np.array(out_boxes, dtype=np.int64),
        np.array(out_points, dtype=np.int64),
    )


def _prep_row_majority(labels: Any) -> Tuple[Any, ...]:
    return (np.asarray(labels, dtype=np.int64),)


def _src_row_majority(labels: np.ndarray) -> np.ndarray:
    n, w = labels.shape
    out = np.empty(n, dtype=np.int64)
    for i in range(n):
        srow = np.sort(labels[i].copy())
        best_val = srow[0]
        best_cnt = 1
        cur_cnt = 1
        for j in range(1, w):
            if srow[j] == srow[j - 1]:
                cur_cnt += 1
            else:
                cur_cnt = 1
            if cur_cnt > best_cnt:
                best_cnt = cur_cnt
                best_val = srow[j]
        out[i] = best_val
    return out


def _prep_index_curves(
    lab: Any, seg: Any, start: Any, counts: Any
) -> Tuple[Any, ...]:
    return (
        np.asarray(lab), np.asarray(seg), np.asarray(start),
        np.asarray(counts),
    )


def _src_index_curves(
    lab: np.ndarray, seg: np.ndarray, start: np.ndarray, counts: np.ndarray
) -> np.ndarray:
    d, m = lab.shape
    out = np.empty((d, m), dtype=np.float64)
    n_seg = start.shape[0]
    for j in range(d):
        for s in range(n_seg):
            first = start[s]
            last = start[s + 1] if s + 1 < n_seg else m
            out[j, first:last] = _segment_curve(lab[j, first:last])
    return out


def _segment_curve(lab: np.ndarray) -> np.ndarray:
    """Eq. 1 after every position of one segment's labels in sorted
    order (after the last: of the whole segment)."""
    n = lab.shape[0]
    # prefix sums of per-class squared counts via occurrence ranks:
    # sum_c left_c(i)^2 == sum_{j<=i} (2*rank_j - 1)
    idx = np.argsort(lab, kind="mergesort")
    ranks = np.empty(n, dtype=np.int64)
    for t in range(n):
        if t > 0 and lab[idx[t]] == lab[idx[t - 1]]:
            ranks[idx[t]] = ranks[idx[t - 1]] + 1
        else:
            ranks[idx[t]] = 1
    left_sq = np.empty(n + 1, dtype=np.int64)
    left_sq[0] = 0
    for t in range(n):
        left_sq[t + 1] = left_sq[t] + 2 * ranks[t] - 1
    # suffix sums of squares: the same scan over the reversed labels
    rev = lab[::-1].copy()
    ridx = np.argsort(rev, kind="mergesort")
    rranks = np.empty(n, dtype=np.int64)
    for t in range(n):
        if t > 0 and rev[ridx[t]] == rev[ridx[t - 1]]:
            rranks[ridx[t]] = rranks[ridx[t - 1]] + 1
        else:
            rranks[ridx[t]] = 1
    rev_sq = np.empty(n + 1, dtype=np.int64)
    rev_sq[0] = 0
    for t in range(n):
        rev_sq[t + 1] = rev_sq[t] + 2 * rranks[t] - 1
    idx_vals = np.empty(n, dtype=np.float64)
    for i in range(n):
        # cut after sorted position i puts i+1 points left; the suffix
        # square-sum of the right side is rev_sq[n - (i + 1)]
        idx_vals[i] = np.sqrt(float(left_sq[i + 1])) + np.sqrt(
            float(rev_sq[n - (i + 1)])
        )
    return idx_vals
