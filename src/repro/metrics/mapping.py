"""Mapping costs between the two ML+RCB decompositions (§5.1).

The ML+RCB baseline holds every contact point in two partitions: its
FE-phase (graph) partition and its contact-phase (RCB) partition.
Transferring state between the phases costs one message per point whose
two owners differ. Since RCB labels are arbitrary, the paper first
relabels the RCB parts to maximise agreement using a maximal-weight
matching — here via ``scipy.optimize.linear_sum_assignment`` on the
k×k overlap matrix.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


def overlap_matrix(
    labels_a: np.ndarray, labels_b: np.ndarray, k: int
) -> np.ndarray:
    """``O[p, q]`` = number of points with A-label p and B-label q."""
    labels_a = np.asarray(labels_a, dtype=np.int64)
    labels_b = np.asarray(labels_b, dtype=np.int64)
    if labels_a.shape != labels_b.shape:
        raise ValueError("label arrays must have equal length")
    out = np.zeros((k, k), dtype=np.int64)
    np.add.at(out, (labels_a, labels_b), 1)
    return out


def optimal_relabel(
    labels_a: np.ndarray, labels_b: np.ndarray, k: int
) -> np.ndarray:
    """Permutation ``perm`` maximising agreement of ``perm[labels_b]``
    with ``labels_a`` (maximal-weight bipartite matching).

    SciPy is imported here, on first use, so importing the package
    does not load it.
    """
    from scipy.optimize import linear_sum_assignment

    overlap = overlap_matrix(labels_a, labels_b, k)
    rows, cols = linear_sum_assignment(overlap, maximize=True)
    perm = np.empty(k, dtype=np.int64)
    perm[cols] = rows
    return perm


def m2m_comm(
    fe_labels: np.ndarray, rcb_labels: np.ndarray, k: int
) -> int:
    """Contact points needing a mesh-to-mesh transfer (M2MComm).

    After optimally relabelling the RCB parts, every point whose FE
    and RCB owners still differ must be communicated before each
    phase. (The paper notes the *round trip* costs 2× this value.)
    """
    perm = optimal_relabel(fe_labels, rcb_labels, k)
    return int(np.count_nonzero(perm[rcb_labels] != fe_labels))


def update_comm(
    prev_labels: np.ndarray,
    new_labels: np.ndarray,
    prev_ids: np.ndarray,
    new_ids: np.ndarray,
) -> int:
    """Contact points that moved between RCB parts across a step
    (UpdComm).

    The contact-point sets of successive snapshots may differ (erosion
    exposes new surface); only points present in both are compared.
    ``*_ids`` are the (sorted, unique) global node ids the label arrays
    refer to.
    """
    prev_ids = np.asarray(prev_ids, dtype=np.int64)
    new_ids = np.asarray(new_ids, dtype=np.int64)
    common, prev_pos, new_pos = np.intersect1d(
        prev_ids, new_ids, assume_unique=True, return_indices=True
    )
    if len(common) == 0:
        return 0
    prev_l = np.asarray(prev_labels)[prev_pos]
    new_l = np.asarray(new_labels)[new_pos]
    return int(np.count_nonzero(prev_l != new_l))
