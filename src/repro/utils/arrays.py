"""Vectorised array helpers shared across subsystems."""

from __future__ import annotations

from typing import Tuple

import numpy as np


def counts_per_label(labels: np.ndarray, n_labels: int) -> np.ndarray:
    """Count occurrences of each label in ``[0, n_labels)``.

    Thin wrapper over :func:`numpy.bincount` that guarantees the result
    length even when trailing labels are absent.
    """
    labels = np.asarray(labels)
    if labels.size and (labels.min() < 0 or labels.max() >= n_labels):
        raise ValueError(
            f"labels must lie in [0, {n_labels}), got range "
            f"[{labels.min()}, {labels.max()}]"
        )
    return np.bincount(labels, minlength=n_labels)


def sum_by_label(
    labels: np.ndarray, values: np.ndarray, n_labels: int
) -> np.ndarray:
    """Exact ``int64`` sums of ``values`` per label.

    ``values`` is ``(n,)`` or ``(n, c)`` integers; the result is
    ``(n_labels,)`` or ``(n_labels, c)``. ``np.bincount`` accumulates
    its weights in ``float64``, which is exact while every partial sum
    is an integer below 2**53, so that bound is checked and anything
    larger takes ``np.add.at`` (exact, and an order of magnitude slower
    before NumPy 1.25).
    """
    values = np.asarray(values, dtype=np.int64)
    cols = values if values.ndim == 2 else values[:, None]
    out = np.zeros((n_labels, cols.shape[1]), dtype=np.int64)
    if np.abs(cols).sum(dtype=np.float64) < 2.0**53:
        for j in range(cols.shape[1]):
            out[:, j] = np.bincount(
                labels, weights=cols[:, j], minlength=n_labels
            )
    else:
        np.add.at(out, labels, cols)
    return out if values.ndim == 2 else out.ravel()


def relabel_contiguous(labels: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Map arbitrary integer labels onto ``0..u-1`` preserving order.

    Returns ``(new_labels, uniques)`` where ``uniques[new] == old``.
    """
    uniques, new = np.unique(np.asarray(labels), return_inverse=True)
    return new.astype(np.int64), uniques
