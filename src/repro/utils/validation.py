"""Argument validation helpers.

The partitioner and tree-induction code sit at the bottom of deep call
stacks; failing fast with a precise message at the public boundary is
much cheaper than debugging a shape error five levels down.
"""

from __future__ import annotations

from typing import Optional, Protocol, Tuple

import numpy as np


def check_positive(name: str, value: float, strict: bool = True) -> None:
    """Validate that a scalar parameter is positive (or non-negative)."""
    if strict and value <= 0:
        raise ValueError(f"{name} must be > 0, got {value}")
    if not strict and value < 0:
        raise ValueError(f"{name} must be >= 0, got {value}")


def check_in_range(
    name: str, value: float, lo: float, hi: float, inclusive: bool = True
) -> None:
    """Validate ``lo <= value <= hi`` (or strict when ``inclusive=False``)."""
    ok = lo <= value <= hi if inclusive else lo < value < hi
    if not ok:
        op = "<=" if inclusive else "<"
        raise ValueError(f"{name} must satisfy {lo} {op} {name} {op} {hi}, got {value}")


def check_finite(name: str, arr: np.ndarray) -> np.ndarray:
    """``arr`` as ``float64``; :class:`ValueError` naming ``name`` if
    any entry is NaN or infinite."""
    arr = np.asarray(arr, dtype=np.float64)
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must be finite")
    return arr


def check_array(
    name: str,
    arr: np.ndarray,
    ndim: Optional[int] = None,
    shape: Optional[Tuple[Optional[int], ...]] = None,
    dtype_kind: Optional[str] = None,
) -> np.ndarray:
    """Validate an ndarray's rank, shape, and dtype kind.

    ``shape`` entries of ``None`` are wildcards. ``dtype_kind`` matches
    ``arr.dtype.kind`` against any character in the string (e.g. ``"iu"``
    for any integer type, ``"f"`` for floats).
    """
    arr = np.asarray(arr)
    if ndim is not None and arr.ndim != ndim:
        raise ValueError(f"{name} must have ndim={ndim}, got ndim={arr.ndim}")
    if shape is not None:
        if arr.ndim != len(shape):
            raise ValueError(
                f"{name} must have shape {shape}, got {arr.shape}"
            )
        for want, got in zip(shape, arr.shape):
            if want is not None and want != got:
                raise ValueError(
                    f"{name} must have shape {shape}, got {arr.shape}"
                )
    if dtype_kind is not None and arr.dtype.kind not in dtype_kind:
        raise ValueError(
            f"{name} must have dtype kind in {dtype_kind!r}, got {arr.dtype}"
        )
    return arr


def check_labels(
    name: str, labels: np.ndarray, n_labels: int, size: Optional[int] = None
) -> np.ndarray:
    """Validate an integer label vector with values in ``[0, n_labels)``.

    Used for partition vectors and tree-induction targets; ``size``
    optionally pins the expected length (e.g. one label per point).
    """
    labels = check_array(name, labels, ndim=1, dtype_kind="iu")
    if size is not None and len(labels) != size:
        raise ValueError(
            f"{name} and data lengths differ: expected {size}, "
            f"got {len(labels)}"
        )
    if labels.size and (labels.min() < 0 or labels.max() >= n_labels):
        raise ValueError(
            f"{name} must lie in [0, {n_labels}), got range "
            f"[{labels.min()}, {labels.max()}]"
        )
    return labels


def check_csr_arrays(graph: "HasCSRArrays") -> None:
    """Cheap O(1)/O(n) validation of a CSR graph at a public boundary.

    Checks the array contracts the partitioning kernels assume —
    integer dtype, contiguity, aligned lengths, monotone offsets,
    non-negative multi-constraint weights — without the O(m log m)
    symmetry check of :meth:`repro.graph.csr.CSRGraph.validate`.
    """
    xadj = check_array("xadj", graph.xadj, ndim=1, dtype_kind="iu")
    adjncy = check_array("adjncy", graph.adjncy, ndim=1, dtype_kind="iu")
    adjwgt = check_array("adjwgt", graph.adjwgt, ndim=1, dtype_kind="iu")
    vwgts = check_array("vwgts", graph.vwgts, ndim=2, dtype_kind="iu")
    for name, arr in (
        ("xadj", xadj), ("adjncy", adjncy),
        ("adjwgt", adjwgt), ("vwgts", vwgts),
    ):
        if not arr.flags["C_CONTIGUOUS"]:
            raise ValueError(f"{name} must be C-contiguous")
    if len(xadj) == 0 or xadj[0] != 0:
        raise ValueError("xadj must start at 0")
    if xadj[-1] != len(adjncy):
        raise ValueError("xadj[-1] must equal len(adjncy)")
    if len(adjwgt) != len(adjncy):
        raise ValueError("adjwgt and adjncy lengths differ")
    if vwgts.shape[0] != len(xadj) - 1:
        raise ValueError(
            f"vwgts has {vwgts.shape[0]} rows for {len(xadj) - 1} vertices"
        )
    if np.any(np.diff(xadj) < 0):
        raise ValueError("xadj must be non-decreasing")
    if vwgts.size and vwgts.min() < 0:
        raise ValueError("vwgts must be non-negative")


class HasCSRArrays(Protocol):
    """Structural type for :func:`check_csr_arrays` inputs."""

    xadj: np.ndarray
    adjncy: np.ndarray
    adjwgt: np.ndarray
    vwgts: np.ndarray
