"""Canonical content digests for graphs and array bundles.

The service cache (``repro.service.cache``), the checkpoint integrity
check, and any future content-addressed store need one answer to "are
these two graphs *the same bytes*?" that does not depend on how the
arrays happen to be stored in memory.  :func:`digest_arrays` hashes a
named bundle of arrays into a SHA-256 hex digest over a canonical
encoding:

* arrays are visited in sorted-name order (dict iteration order is
  irrelevant),
* every signed-integer array is encoded as little-endian ``int64``,
  unsigned and boolean arrays as little-endian ``uint64``, and float
  arrays as little-endian ``float64`` — so ``int32`` input hashes
  identically to the same values in ``int64``, and big-endian
  platforms produce the digest of their little-endian twins,
* the element bytes are taken from a C-contiguous copy (strides and
  views never matter),
* each array contributes a header (name, canonical dtype, shape) so
  reshapes and name swaps change the digest even when the raw bytes
  do not.

The digest is therefore *value*-identity: two
:class:`~repro.graph.csr.CSRGraph` objects digest equal iff their
``xadj``/``adjncy``/``adjwgt``/``vwgts`` hold the same numbers in the
same order.  Permuting vertex ids changes the adjacency arrays and so
changes the digest — that is deliberate (a relabelled graph is a
different partitioning input).

Floats are hashed by their IEEE-754 bit patterns: ``-0.0`` and
``0.0`` digest differently, as do distinct NaN payloads.  Callers who
want value-folding must canonicalise before hashing.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Mapping, Optional

import numpy as np

from repro.graph.csr import CSRGraph

__all__ = [
    "DIGEST_SCHEME",
    "canonical_array",
    "digest_arrays",
    "digest_graph",
]

#: versioned scheme tag mixed into every digest; bump when the
#: canonical encoding changes so old digests can never false-match
DIGEST_SCHEME = "repro.digest/1"

#: canonical dtypes per numpy kind (little-endian, fixed width)
_CANONICAL_DTYPES = {
    "i": "<i8",
    "u": "<u8",
    "f": "<f8",
    "b": "<u8",
}


def canonical_array(values: Any) -> np.ndarray:
    """Normalise ``values`` to the canonical dtype/layout hashed by
    :func:`digest_arrays`.

    Signed integers widen to little-endian ``int64``, unsigned and
    boolean kinds to little-endian ``uint64``, floats to little-endian
    ``float64``; the result is C-contiguous.  Raises :class:`TypeError`
    for kinds with no canonical form (objects, strings, complex).
    """
    arr = np.asarray(values)
    canonical = _CANONICAL_DTYPES.get(arr.dtype.kind)
    if canonical is None:
        raise TypeError(
            f"cannot digest array of dtype {arr.dtype!r}; expected "
            f"integer, float, or bool data"
        )
    return np.ascontiguousarray(arr.astype(canonical, copy=False))


def digest_arrays(
    arrays: Mapping[str, Any],
    extra: Optional[Mapping[str, Any]] = None,
) -> str:
    """SHA-256 hex digest of a named array bundle (canonical encoding).

    ``extra`` is an optional mapping of JSON-serialisable scalars mixed
    into the digest (sorted keys, canonical separators) — used to bind
    configuration (partitioner name, k, options) to the array content.
    """
    hasher = hashlib.sha256()
    hasher.update(DIGEST_SCHEME.encode("utf-8"))
    if extra is not None:
        header = json.dumps(
            dict(extra), sort_keys=True, separators=(",", ":"),
            allow_nan=False,
        )
        hasher.update(b"\x00extra\x00")
        hasher.update(header.encode("utf-8"))
    for name in sorted(arrays):
        arr = canonical_array(arrays[name])
        meta = f"\x00{name}\x00{arr.dtype.str}\x00{arr.shape!r}\x00"
        hasher.update(meta.encode("utf-8"))
        hasher.update(arr.tobytes(order="C"))
    return hasher.hexdigest()


def digest_graph(
    graph: CSRGraph,
    extra: Optional[Mapping[str, Any]] = None,
) -> str:
    """Canonical digest of a :class:`~repro.graph.csr.CSRGraph`.

    Hashes the adjacency structure, the edge weights, and the full
    multi-constraint vertex-weight matrix; ``extra`` scalars (e.g. the
    partitioner configuration) bind into the same digest.
    """
    return digest_arrays(
        {
            "xadj": graph.xadj,
            "adjncy": graph.adjncy,
            "adjwgt": graph.adjwgt,
            "vwgts": graph.vwgts,
        },
        extra=extra,
    )
