"""Content-addressed result cache: memory LRU over an optional disk tier.

The service keys every finished ``PartitionResult`` by a canonical
content digest (:func:`result_cache_key`) of the *inputs* that
determine it: the snapshot's node coordinates, connectivity, body ids,
and contact geometry, bound to the partitioner name, ``k``, and the
normalised configuration via the digest's ``extra`` channel.  Two
requests with bit-identical inputs therefore share one cache slot no
matter how their JSON bodies were spelled, while any change to the
mesh, the contact surface, or a single knob produces a fresh key.

Storage is two-tier:

* a bounded in-memory LRU (``capacity`` entries) holding detached
  :class:`~repro.core.partitioner.PartitionResult` copies — hits are
  O(1) and return the stored object's arrays bit-identically;
* an optional write-through disk tier (``disk_dir``) of ``.npz``
  entries, so results survive process restarts and memory evictions.
  A disk entry that fails to load or whose recorded key disagrees with
  its filename is *removed and treated as a miss* — corruption causes
  a recompute, never a crash.

All operations are thread-safe (executor workers touch the cache
concurrently).  :class:`CacheStats` counters feed the service
``/metrics`` endpoint and the per-run ``RunReport``.
"""

from __future__ import annotations

import json
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, Mapping, Optional

import numpy as np

from repro.core.partitioner import PartitionResult, make_result
from repro.graph.digest import digest_arrays
from repro.service.schemas import DIAGNOSTICS
from repro.sim.sequence import ContactSnapshot
from repro.utils.npz import read_npz
from repro.utils.schema import const, integer, obj, string, validate

__all__ = [
    "CacheStats",
    "ResultCache",
    "result_cache_key",
]

#: bump when the on-disk entry layout changes (2: one digest over every
#: array of the entry, so a lost ``diag_*`` member is caught too)
_DISK_SCHEMA = 2

#: the ``meta`` member of a disk entry; the arrays sit beside it
_DISK_META = obj(
    {
        "schema": const(_DISK_SCHEMA),
        "key": string(),
        "method": string(),
        "k": integer(1),
        "diag_scalars": DIAGNOSTICS,
        "arrays_digest": string(),
    }
)


def result_cache_key(
    snapshot: ContactSnapshot,
    partitioner: str,
    k: int,
    config: Optional[Mapping[str, Any]] = None,
) -> str:
    """Canonical content key for one partitioning problem.

    Hashes every array the registered partitioners read — node
    coordinates (ML+RCB geometry), element connectivity and body ids
    (graph structure and constraint weights), and the contact
    faces/owners/nodes (contact constraint, a-priori virtual edges) —
    and binds the partitioner name, part count, and configuration into
    the same digest.  The spelled-out array set deliberately over-keys
    for any single method: a hit guarantees *every* method would
    reproduce the stored result bit-for-bit.
    """
    mesh = snapshot.mesh
    body_id = mesh.body_id
    if body_id is None:  # pragma: no cover - Mesh.__post_init__ fills it
        body_id = np.zeros(mesh.num_elements, dtype=np.int64)
    return digest_arrays(
        {
            "nodes": mesh.nodes,
            "elements": mesh.elements,
            "body_id": body_id,
            "contact_faces": snapshot.contact_faces,
            "contact_face_owner": snapshot.contact_face_owner,
            "contact_nodes": snapshot.contact_nodes,
        },
        extra={
            "partitioner": partitioner,
            "k": int(k),
            "elem_type": mesh.elem_type,
            "config": dict(config or {}),
        },
    )


@dataclass
class CacheStats:
    """Monotonic cache counters (exposed on ``/metrics``)."""

    hits: int = 0
    misses: int = 0
    puts: int = 0
    evictions: int = 0
    disk_hits: int = 0
    disk_corrupt: int = 0
    disk_write_errors: int = 0

    def as_dict(self) -> Dict[str, int]:
        """The counters as a plain dict (report/metrics payload)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "puts": self.puts,
            "evictions": self.evictions,
            "disk_hits": self.disk_hits,
            "disk_corrupt": self.disk_corrupt,
            "disk_write_errors": self.disk_write_errors,
        }


def _detach(result: PartitionResult) -> PartitionResult:
    """A self-contained copy safe to store: own label array, plain
    diagnostics, no ledger/span/partitioner references."""
    labels = np.ascontiguousarray(result.labels).copy()
    labels.setflags(write=False)
    diag: Dict[str, Any] = {}
    for key, value in result.diagnostics.items():
        if isinstance(value, np.ndarray):
            frozen = value.copy()
            frozen.setflags(write=False)
            diag[key] = frozen
        else:
            diag[key] = value
    return make_result(
        method=result.method,
        k=result.k,
        labels=labels,
        diagnostics=diag,
        ledger=None,
        spans=None,
    )


class ResultCache:
    """Bounded LRU of detached partition results, keyed by content
    digest, with an optional write-through disk tier."""

    def __init__(
        self,
        capacity: int = 64,
        disk_dir: Optional[str] = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("cache capacity must be >= 1")
        self.capacity = capacity
        self.disk_dir = disk_dir
        self.stats = CacheStats()
        self._entries: "OrderedDict[str, PartitionResult]" = OrderedDict()
        self._lock = threading.Lock()
        if disk_dir is not None:
            os.makedirs(disk_dir, exist_ok=True)

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    # ------------------------------------------------------------------
    def get(self, key: str) -> Optional[PartitionResult]:
        """The cached result for ``key``, or ``None`` (a miss).

        Memory hits refresh LRU recency; disk hits are promoted into
        memory.  Unreadable disk entries are deleted and count as
        ``disk_corrupt`` misses.
        """
        entry = self.get_memory(key)
        if entry is not None:
            return entry
        entry = self._load_disk(key)
        with self._lock:
            if entry is not None:
                self.stats.hits += 1
                self.stats.disk_hits += 1
                self._insert(key, entry)
            else:
                self.stats.misses += 1
        return entry

    def get_memory(self, key: str) -> Optional[PartitionResult]:
        """The memory tier's result for ``key``, or ``None``.

        A hit counts and refreshes recency as in :meth:`get`; a miss
        counts nothing (the caller falls back to :meth:`get`, which
        counts it) and never reads the disk tier.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self.stats.hits += 1
            return entry

    def put(self, key: str, result: PartitionResult) -> PartitionResult:
        """Store a detached copy of ``result`` under ``key``; returns
        the stored copy (what subsequent hits will see)."""
        entry = _detach(result)
        with self._lock:
            self.stats.puts += 1
            self._insert(key, entry)
        if self.disk_dir is not None:
            # a failed disk write (full/read-only disk) must not turn a
            # successfully computed result into a failed job attempt:
            # the in-memory entry is valid either way
            try:
                self._write_disk(key, entry)
            except OSError:
                with self._lock:
                    self.stats.disk_write_errors += 1
        return entry

    def clear(self) -> None:
        """Drop all in-memory entries (counters and disk survive)."""
        with self._lock:
            self._entries.clear()

    # ------------------------------------------------------------------
    def _insert(self, key: str, entry: PartitionResult) -> None:
        """Insert under the held lock, evicting the LRU tail."""
        self._entries[key] = entry
        self._entries.move_to_end(key)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)
            self.stats.evictions += 1

    def _path(self, key: str) -> str:
        if self.disk_dir is None:  # pragma: no cover - guarded by callers
            raise RuntimeError("cache has no disk tier")
        return os.path.join(self.disk_dir, f"{key}.npz")

    def _write_disk(self, key: str, entry: PartitionResult) -> None:
        scalars: Dict[str, Any] = {}
        arrays: Dict[str, np.ndarray] = {"labels": entry.labels}
        for name, value in entry.diagnostics.items():
            if isinstance(value, np.ndarray):
                arrays[f"diag_{name}"] = value
            else:
                scalars[name] = value
        meta = {
            "schema": _DISK_SCHEMA,
            "key": key,
            "method": entry.method,
            "k": entry.k,
            "diag_scalars": scalars,
            "arrays_digest": digest_arrays(arrays),
        }
        path = self._path(key)
        tmp = f"{path}.tmp-{os.getpid()}-{threading.get_ident()}"
        with open(tmp, "wb") as fh:
            np.savez_compressed(
                fh, meta=np.array(json.dumps(meta)), **arrays
            )
        os.replace(tmp, path)

    def _load_disk(self, key: str) -> Optional[PartitionResult]:
        if self.disk_dir is None:
            return None
        path = self._path(key)
        if not os.path.exists(path):
            return None
        try:
            data = read_npz(path, required=("meta", "labels"))
            meta = validate(_DISK_META, json.loads(str(data["meta"])))
            if meta["key"] != key:
                raise ValueError("disk entry key mismatch")
            del data["meta"]
            if digest_arrays(data) != meta["arrays_digest"]:
                raise ValueError("disk entry payload digest mismatch")
            labels = np.ascontiguousarray(data.pop("labels"))
            diag: Dict[str, Any] = meta["diag_scalars"]
            for name, value in data.items():
                if name.startswith("diag_"):
                    diag[name[len("diag_"):]] = np.ascontiguousarray(value)
        except (OSError, ValueError) as exc:
            with self._lock:
                self.stats.disk_corrupt += 1
            self._discard_corrupt(path, exc)
            return None
        labels.setflags(write=False)
        return make_result(
            method=meta["method"],
            k=meta["k"],
            labels=labels,
            diagnostics=diag,
            ledger=None,
            spans=None,
        )

    @staticmethod
    def _discard_corrupt(path: str, exc: Exception) -> None:
        try:
            os.remove(path)
        except OSError:  # pragma: no cover - best-effort cleanup
            pass
