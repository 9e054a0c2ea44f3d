"""Process-pool backend: the pipe transport + shared-memory arrays.

The backend owns a persistent pool of worker processes (created lazily,
reused across sessions so per-step runs amortise startup).  Its
sessions are :class:`~repro.runtime.backends.supervised.SupervisedSession`s
— supervision, recovery and the worker command loop live in
:mod:`repro.runtime.backends.supervised`; this module supplies only
what is specific to the transport:

* the **peer**: a forked worker behind a duplex pipe carrying
  ``repro.wire/1`` messages (length-prefixed, chunked frames, NumPy
  arrays out-of-band);
* the **pool**: ``workers`` fixed slots — a lost worker is terminated
  (escalating to kill) and a fresh one forked into the same slot;
* **shared memory**: a session's ``shared`` mapping is distributed
  once — NumPy arrays are placed in
  :mod:`multiprocessing.shared_memory` segments and attached zero-copy
  in every worker; everything else rides along pickled.  Across
  sessions with the same array layout (the driver's step loop), the
  backend reuses the previous session's segment **plan** — values are
  copied into the existing segments, names stay stable, and workers
  re-attach from a local cache instead of mmap-ing anew
  (:class:`_SharedPlan`).

Each superstep then ships only the function reference, the small
``arg``, and the ranks' pending inbox messages over the worker pipes,
and ships back per-rank results, queued sends, ledger records, and
span trees.  Superstep functions must be picklable (module-level
``def``s); see :class:`SupervisedSession` for the in-process fallback.
"""

from __future__ import annotations

import atexit
from functools import partial
from multiprocessing import get_context
from multiprocessing.connection import Connection
from multiprocessing.context import BaseContext
from multiprocessing.process import BaseProcess
from multiprocessing.shared_memory import SharedMemory
from typing import Any, Callable, Dict, List, Mapping, Optional, Set, Tuple

import numpy as np

from repro.runtime.backends.base import BackendSpec
from repro.runtime.backends.supervised import (
    Peer,
    PeerTimeout,
    SupervisedBackend,
    SupervisorConfig,
    serve_commands,
)
from repro.runtime.backends.wire import pipe_recv, pipe_send

#: (key, shm segment name, dtype str, shape) describing one shared array
ArraySpec = Tuple[str, str, str, Tuple[int, ...]]

# ----------------------------------------------------------------------
# shared-memory array distribution
# ----------------------------------------------------------------------


class _SharedPlan:
    """A reusable shared-memory layout (ROADMAP item 1: amortise the
    process backend's per-step transfer setup).

    The driver opens one SPMD session per step, and step after step the
    ``shared`` mapping has the same arrays with the same dtypes and
    shapes — only the values change.  Instead of creating (and later
    unlinking) fresh segments per session, the backend caches the last
    session's plan: when the next session's layout matches, the new
    values are copied into the **existing** segments and the workers
    re-attach by the same names (served from their attachment cache, so
    re-opening is a dict lookup, not an mmap).  ``in_use`` guards
    concurrent sessions — a second live session falls back to the
    uncached path.
    """

    __slots__ = ("layout", "specs", "segments", "views", "in_use")

    def __init__(
        self,
        layout: Tuple[Tuple[str, str, Tuple[int, ...]], ...],
        specs: List[ArraySpec],
        segments: List[SharedMemory],
        views: List[np.ndarray],
    ) -> None:
        self.layout = layout
        self.specs = specs
        self.segments = segments
        self.views = views
        self.in_use = False

    def unlink(self) -> None:
        self.views = []
        for seg in self.segments:
            seg.close()
            try:
                seg.unlink()
            except FileNotFoundError:  # pragma: no cover
                pass
        self.segments = []


def _shared_layout(
    shared: Mapping[str, Any],
) -> Tuple[
    Dict[str, Any],
    List[Tuple[str, np.ndarray]],
    Tuple[Tuple[str, str, Tuple[int, ...]], ...],
]:
    """Split ``shared`` into inline values and segment-worthy arrays,
    with the arrays' reuse-comparable layout (key, dtype, shape)."""
    inline: Dict[str, Any] = {}
    arrays: List[Tuple[str, np.ndarray]] = []
    for key, value in shared.items():
        if isinstance(value, np.ndarray) and value.nbytes > 0:
            arrays.append((key, value))
        else:
            inline[key] = value
    layout = tuple(
        (key, value.dtype.str, value.shape) for key, value in arrays
    )
    return inline, arrays, layout


def _tracker_inherited() -> bool:
    """Whether this (forked) process shares the parent's resource
    tracker.  Attach-side registrations are then idempotent no-ops in
    the parent's tracker and must NOT be unregistered — that would
    delete the parent's own bookkeeping and make its ``unlink`` noisy.
    """
    try:  # pragma: no cover - tracker internals differ by version
        from multiprocessing import resource_tracker

        fd = getattr(resource_tracker._resource_tracker, "_fd", None)  # type: ignore[attr-defined]
        return fd is not None
    except Exception:
        return False


#: worker-side attachment-cache capacity (distinct segment names; the
#: backend's plan cache is single-slot, so live names stay far below
#: this — eviction only ever hits retired plans)
ATTACH_CACHE_MAX = 64


def _attach_shared(
    inline: Dict[str, Any],
    specs: List[ArraySpec],
    unregister: bool,
    cache: Optional[Dict[str, SharedMemory]] = None,
) -> Tuple[Dict[str, Any], List[SharedMemory]]:
    """Worker-side: rebuild the shared mapping, attaching arrays
    zero-copy from their shared-memory segments (read-only views).

    With ``cache`` (plan-backed sessions), attachments persist across
    sessions keyed by segment name — re-opening a reused plan is a dict
    hit instead of an mmap; stale entries are evicted FIFO.
    """
    shared = dict(inline)
    segments: List[SharedMemory] = []
    for key, name, dtype, shape in specs:
        seg = cache.get(name) if cache is not None else None
        if seg is None:
            seg = SharedMemory(name=name)
            # the parent owns the segment's lifetime; when this process
            # has its own resource tracker (spawn), unregister the
            # attachment so worker exit neither unlinks the segment
            # early nor warns about a "leak" (with an inherited tracker
            # the registration already belongs to the parent and is
            # left alone)
            if unregister:
                try:  # pragma: no cover - tracker internals differ
                    from multiprocessing import resource_tracker

                    resource_tracker.unregister(seg._name, "shared_memory")  # type: ignore[attr-defined]
                except Exception:
                    pass
            if cache is not None:
                cache[name] = seg
                while len(cache) > ATTACH_CACHE_MAX:
                    _oldest = next(iter(cache))
                    cache.pop(_oldest).close()
        arr: np.ndarray = np.ndarray(
            shape, dtype=np.dtype(dtype), buffer=seg.buf
        )
        arr.flags.writeable = False
        shared[key] = arr
        segments.append(seg)
    return shared, segments


# ----------------------------------------------------------------------
# worker process
# ----------------------------------------------------------------------


def _worker_main(conn: Connection) -> None:
    """One pool worker (runs in the child process): serve commands
    from the pipe, attaching shared arrays from their segments."""
    attach_cache: Dict[str, SharedMemory] = {}
    unregister_shared = not _tracker_inherited()

    def attach(
        payload: Any,
    ) -> Tuple[Mapping[str, Any], Callable[[], None]]:
        inline, specs, cached = payload
        shared, segments = _attach_shared(
            inline,
            specs,
            unregister_shared,
            attach_cache if cached else None,
        )

        def release() -> None:
            # cached attachments belong to the worker's attachment
            # cache and outlive the session (plan reuse)
            if not cached:
                for seg in segments:
                    seg.close()

        return shared, release

    serve_commands(
        lambda: pipe_recv(conn)[0],
        lambda reply: pipe_send(conn, reply),
        attach,
    )
    for seg in attach_cache.values():
        seg.close()
    conn.close()


class _WorkerHandle(Peer):
    """Parent-side handle to one pooled worker process."""

    def __init__(
        self, ctx: BaseContext, index: int, backend: "ProcessBackend"
    ) -> None:
        self.index = index
        parent_conn, child_conn = ctx.Pipe(duplex=True)
        self.proc: BaseProcess = ctx.Process(
            target=_worker_main,
            args=(child_conn,),
            name=f"repro-spmd-{index}",
            daemon=True,
        )
        self.proc.start()
        child_conn.close()
        self.conn = parent_conn
        super().__init__(self.proc.name, backend)

    def _write(self, msg: Any) -> int:
        return pipe_send(self.conn, msg)

    def _read(self, timeout: Optional[float]) -> Tuple[Any, int]:
        if timeout is not None and not self.conn.poll(timeout):
            raise PeerTimeout()
        return pipe_recv(self.conn)

    def _status(self) -> str:
        return f" (exitcode={self.proc.exitcode})"

    def ping(self, timeout: float) -> bool:
        return self.proc.is_alive() and super().ping(timeout)

    def stop(self) -> None:
        """Graceful shutdown, escalating join → terminate → kill."""
        try:
            self._write(("shutdown",))
        except OSError:
            pass
        self.proc.join(timeout=self.backend.supervisor.shutdown_grace_s)
        self.destroy()

    def destroy(self) -> None:
        cfg = self.backend.supervisor
        try:
            self.conn.close()
        except OSError:  # pragma: no cover - already closed
            pass
        if self.proc.is_alive():
            self.proc.terminate()
            self.proc.join(timeout=cfg.shutdown_grace_s)
            if self.proc.is_alive():  # pragma: no cover - wedged worker
                self.proc.kill()
                self.proc.join(timeout=cfg.kill_grace_s)


# ----------------------------------------------------------------------
# backend
# ----------------------------------------------------------------------


class ProcessBackend(SupervisedBackend):
    """Persistent ``multiprocessing`` worker pool backend (supervised:
    see :class:`SupervisorConfig`)."""

    name = "process"
    peer_noun = "worker"
    pool_noun = "worker pool"

    def __init__(
        self,
        workers: Optional[int] = None,
        start_method: Optional[str] = None,
        supervisor: Optional[SupervisorConfig] = None,
    ) -> None:
        super().__init__(workers, supervisor)
        if start_method is None:
            # fork (where available) keeps pool startup in the low
            # milliseconds, which is what lets per-step sessions win
            try:
                get_context("fork")
                start_method = "fork"
            except ValueError:  # pragma: no cover - non-POSIX
                start_method = None
        self._ctx = get_context(start_method)
        self._pool: Optional[List[_WorkerHandle]] = None
        self._atexit_registered = False
        self._shared_plan: Optional[_SharedPlan] = None
        #: shared-memory segments created / reused across sessions
        #: (plan reuse — ROADMAP item 1 transfer-cost attack)
        self.shm_creates = 0
        self.shm_reuses = 0

    # -- the pool ------------------------------------------------------
    def members(self) -> List[Peer]:
        if self._pool is None:
            self._pool = [
                _WorkerHandle(self._ctx, i, self)
                for i in range(self.workers)
            ]
            if not self._atexit_registered:
                atexit.register(self.close)
                self._atexit_registered = True
        return list(self._pool)

    def replace(self, lost: Set[Peer]) -> int:
        """Fork a fresh worker into the slot of every lost one (the old
        process is terminated, escalating to kill).  Handles another
        session already rotated out of the pool need nothing."""
        replaced = 0
        pool = self._pool or []
        for slot, worker in enumerate(pool):
            if worker in lost:
                worker.destroy()
                pool[slot] = _WorkerHandle(self._ctx, worker.index, self)
                replaced += 1
        self.reconnects += replaced
        return replaced

    # -- shared-memory plan cache --------------------------------------
    def pack_shared(
        self, shared: Mapping[str, Any]
    ) -> Tuple[Any, Callable[[], None]]:
        """``open`` payload ``(inline values, array specs, cached)``:
        the arrays travel as shared-memory segment names, attached
        worker-side by :func:`_worker_main`'s ``attach`` hook.  The
        cached plan is reused when the array layout is unchanged;
        otherwise the segments are either cached as the new plan
        (stable names for the next session) or owned by this session
        and unlinked at its release."""
        inline, arrays, layout = _shared_layout(shared)
        plan = self._shared_plan
        if (
            plan is not None
            and not plan.in_use
            and plan.layout == layout
        ):
            for view, (_key, value) in zip(plan.views, arrays):
                view[...] = value
            plan.in_use = True
            self.shm_reuses += len(plan.segments)
            return (
                (inline, list(plan.specs), True),
                partial(self._release_shared_plan, plan),
            )
        specs: List[ArraySpec] = []
        segments: List[SharedMemory] = []
        views: List[np.ndarray] = []
        for key, value in arrays:
            try:
                seg = SharedMemory(create=True, size=value.nbytes)
            except OSError:
                # the platform refuses shared memory: this array rides
                # along pickled, and the partial layout is not cached
                inline[key] = value
                continue
            view: np.ndarray = np.ndarray(
                value.shape, dtype=value.dtype, buffer=seg.buf
            )
            view[...] = value
            specs.append((key, seg.name, value.dtype.str, value.shape))
            segments.append(seg)
            views.append(view)
        self.shm_creates += len(segments)
        fresh = _SharedPlan(layout, specs, segments, views)
        if (
            not segments
            or len(segments) < len(arrays)
            or (plan is not None and plan.in_use)
        ):
            # nothing worth caching, or another live session holds the
            # cached plan: this session owns the segments
            return (inline, specs, False), fresh.unlink
        if plan is not None:
            plan.unlink()  # layout changed: retire the stale plan
        fresh.in_use = True
        self._shared_plan = fresh
        return (
            (inline, list(specs), True),
            partial(self._release_shared_plan, fresh),
        )

    def _release_shared_plan(self, plan: _SharedPlan) -> None:
        """A session finished with ``plan``: keep it cached for the
        next matching session (unlink only if it was displaced)."""
        if plan is self._shared_plan:
            plan.in_use = False
        else:  # pragma: no cover - displaced while in use
            plan.unlink()

    def close(self) -> None:
        if self._shared_plan is not None:
            self._shared_plan.unlink()
            self._shared_plan = None
        if self._pool is not None:
            for worker in self._pool:
                worker.stop()
            self._pool = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ProcessBackend(workers={self.workers})"


def process_from_spec(spec: BackendSpec) -> ProcessBackend:
    """Registry factory for ``process``."""
    return ProcessBackend(workers=spec.workers)

