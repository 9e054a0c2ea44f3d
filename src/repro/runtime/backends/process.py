"""Process-pool backend: forked workers behind socketpairs.

The backend owns a persistent pool of worker processes (created lazily,
reused across sessions so per-step runs amortise startup).  Its
sessions are :class:`~repro.runtime.backends.supervised.SupervisedSession`s
— supervision, recovery, the worker command loop and the
``repro.wire/1`` :class:`~repro.runtime.backends.supervised.Channel`
live in :mod:`repro.runtime.backends.supervised`, shared with the tcp
backend; this module supplies only the **pool**: ``workers`` fixed
slots, each a forked process on the far end of a
:func:`socket.socketpair` — a lost worker is terminated (escalating to
kill) and a fresh one forked into the same slot.

A session's ``shared`` mapping rides inline in its ``open`` message
(NumPy arrays as raw out-of-band frames); each superstep then ships
only the function reference, the small ``arg`` and the ranks' pending
inbox messages, and ships back per-rank results, queued sends, ledger
records and span trees.  Superstep functions must be picklable
(module-level ``def``s); see :class:`SupervisedSession` for the
in-process fallback.
"""

from __future__ import annotations

import atexit
import socket
from multiprocessing import get_context
from multiprocessing.context import BaseContext
from multiprocessing.process import BaseProcess
from typing import List, Optional, Set

from repro.runtime.backends.base import BackendSpec
from repro.runtime.backends.supervised import (
    Channel,
    Peer,
    SupervisedBackend,
    SupervisorConfig,
    pool_options,
    serve_commands,
)


def _worker_main(sock: socket.socket, parent_end: socket.socket) -> None:
    """One pool worker (runs in the child process): serve commands
    from the socket until the coordinator shuts it down or is gone."""
    # the fork copied the coordinator's end as well; holding it would
    # keep this worker's own stream open after the coordinator died
    parent_end.close()
    chan = Channel(sock)
    serve_commands(chan)
    chan.close()


class _WorkerHandle(Peer):
    """Parent-side handle to one pooled worker process."""

    def __init__(
        self, ctx: BaseContext, index: int, backend: "ProcessBackend"
    ) -> None:
        self.index = index
        ours, theirs = socket.socketpair()
        self.proc: BaseProcess = ctx.Process(
            target=_worker_main,
            args=(theirs, ours),
            name=f"repro-spmd-{index}",
            daemon=True,
        )
        self.proc.start()
        theirs.close()
        super().__init__(self.proc.name, backend, Channel(ours))

    def _status(self) -> str:
        return f" (exitcode={self.proc.exitcode})"

    def ping(self, timeout: float) -> bool:
        return self.proc.is_alive() and super().ping(timeout)

    def stop(self) -> None:
        """Graceful shutdown, escalating join → terminate → kill."""
        try:
            self.chan.send(("shutdown",))
        except OSError:
            pass
        self.proc.join(timeout=self.backend.supervisor.shutdown_grace_s)
        self.destroy()

    def destroy(self) -> None:
        cfg = self.backend.supervisor
        super().destroy()
        if self.proc.is_alive():
            self.proc.terminate()
            self.proc.join(timeout=cfg.shutdown_grace_s)
            if self.proc.is_alive():  # pragma: no cover - wedged worker
                self.proc.kill()
                self.proc.join(timeout=cfg.kill_grace_s)


class ProcessBackend(SupervisedBackend):
    """Persistent ``multiprocessing`` worker pool backend (supervised:
    see :class:`SupervisorConfig`; ``faults`` is a fault-plan text,
    see :mod:`repro.runtime.faults`)."""

    name = "process"
    peer_noun = "worker"
    pool_noun = "worker pool"

    def __init__(
        self,
        workers: Optional[int] = None,
        supervisor: Optional[SupervisorConfig] = None,
        faults: str = "",
    ) -> None:
        super().__init__(workers, supervisor, faults)
        # fork (where available) keeps pool startup in the low
        # milliseconds, which is what lets per-step sessions win
        self._ctx: BaseContext
        try:
            self._ctx = get_context("fork")
        except ValueError:  # pragma: no cover - non-POSIX
            self._ctx = get_context()
        self._pool: Optional[List[_WorkerHandle]] = None
        self._atexit_registered = False

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

    def close(self) -> None:
        if self._pool is not None:
            for worker in self._pool:
                worker.stop()
            self._pool = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ProcessBackend(workers={self.workers})"


def process_from_spec(spec: BackendSpec) -> ProcessBackend:
    """Spec factory for ``process`` (URI form:
    ``process://?workers=2&deadline=60&faults=kill@2.1``)."""
    return ProcessBackend(workers=spec.workers, **pool_options(spec))
