"""Process-pool backend: forked workers behind socketpairs.

The pool, supervision, recovery, the worker command loop and the
``repro.wire/1`` :class:`~repro.runtime.backends.supervised.Channel`
live in :mod:`repro.runtime.backends.supervised`, shared with the tcp
backend; this module says only how a child starts: a forked process on
the far end of a :func:`socket.socketpair`, named after its slot.  The
pool is created lazily and reused across sessions, so per-step runs
amortise startup.

A session's ``shared`` mapping rides inline in its ``open`` message
(NumPy arrays as raw out-of-band frames); each superstep then ships
only the function reference, the small ``arg`` and the ranks' pending
inbox messages, and ships back per-rank results, queued sends, ledger
records and span trees.  Superstep functions must be picklable
(module-level ``def``s); see :class:`SupervisedSession` for the
in-process fallback.
"""

from __future__ import annotations

import socket
from multiprocessing import get_context
from multiprocessing.context import BaseContext
from typing import List, Optional

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

    def _start(self, slots: List[int]) -> List[Peer]:
        """Fork one worker per slot, each behind its own socketpair."""
        peers: List[Peer] = []
        for slot in slots:
            ours, theirs = socket.socketpair()
            proc = self._ctx.Process(
                target=_worker_main,
                args=(theirs, ours),
                name=f"repro-spmd-{slot}",
                daemon=True,
            )
            proc.start()
            theirs.close()
            peers.append(Peer(proc.name, self, Channel(ours), proc))
        return peers

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ProcessBackend(workers={self.workers})"


def process_from_spec(spec: BackendSpec) -> ProcessBackend:
    """Spec factory for ``process`` (URI form:
    ``process://?workers=2&deadline=60&faults=kill@2.1``)."""
    return ProcessBackend(workers=spec.workers, **pool_options(spec))
