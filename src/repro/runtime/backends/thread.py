"""Thread-pool backend: concurrent ranks, one process.

Ranks of a superstep run concurrently on a persistent
:class:`~concurrent.futures.ThreadPoolExecutor`.  Python's GIL keeps
pure-Python work serialised, so this backend exists to exercise the
synchronisation protocol (are supersteps really side-effect-free per
rank? does the rank-ordered merge hold under arbitrary interleaving?)
cheaply, and to overlap NumPy/SciPy kernels that release the GIL.

Superstep functions must confine mutation to ``ctx.state``.
``ctx.shared`` is the session's read-only view
(:func:`~repro.runtime.backends.base.read_only_shared`, inherited from
the serial session), so a rank that writes a shared array or assigns
a key raises instead of racing the others.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor, wait
from typing import Any, List, Mapping, Optional

from repro.obs.tracer import TracerBase
from repro.runtime.backends.base import (
    Backend,
    BackendSpec,
    Message,
    RankOutcome,
    SpmdSession,
    StepFn,
    default_workers,
    run_rank_step,
)
from repro.runtime.backends.serial import SerialSession
from repro.runtime.ledger import CommLedger


class ThreadSession(SerialSession):
    """A :class:`SerialSession` (same per-rank state) whose ranks run
    on the backend's thread pool."""

    def __init__(
        self,
        size: int,
        ledger: Optional[CommLedger],
        tracer: Optional[TracerBase],
        shared: Optional[Mapping[str, Any]],
        pool: ThreadPoolExecutor,
    ) -> None:
        super().__init__(size, ledger, tracer, shared)
        self._pool = pool

    def _run_step(
        self, fn: StepFn, arg: Any, inboxes: List[List[Message]]
    ) -> List[RankOutcome]:
        futures = [
            self._pool.submit(
                run_rank_step, fn, arg, rank, self.size, self._shared,
                self._states[rank], inboxes[rank], self._trace,
            )
            for rank in range(self.size)
        ]
        # every rank finishes before the first failure (in rank order)
        # propagates, so no rank still runs once the caller sees it
        wait(futures)
        return [future.result() for future in futures]


class ThreadBackend(Backend):
    """Run ranks concurrently on a persistent thread pool."""

    name = "thread"

    def __init__(self, workers: Optional[int] = None) -> None:
        if workers is None:
            workers = default_workers()
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self._pool: Optional[ThreadPoolExecutor] = None

    def _ensure_pool(self) -> ThreadPoolExecutor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.workers,
                thread_name_prefix="repro-spmd",
            )
        return self._pool

    def open_session(
        self,
        size: int,
        ledger: Optional[CommLedger] = None,
        tracer: Optional[TracerBase] = None,
        shared: Optional[Mapping[str, Any]] = None,
    ) -> SpmdSession:
        return ThreadSession(
            size, ledger, tracer, shared, self._ensure_pool()
        )

    def close(self) -> None:
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ThreadBackend(workers={self.workers})"


def thread_from_spec(spec: BackendSpec) -> ThreadBackend:
    """Spec factory for ``thread`` (no options: ``faults=`` needs a
    worker to lose, so only the pools accept it)."""
    spec.typed_options({})
    return ThreadBackend(workers=spec.workers)
