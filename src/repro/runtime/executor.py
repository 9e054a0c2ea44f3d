"""Bulk-synchronous SPMD execution over the pluggable backends.

``spmd_run`` executes a list of superstep functions; within each
superstep every rank's function runs once — sequentially in rank order
on the default :class:`~repro.runtime.backends.serial.SerialBackend`,
concurrently on the thread or process backends — then the barrier
delivers the queued messages.  Return values are collected per
superstep per rank, so drivers can fold local results into global
answers — the analogue of a gather.

Callers that decide between supersteps, or pass each one an argument,
use the underlying
:meth:`~repro.runtime.backends.base.Backend.open_session` /
:meth:`~repro.runtime.backends.base.SpmdSession.step` protocol
directly; ``spmd_run`` is the convenience wrapper for straight-line
superstep pipelines.
"""

from __future__ import annotations

from functools import partial
from typing import Any, Callable, List, Mapping, Optional, Sequence

from repro.obs.tracer import TracerBase
from repro.runtime.backends.base import (
    BackendLike,
    SpmdContext,
    call_without_arg,
    resolve_backend,
)
from repro.runtime.ledger import CommLedger

SuperstepFn = Callable[[SpmdContext], Any]


def spmd_run(
    size: int,
    supersteps: Sequence[SuperstepFn],
    ledger: Optional[CommLedger] = None,
    backend: BackendLike = None,
    tracer: Optional[TracerBase] = None,
    shared: Optional[Mapping[str, Any]] = None,
) -> List[List[Any]]:
    """Run ``supersteps`` on a ``size``-rank SPMD machine.

    Returns ``results[step][rank]``. All ranks execute superstep ``i``
    before any executes ``i+1`` (messages sent in step ``i`` are
    readable from the inbox in step ``i+1``).

    ``backend`` selects where ranks execute (instance, spec string like
    ``"process:4"``, or ``None`` for the configured default — see
    :func:`repro.runtime.backends.resolve_backend`). ``shared`` is a
    read-only mapping distributed to every rank as ``ctx.shared``; the
    process and tcp backends ship it once per session, NumPy arrays as
    raw frames outside the pickle.
    Superstep functions must be module-level (picklable) to execute on
    the process pool.
    """
    if size < 1:
        raise ValueError(
            f"spmd_run needs at least one rank, got size={size}"
        )
    resolved = resolve_backend(backend)
    results: List[List[Any]] = []
    with resolved.open_session(
        size, ledger=ledger, tracer=tracer, shared=shared
    ) as session:
        for fn in supersteps:
            results.append(session.step(partial(call_without_arg, fn)))
    return results
