"""SPMD runtime: communication accounting + pluggable execution.

The paper's evaluation reports communication *counts*, so every message
a rank sends (mpi4py-style verbs: queue now, deliver at the barrier) is
recorded in a :class:`~repro.runtime.ledger.CommLedger`.  Supersteps
execute on a pluggable backend (:mod:`repro.runtime.backends`):
sequentially in-process (the reference), on a thread pool, or on a
persistent pool of worker processes — same results bit-for-bit, same
ledger totals, real concurrency when the hardware has it.  A caller
opens one session per run with
:meth:`~repro.runtime.backends.base.Backend.open_session` and runs
each superstep with :meth:`~repro.runtime.backends.base.SpmdSession.step`
— every rank's function once, then the barrier delivers the queued
messages.  The runtime has one client: the two-superstep global
contact search of §4.2–4.3
(:func:`repro.core.contact_search.parallel_contact_search`).
"""

from repro.runtime.backends import (
    Backend,
    BackendError,
    ProcessBackend,
    SerialBackend,
    SpmdContext,
    SpmdSession,
    ThreadBackend,
    resolve_backend,
    set_default_backend,
)
from repro.runtime.ledger import CommLedger, PhaseTotals

__all__ = [
    "Backend",
    "BackendError",
    "CommLedger",
    "PhaseTotals",
    "ProcessBackend",
    "SerialBackend",
    "SpmdContext",
    "SpmdSession",
    "ThreadBackend",
    "resolve_backend",
    "set_default_backend",
]
