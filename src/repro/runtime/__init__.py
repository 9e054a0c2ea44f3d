"""SPMD runtime: communication accounting + pluggable execution.

The paper's evaluation reports communication *counts*, so the runtime
began as a deterministic single-process simulator: a rank-addressed
communicator with mpi4py-style verbs whose every message is recorded
in a :class:`~repro.runtime.ledger.CommLedger`.  The ledger and verbs
remain, but supersteps now execute on a pluggable backend
(:mod:`repro.runtime.backends`): sequentially in-process (the
reference), on a thread pool, or on a persistent pool of worker
processes — same results bit-for-bit, same ledger totals, real
concurrency when the hardware has it.
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
from repro.runtime.comm import RankContext, SimComm
from repro.runtime.executor import spmd_run
from repro.runtime.ledger import CommLedger, PhaseTotals

__all__ = [
    "Backend",
    "BackendError",
    "CommLedger",
    "PhaseTotals",
    "ProcessBackend",
    "RankContext",
    "SerialBackend",
    "SimComm",
    "SpmdContext",
    "SpmdSession",
    "ThreadBackend",
    "resolve_backend",
    "set_default_backend",
    "spmd_run",
]
