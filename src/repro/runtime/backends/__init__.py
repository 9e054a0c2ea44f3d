"""Pluggable execution backends for the SPMD runtime.

See :mod:`repro.runtime.backends.base` for the session protocol and
``docs/PARALLELISM.md`` for the full backend model (selection, the
two peer pools over one wire channel, determinism guarantees, and how
per-rank spans surface in run reports).
"""

from repro.runtime.backends.base import (
    BACKEND_ENV,
    BACKEND_NAMES,
    Backend,
    BackendError,
    BackendLike,
    BackendSpec,
    SpmdContext,
    SpmdSession,
    build_backend,
    default_workers,
    resolve_backend,
    set_default_backend,
)
from repro.runtime.backends.process import ProcessBackend
from repro.runtime.backends.serial import SerialBackend
from repro.runtime.backends.supervised import SupervisorConfig
from repro.runtime.backends.tcp import TCPBackend
from repro.runtime.backends.thread import ThreadBackend

__all__ = [
    "BACKEND_ENV",
    "BACKEND_NAMES",
    "Backend",
    "BackendError",
    "BackendLike",
    "BackendSpec",
    "ProcessBackend",
    "SerialBackend",
    "SpmdContext",
    "SpmdSession",
    "SupervisorConfig",
    "TCPBackend",
    "ThreadBackend",
    "build_backend",
    "default_workers",
    "resolve_backend",
    "set_default_backend",
]
