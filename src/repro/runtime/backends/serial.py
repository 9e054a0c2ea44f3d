"""Sequential in-process backend — the reference semantics.

Ranks execute one after the other in rank order inside the calling
process.  Every other backend is validated against this one: the
rank-ordered merge in :class:`~repro.runtime.backends.base.SpmdSession`
makes their results bit-identical to serial execution.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Optional

from repro.obs.tracer import TracerBase
from repro.runtime.backends.base import (
    Backend,
    BackendSpec,
    Message,
    RankOutcome,
    SpmdSession,
    StepFn,
    read_only_shared,
    run_rank_step,
)
from repro.runtime.ledger import CommLedger


class SerialSession(SpmdSession):
    """Session whose ranks run sequentially in the calling process."""

    def __init__(
        self,
        size: int,
        ledger: Optional[CommLedger],
        tracer: Optional[TracerBase],
        shared: Optional[Mapping[str, Any]],
    ) -> None:
        super().__init__(size, ledger, tracer)
        self._shared = read_only_shared(shared)
        self._states: List[Dict[str, Any]] = [{} for _ in range(size)]
        self._trace = bool(getattr(self.tracer, "enabled", False))

    def _run_step(
        self, fn: StepFn, arg: Any, inboxes: List[List[Message]]
    ) -> List[RankOutcome]:
        return [
            run_rank_step(
                fn, arg, rank, self.size, self._shared,
                self._states[rank], inboxes[rank], self._trace,
            )
            for rank in range(self.size)
        ]

    def _close(self) -> None:
        self._states = []


class SerialBackend(Backend):
    """Run every rank sequentially in the calling process."""

    name = "serial"

    def open_session(
        self,
        size: int,
        ledger: Optional[CommLedger] = None,
        tracer: Optional[TracerBase] = None,
        shared: Optional[Mapping[str, Any]] = None,
    ) -> SpmdSession:
        return SerialSession(size, ledger, tracer, shared)


def serial_from_spec(spec: BackendSpec) -> SerialBackend:
    """Spec factory for ``serial`` (ranks have no pool, so the
    spec's worker count is irrelevant and ignored; no options)."""
    spec.typed_options({})
    return SerialBackend()
