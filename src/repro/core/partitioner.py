"""The unified partitioner API.

Both partitioning strategies — the paper's
:class:`~repro.core.mcml_dt.MCMLDTPartitioner` (§4) and the
:class:`~repro.core.ml_rcb.MLRCBPartitioner` baseline (§3) — implement
one :class:`Partitioner` protocol whose ``fit`` returns a
:class:`PartitionResult`: the partition labels plus the run artefacts
(diagnostics, communication ledger, tracer spans) that previously had
to be fished out of per-class attributes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, Mapping, Optional, Protocol, runtime_checkable

import numpy as np

from repro.obs.tracer import Span, TracerBase
from repro.runtime.ledger import CommLedger
from repro.sim.sequence import ContactSnapshot

__all__ = [
    "PartitionDiagnostics",
    "PartitionResult",
    "Partitioner",
]


class PartitionDiagnostics(Mapping[str, Any]):
    """Read-only fit diagnostics: a mapping whose keys double as
    attributes (``diag["edge_cut_final"]`` == ``diag.edge_cut_final``).

    The key set is method-specific (documented on each partitioner's
    ``fit``); shared keys keep shared names so cross-method tooling can
    compare runs.
    """

    __slots__ = ("_values",)

    def __init__(self, values: Mapping[str, Any]) -> None:
        object.__setattr__(self, "_values", dict(values))

    def __getitem__(self, key: str) -> Any:
        return self._values[key]

    def __iter__(self) -> Iterator[str]:
        return iter(self._values)

    def __len__(self) -> int:
        return len(self._values)

    def __getattr__(self, name: str) -> Any:
        try:
            return self._values[name]
        except KeyError:
            raise AttributeError(
                f"no diagnostic {name!r}; available: "
                f"{sorted(self._values)}"
            ) from None

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v!r}" for k, v in self._values.items())
        return f"PartitionDiagnostics({inner})"


@dataclass(eq=False)
class PartitionResult:
    """What one ``fit`` produced.

    ``labels``
        Partition id per mesh node (the FE decomposition for ML+RCB).
    ``diagnostics``
        Method-specific :class:`PartitionDiagnostics`.
    ``ledger``
        The :class:`~repro.runtime.ledger.CommLedger` the fit recorded
        into (the caller's, when one was passed).
    ``spans``
        The live ``fit`` trace span (``None`` without a recording
        tracer; accumulates further if the same tracer re-enters
        ``fit``).
    """

    method: str
    k: int
    labels: np.ndarray
    diagnostics: PartitionDiagnostics
    ledger: CommLedger = field(default_factory=CommLedger)
    spans: Optional[Span] = None


@runtime_checkable
class Partitioner(Protocol):
    """What every partitioning strategy implements.

    Implementations are stateful drivers over a snapshot sequence
    (they keep ``k``, their parameters, and the labels of the last
    fit); ``fit`` computes the decomposition for a snapshot and
    returns a :class:`PartitionResult`.
    """

    def fit(
        self,
        snapshot: ContactSnapshot,
        tracer: Optional[TracerBase] = None,
        ledger: Optional[CommLedger] = None,
    ) -> PartitionResult:
        """Compute the decomposition of ``snapshot``."""
        ...

    def search_plan(self, snapshot: ContactSnapshot) -> Any:
        """Global contact-search plan for ``snapshot`` (method-specific
        plan type; requires a prior ``fit``)."""
        ...


def make_result(
    method: str,
    k: int,
    labels: np.ndarray,
    diagnostics: Mapping[str, Any],
    ledger: Optional[CommLedger],
    spans: Optional[Span],
) -> PartitionResult:
    """Assemble a :class:`PartitionResult` (shared by the concrete
    partitioners; ``ledger=None`` gets a fresh empty ledger)."""
    diag_values: Dict[str, Any] = dict(diagnostics)
    return PartitionResult(
        method=method,
        k=k,
        labels=labels,
        diagnostics=PartitionDiagnostics(diag_values),
        ledger=ledger if ledger is not None else CommLedger(),
        spans=spans,
    )
