"""Run reports: spans + communication totals, rendered or serialized.

A :class:`RunReport` snapshots one traced run — the tracer's span tree
merged with the :class:`~repro.runtime.ledger.CommLedger` phase totals
— and either renders it through
:class:`~repro.metrics.report.MetricTable` for the terminal or
serializes to the versioned JSON document checked by
:func:`repro.obs.schema.validate_report`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.metrics.report import MetricTable
from repro.obs.schema import SCHEMA_VERSION, validate_report
from repro.obs.tracer import Span, Tracer
from repro.runtime.ledger import CommLedger

MetaValue = Union[str, int, float, bool, None]
PathLike = Union[str, Path]

#: counters the fault-tolerant runtime emits (the supervised sessions
#: of the worker pools, injected faults included —
#: docs/FAULT_TOLERANCE.md)
RECOVERY_COUNTERS = (
    "faults_injected",
    "step_retries",
    "worker_deaths",
    "deadline_timeouts",
    "worker_respawns",
    "ranks_degraded",
)

#: counters supervised sessions emit on the process and tcp backends
#: (coordinator traffic and pool churn — docs/PARALLELISM.md)
DISTRIBUTED_COUNTERS = (
    "bytes_sent",
    "bytes_recv",
    "reconnects",
    "ranks_migrated",
    "agents_joined",
)


@dataclass
class RunReport:
    """One traced run, ready to render or serialize."""

    spans: Span
    comm: Dict[str, Tuple[int, int]] = field(default_factory=dict)
    meta: Dict[str, MetaValue] = field(default_factory=dict)

    # ------------------------------------------------------------------
    @classmethod
    def from_run(
        cls,
        tracer: Tracer,
        ledger: Optional[CommLedger] = None,
        **meta: MetaValue,
    ) -> "RunReport":
        """Snapshot ``tracer`` (finishing it) and ``ledger`` totals."""
        comm = dict(ledger.summary()) if ledger is not None else {}
        return cls(spans=tracer.finish(), comm=comm, meta=dict(meta))

    # ------------------------------------------------------------------
    def comm_items(self, phase: str) -> int:
        """Items moved in a ledger phase (0 for unknown phases)."""
        return self.comm.get(phase, (0, 0))[1]

    def comm_total_items(self) -> int:
        """Items moved across all ledger phases."""
        return sum(items for _msgs, items in self.comm.values())

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """The versioned JSON document (validates against the schema)."""
        return {
            "schema": SCHEMA_VERSION,
            "meta": dict(self.meta),
            "spans": self.spans.to_dict(),
            "comm": {
                phase: {"n_messages": msgs, "n_items": items}
                for phase, (msgs, items) in sorted(self.comm.items())
            },
        }

    def to_json(self, indent: int = 2) -> str:
        """Serialize, validating first so emitted files are always
        schema-clean."""
        return json.dumps(
            validate_report(self.to_dict()), indent=indent, sort_keys=False
        )

    def save(self, path: PathLike) -> None:
        """Write :meth:`to_json` to ``path``."""
        Path(path).write_text(self.to_json() + "\n")

    @classmethod
    def from_dict(cls, document: Dict[str, object]) -> "RunReport":
        """Rebuild a report from a schema-valid document."""
        validate_report(document)
        spans_doc = document["spans"]
        if not isinstance(spans_doc, dict):  # unreachable post-validation
            raise ValueError("spans must be an object")
        comm_doc = document.get("comm")
        comm: Dict[str, Tuple[int, int]] = {}
        if isinstance(comm_doc, dict):
            for phase, totals in comm_doc.items():
                if isinstance(totals, dict):
                    comm[str(phase)] = (
                        int(totals["n_messages"]),
                        int(totals["n_items"]),
                    )
        meta_doc = document.get("meta")
        meta: Dict[str, MetaValue] = {}
        if isinstance(meta_doc, dict):
            for key, value in meta_doc.items():
                if isinstance(value, (str, int, float, bool)) or value is None:
                    meta[str(key)] = value
        return cls(spans=Span.from_dict(spans_doc), comm=comm, meta=meta)

    @classmethod
    def load(cls, path: PathLike) -> "RunReport":
        """Read a report written by :meth:`save`."""
        document = json.loads(Path(path).read_text())
        if not isinstance(document, dict):
            raise ValueError(f"{path}: run report must be a JSON object")
        return cls.from_dict(document)

    # ------------------------------------------------------------------
    def span_table(self) -> MetricTable:
        """Span tree as a table: one row per span path (depth shown by
        indentation), columns calls / total ms / self ms."""
        table = MetricTable(
            title="Trace spans (wall time)",
            columns=["calls", "total_ms", "self_ms"],
        )
        for path, span in self.spans.walk():
            depth = path.count("/")
            parts = path.split("/")
            # paths are unique, indented names may not be; on collision
            # extend with ancestors until the row name is unique
            name = "  " * depth + span.name
            for n_parts in range(2, len(parts) + 1):
                if name not in table.rows:
                    break
                name = "  " * depth + "/".join(parts[-n_parts:])
            table.add_row(
                name,
                [
                    span.n_calls,
                    round(span.total_s * 1e3, 1),
                    round(span.self_s * 1e3, 1),
                ],
            )
        return table

    def comm_table(self) -> MetricTable:
        """Ledger phase totals as a table."""
        table = MetricTable(
            title="Communication phases",
            columns=["messages", "items"],
        )
        for phase, (msgs, items) in sorted(self.comm.items()):
            table.add_row(phase, [msgs, items])
        return table

    def recovery_totals(self) -> Dict[str, float]:
        """Fault-recovery counters summed over the whole span tree
        (only the nonzero ones; empty for a clean run)."""
        totals = {name: 0.0 for name in RECOVERY_COUNTERS}
        for _path, span in self.spans.walk():
            for name, value in span.counters.items():
                if name in totals:
                    totals[name] += value
        return {name: value for name, value in totals.items() if value}

    def recovery_seconds(self) -> float:
        """Wall seconds spent inside ``recovery`` spans anywhere in the
        tree — the run's total fault-handling overhead."""
        return sum(
            span.total_s
            for _path, span in self.spans.walk()
            if span.name == "recovery"
        )

    def distributed_totals(self) -> Dict[str, float]:
        """Distributed-backend counters (traffic volume, reconnects,
        rank migrations) summed over the span tree — only the nonzero
        ones; empty when the run never left the process."""
        totals = {name: 0.0 for name in DISTRIBUTED_COUNTERS}
        for _path, span in self.spans.walk():
            for name, value in span.counters.items():
                if name in totals:
                    totals[name] += value
        return {name: value for name, value in totals.items() if value}

    def counter_lines(self) -> List[str]:
        """``path: name=value`` lines for every span counter."""
        lines: List[str] = []
        for path, span in self.spans.walk():
            for name, value in span.counters.items():
                lines.append(f"{path}: {name}={value:g}")
        return lines

    def render(self) -> str:
        """Full human-readable report (spans, counters, comm)."""
        blocks = [self.span_table().render()]
        counters = self.counter_lines()
        if counters:
            blocks.append("Counters\n--------\n" + "\n".join(counters))
        recovery = self.recovery_totals()
        if recovery:
            lines = [f"{name}={value:g}" for name, value in recovery.items()]
            lines.append(f"recovery_wall_s={self.recovery_seconds():.3f}")
            blocks.append(
                "Fault recovery\n--------------\n" + "\n".join(lines)
            )
        distributed = self.distributed_totals()
        if distributed:
            lines = [
                f"{name}={value:g}"
                for name, value in distributed.items()
            ]
            blocks.append(
                "Distributed\n-----------\n" + "\n".join(lines)
            )
        if self.comm:
            blocks.append(self.comm_table().render())
        if self.meta:
            meta = ", ".join(f"{k}={v}" for k, v in self.meta.items())
            blocks.append(f"[{meta}]")
        return "\n\n".join(blocks)
