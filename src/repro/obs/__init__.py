"""Observability: phase-level tracing and run reports.

See ``docs/OBSERVABILITY.md`` for the span taxonomy, the JSON schema,
and how to read a run report.
"""

from repro.obs.report import RunReport
from repro.obs.schema import (
    SCHEMA_VERSION,
    validate_report,
)
from repro.obs.tracer import (
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    TracerBase,
    ensure_tracer,
)

__all__ = [
    "RunReport",
    "SCHEMA_VERSION",
    "validate_report",
    "NULL_TRACER",
    "NullTracer",
    "Span",
    "Tracer",
    "TracerBase",
    "ensure_tracer",
]
