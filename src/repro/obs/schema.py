"""The run-report JSON schema: :data:`REPORT` declares a serialized
:class:`~repro.obs.report.RunReport` (``docs/OBSERVABILITY.md`` shows
one). A span's optional ``self_s``, its time net of its children, spares
trace consumers the tree arithmetic; documents written before it
existed still validate.
"""

from __future__ import annotations

from typing import Any, Dict, Set, cast

from repro.utils.schema import SchemaError, Spec, array, const, integer
from repro.utils.schema import mapping, number, obj, scalar, string, validate

SCHEMA_VERSION = "repro.run-report/1"

#: per-phase message and item totals (a ``CommLedger`` summary); a
#: contact-step job result's ``comm`` member has the same shape
COMM = mapping(obj({"n_messages": integer(0), "n_items": integer(0)}))


def _unique_children(span: Dict[str, Any], path: str) -> None:
    seen: Set[str] = set()
    for i, child in enumerate(span["children"]):
        if child["name"] in seen:
            raise SchemaError(
                f"{path}.children[{i}].name",
                f"duplicate sibling name {child['name']!r}",
            )
        seen.add(child["name"])


_SPAN: Spec = obj(
    {"name": string(), "n_calls": integer(0), "total_s": number(0.0),
     "self_s": number(0.0), "counters": mapping(number()),
     "children": array(Spec(lambda value, path: _SPAN.walk(value, path)))},
    optional=("self_s",),
    check=_unique_children,
)

REPORT = obj({"schema": const(SCHEMA_VERSION), "meta": mapping(scalar()),
              "spans": _SPAN, "comm": COMM})


def validate_report(document: object) -> Dict[str, object]:
    """Check ``document`` against :data:`REPORT` and return it; raises
    :class:`~repro.utils.schema.SchemaError` at the first violation."""
    validate(REPORT, document)
    return cast("Dict[str, object]", document)
