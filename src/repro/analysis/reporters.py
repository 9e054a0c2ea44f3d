"""Render lint diagnostics for humans and machines.

The JSON schema (version 1) is::

    {
      "version": 1,
      "count": <int>,
      "summary": {"<code>": <int>, ...},
      "diagnostics": [
        {"path": str, "line": int, "col": int,
         "code": str, "message": str},
        ...
      ]
    }

:func:`format_sarif` emits SARIF 2.1.0 (the format code-review UIs
ingest); CI uploads it as an artifact so findings annotate the diff.
"""

from __future__ import annotations

import json
from collections import Counter
from typing import Any, Dict, List, Sequence

from repro.analysis.engine import (
    SYNTAX_ERROR_CODE,
    Diagnostic,
    all_rules,
)

JSON_SCHEMA_VERSION = 1

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = (
    "https://json.schemastore.org/sarif-2.1.0.json"
)
_TOOL_NAME = "repro-lint"
_TOOL_VERSION = "1.0.0"


def format_human(diagnostics: Sequence[Diagnostic]) -> str:
    """``path:line:col: CODE message`` lines plus a per-code summary."""
    if not diagnostics:
        return "repro-lint: no issues found"
    lines: List[str] = [d.render() for d in diagnostics]
    counts = Counter(d.code for d in diagnostics)
    total = len(diagnostics)
    breakdown = ", ".join(
        f"{code}: {n}" for code, n in sorted(counts.items())
    )
    lines.append(
        f"repro-lint: {total} issue{'s' if total != 1 else ''} "
        f"({breakdown})"
    )
    return "\n".join(lines)


def as_json_payload(
    diagnostics: Sequence[Diagnostic],
) -> Dict[str, Any]:
    """The JSON reporter's payload as a plain dict (schema above)."""
    counts = Counter(d.code for d in diagnostics)
    return {
        "version": JSON_SCHEMA_VERSION,
        "count": len(diagnostics),
        "summary": dict(sorted(counts.items())),
        "diagnostics": [d.as_dict() for d in diagnostics],
    }


def format_json(diagnostics: Sequence[Diagnostic]) -> str:
    """Serialise :func:`as_json_payload` (stable key order)."""
    return json.dumps(as_json_payload(diagnostics), indent=2, sort_keys=True)


def format_statistics(diagnostics: Sequence[Diagnostic]) -> str:
    """flake8-style per-code count lines (``    3  LOOP001  desc``)."""
    counts = Counter(d.code for d in diagnostics)
    known = {r.code: r.description for r in all_rules()}
    lines = [
        f"{n:>5}  {code:<9} {known.get(code, 'syntax error')}"
        for code, n in sorted(counts.items())
    ]
    lines.append(f"{len(diagnostics):>5}  total")
    return "\n".join(lines)


def _sarif_rules(codes: Sequence[str]) -> List[Dict[str, Any]]:
    """SARIF ``tool.driver.rules`` metadata for the codes present."""
    known = {r.code: r for r in all_rules()}
    rules: List[Dict[str, Any]] = []
    for code in sorted(set(codes)):
        rule = known.get(code)
        if rule is not None:
            rules.append(
                {
                    "id": code,
                    "name": rule.name,
                    "shortDescription": {"text": rule.description},
                    "helpUri": (
                        "https://example.invalid/repro/docs/"
                        "STATIC_ANALYSIS.md"
                    ),
                }
            )
        elif code == SYNTAX_ERROR_CODE:
            rules.append(
                {
                    "id": code,
                    "name": "syntax-error",
                    "shortDescription": {
                        "text": "file could not be parsed"
                    },
                }
            )
        else:  # pragma: no cover - future codes degrade gracefully
            rules.append({"id": code})
    return rules


def as_sarif_payload(
    diagnostics: Sequence[Diagnostic],
) -> Dict[str, Any]:
    """The SARIF 2.1.0 log as a plain dict (one run, one result per
    diagnostic; line/column are 1-based as SARIF requires)."""
    results = [
        {
            "ruleId": d.code,
            "level": "error",
            "message": {"text": d.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {"uri": d.path},
                        "region": {
                            "startLine": d.line,
                            "startColumn": d.col,
                        },
                    }
                }
            ],
        }
        for d in diagnostics
    ]
    return {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": _TOOL_NAME,
                        "version": _TOOL_VERSION,
                        "informationUri": (
                            "https://example.invalid/repro"
                        ),
                        "rules": _sarif_rules(
                            [d.code for d in diagnostics]
                        ),
                    }
                },
                "results": results,
            }
        ],
    }


def format_sarif(diagnostics: Sequence[Diagnostic]) -> str:
    """Serialise :func:`as_sarif_payload` (stable key order)."""
    return json.dumps(
        as_sarif_payload(diagnostics), indent=2, sort_keys=True
    )
