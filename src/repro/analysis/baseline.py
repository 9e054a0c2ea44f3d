"""Committed lint baselines: burn findings down instead of suppressing.

A baseline (``lint-baseline.json`` at the repo root) records the
findings that existed when a new rule family landed.  ``repro-lint
--baseline lint-baseline.json`` subtracts them and fails only on *new*
findings, so a tree can adopt a strict rule without a blanket
``disable-file`` while the backlog is fixed incrementally — deleting
entries is the only way the file ever changes in review.

Matching is by ``(path, code, message)`` **multiset**, deliberately
ignoring line/column: moving code around must not resurrect a
baselined finding, while a genuinely new instance of the same rule in
the same file still counts once the baselined occurrences are used up.

Schema (``repro.lint-baseline/1``)::

    {
      "schema": "repro.lint-baseline/1",
      "entries": [
        {"path": str, "code": str, "message": str},
        ...
      ]
    }
"""

from __future__ import annotations

import json
import re
from collections import Counter
from pathlib import Path
from typing import Dict, List, Sequence, Tuple, Union

from repro.analysis.engine import Diagnostic

BASELINE_SCHEMA_VERSION = "repro.lint-baseline/1"

#: profile annotations appended by ``--trace-json`` ranking — stripped
#: before matching so a baseline works with and without a profile
_HOT_SUFFIX_RE = re.compile(r" \[hot: [^\]]+\]$")

_Key = Tuple[str, str, str]


class BaselineError(ValueError):
    """A baseline document violates the schema."""


def _key(d: Diagnostic) -> _Key:
    return (d.path, d.code, _HOT_SUFFIX_RE.sub("", d.message))


def write_baseline(
    path: Union[str, Path], diagnostics: Sequence[Diagnostic]
) -> int:
    """Write ``diagnostics`` as the new baseline; returns the number of
    entries written."""
    entries = [
        {"path": d.path, "code": d.code, "message": _key(d)[2]}
        for d in sorted(diagnostics)
    ]
    document = {"schema": BASELINE_SCHEMA_VERSION, "entries": entries}
    Path(path).write_text(json.dumps(document, indent=2) + "\n")
    return len(entries)


def load_baseline(path: Union[str, Path]) -> "Counter[_Key]":
    """Load a baseline into a ``(path, code, message)`` multiset.

    Raises :class:`BaselineError` on malformed documents.
    """
    try:
        document = json.loads(Path(path).read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise BaselineError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(document, dict):
        raise BaselineError(f"{path}: baseline must be a JSON object")
    if document.get("schema") != BASELINE_SCHEMA_VERSION:
        raise BaselineError(
            f"{path}: expected schema {BASELINE_SCHEMA_VERSION!r}, "
            f"got {document.get('schema')!r}"
        )
    entries = document.get("entries")
    if not isinstance(entries, list):
        raise BaselineError(f"{path}: 'entries' must be an array")
    counts: "Counter[_Key]" = Counter()
    for i, entry in enumerate(entries):
        if not isinstance(entry, dict) or set(entry) != {
            "path",
            "code",
            "message",
        }:
            raise BaselineError(
                f"{path}: entries[{i}] must have exactly "
                f"path/code/message"
            )
        values: Dict[str, object] = entry
        if not all(
            isinstance(values[k], str) and values[k]
            for k in ("path", "code", "message")
        ):
            raise BaselineError(
                f"{path}: entries[{i}] fields must be non-empty strings"
            )
        counts[
            (str(entry["path"]), str(entry["code"]), str(entry["message"]))
        ] += 1
    return counts


def apply_baseline(
    diagnostics: Sequence[Diagnostic],
    baseline: "Counter[_Key]",
) -> Tuple[List[Diagnostic], int]:
    """Subtract baselined findings from ``diagnostics``.

    Returns ``(new_findings, n_suppressed)``.  Each baseline entry
    absorbs at most one finding with the same (path, code, message);
    order within a file is preserved for the survivors.
    """
    budget = Counter(baseline)
    kept: List[Diagnostic] = []
    suppressed = 0
    for d in diagnostics:
        key = _key(d)
        if budget[key] > 0:
            budget[key] -= 1
            suppressed += 1
        else:
            kept.append(d)
    return kept, suppressed
