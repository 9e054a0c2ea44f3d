"""Static analysis for the partitioning core (``repro-lint``).

The reproduction's correctness rests on a handful of contracts that
Python never checks for us: library code must raise rather than
``assert``, hot paths must stay vectorised, and deadlines must be read
off the monotonic clock.
This package machine-checks those contracts with a small AST-walking
lint engine so they cannot silently rot as the system grows (see
``docs/STATIC_ANALYSIS.md`` for the rule catalogue, and for the
admission test every code in it passed: a defect seeded into
``src/repro`` that the code alone catches).

One :class:`LintEngine` drives every rule: it parses the target set
once and runs each selected rule over one file at a time.  The rules
live in :mod:`repro.analysis.rules` (ASSERT001, LOOP001, TIME001) and
:mod:`repro.analysis.perf` (the PERF rules, which find the
scalar-Python loops that block vectorisation in the numeric modules);
every run, the self-check's included, applies them all.

The superstep contract (ranks only read ``ctx.shared``) is not a lint
code: every execution backend hands ranks a read-only ``ctx.shared``
(:func:`repro.runtime.backends.base.read_only_shared`), so a breach
raises at runtime on the serial backend as on the pools.

Run it as ``repro-lint src/repro`` or ``repro-contact lint``.
"""

from repro.analysis.engine import (
    Diagnostic,
    FileContext,
    LintEngine,
    LintRule,
    Project,
    all_rules,
    build_file_context,
    get_rule,
    load_project,
    register_rule,
)
from repro.analysis.reporters import (
    format_human,
    format_json,
    format_sarif,
    format_statistics,
)

# importing the rule modules registers their rules
from repro.analysis import perf, rules  # noqa: F401

__all__ = [
    "Diagnostic",
    "FileContext",
    "LintEngine",
    "LintRule",
    "Project",
    "all_rules",
    "build_file_context",
    "get_rule",
    "load_project",
    "register_rule",
    "format_human",
    "format_json",
    "format_sarif",
    "format_statistics",
]
