"""Static analysis for the partitioning core (``repro-lint``).

The reproduction's correctness rests on a handful of contracts that
Python never checks for us: public entry points must validate their
inputs, library code must raise rather than ``assert``, hot paths must
stay vectorised, and deadlines must be read off the monotonic clock.
This package machine-checks those contracts with a small AST-walking
lint engine so they cannot silently rot as the system grows (see
``docs/STATIC_ANALYSIS.md`` for the rule catalogue, and for the
admission test every code in it passed: a defect seeded into
``src/repro`` that the code alone catches).

One :class:`LintEngine` drives every rule: it parses the target set
once and runs each selected rule over one file at a time.  There are
two families: ``core`` (:mod:`repro.analysis.rules`) runs by default,
and ``perf`` runs when asked for.

The superstep contract (ranks only read ``ctx.shared``) is not a lint
code: every execution backend hands ranks a read-only ``ctx.shared``
(:func:`repro.runtime.backends.base.read_only_shared`), so a breach
raises at runtime on the serial backend as on the pools.

The ``perf`` family is performance-oriented (``repro-lint --perf``):
the PERF rules (:mod:`repro.analysis.perf`) find the scalar-Python hot
loops that block vectorisation — ranked by measured span self-times
when a ``--trace-json`` run-report is supplied.  Pre-existing findings
burn down through a committed baseline (:mod:`repro.analysis.baseline`)
instead of blanket suppressions.

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
