"""Static analysis for the partitioning core (``repro-lint``).

The reproduction's correctness rests on a handful of *array contracts*
that Python never checks for us: CSR arrays must be explicit
``int64``, public entry points must validate their inputs, library
code must raise rather than ``assert``, and hot paths must stay
vectorised.  This package machine-checks those contracts with a small
AST-walking lint engine so they cannot silently rot as the system
grows (see ``docs/STATIC_ANALYSIS.md`` for the rule catalogue, and
for the admission test every code in it passed: a defect seeded into
``src/repro`` that the code alone catches).

One :class:`LintEngine` drives every rule: it parses the target set
once and runs *file rules* over each file and *project rules* over
the one shared dataflow index (:mod:`repro.analysis.dataflow`), which
is built only when a selected rule asks for it.

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

The ``service`` family (``repro-lint --service``) guards the async
service seams (:mod:`repro.analysis.asynccheck`): no blocking call on
the event loop (ASYNC001), no wall clock in deadline arithmetic
(TIME001).

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
from repro.analysis import (  # noqa: F401
    asynccheck,
    perf,
    rules,
)

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
