"""Project-specific lint rules guarding the reproduction's invariants.

Each rule machine-checks one contract that the partitioning core relies
on but Python cannot enforce (see ``docs/STATIC_ANALYSIS.md``):

========  ==========================================================
ARR001    numpy allocators in numeric modules need an explicit dtype
ASSERT001 library validation must not rely on ``assert`` (python -O)
VAL001    public entry points must validate their array inputs
LOOP001   hot-path modules must not loop over ``xadj``/``adjncy``
========  ==========================================================
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional, Tuple

from repro.analysis.engine import (
    Diagnostic,
    FileContext,
    LintRule,
    register_rule,
)

#: modules whose arrays feed CSR kernels — dtype defaults differ across
#: platforms (Windows ``np.arange`` is int32), so they must be explicit
NUMERIC_MODULES: Tuple[str, ...] = ("repro.graph", "repro.partition")

#: modules where a Python-level loop over the adjacency is a perf bug
HOT_PATH_MODULES: Tuple[str, ...] = ("repro.graph", "repro.partition")

#: numpy allocator → index of its positional ``dtype`` argument
_ALLOCATORS: Dict[str, int] = {
    "zeros": 1,
    "ones": 1,
    "empty": 1,
    "full": 2,
    "arange": 3,
}

#: recognised validation helpers (``repro.utils.validation`` plus the
#: ``.validate()`` method convention)
VALIDATION_CALLEES = frozenset(
    {
        "check_array",
        "check_csr_arrays",
        "check_in_range",
        "check_labels",
        "check_positive",
        "require",
        "validate",
    }
)

#: module → public functions that must validate their inputs (VAL001)
ENTRY_POINTS: Dict[str, Tuple[str, ...]] = {
    "repro.partition.kway": ("partition_kway",),
    "repro.partition.mlkway": ("multilevel_kway",),
    "repro.partition.recursive": ("recursive_bisection",),
    "repro.partition.multilevel": ("multilevel_bisection",),
    "repro.dtree.induction": ("induce_pure_tree", "induce_bounded_tree"),
}


def dotted_name(node: ast.AST) -> Optional[str]:
    """Render a ``Name``/``Attribute`` chain as ``a.b.c`` (else None)."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _callee_tail(node: ast.Call) -> Optional[str]:
    """Last component of the called name (``np.asarray`` → ``asarray``)."""
    name = dotted_name(node.func)
    if name is None:
        return None
    return name.rsplit(".", 1)[-1]


def is_test_module(module: str) -> bool:
    """Test and benchmark modules: exempt from library-only rules.

    Benchmarks count — they assert their own results and seed their own
    generators exactly like tests do.
    """
    parts = module.split(".")
    return any(
        p == "conftest"
        or p == "tests"
        or p == "benchmarks"
        or p.startswith("test_")
        or p.startswith("bench_")
        for p in parts
    )


@register_rule
class ExplicitDtypeRule(LintRule):
    """ARR001 — numpy allocators without an explicit ``dtype``.

    ``np.arange``/``np.zeros`` default to the platform C long, which is
    int32 on Windows; CSR kernels require int64.  In numeric modules
    every allocator call must pin its dtype.
    """

    code = "ARR001"
    name = "explicit-dtype"
    description = "numpy allocator without explicit dtype in numeric module"
    modules = NUMERIC_MODULES

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func)
            if name is None:
                continue
            head, _, tail = name.rpartition(".")
            if head not in ("np", "numpy") or tail not in _ALLOCATORS:
                continue
            if any(kw.arg == "dtype" for kw in node.keywords):
                continue
            if len(node.args) > _ALLOCATORS[tail]:
                continue  # dtype passed positionally
            yield self.diag(
                ctx,
                node,
                f"np.{tail}(...) without explicit dtype — CSR/partition "
                f"arrays must pin int64/float64 (platform default differs)",
            )


@register_rule
class NoBareAssertRule(LintRule):
    """ASSERT001 — ``assert`` used for runtime validation in library code.

    ``python -O`` strips asserts, so any invariant they guard silently
    vanishes in optimised deployments.  Library code must raise
    ``ValueError``/``RuntimeError`` with a message instead.
    """

    code = "ASSERT001"
    name = "no-bare-assert"
    description = "bare assert in library code (stripped under python -O)"

    def applies_to(self, ctx: FileContext) -> bool:
        return not is_test_module(ctx.module)

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Assert):
                yield self.diag(
                    ctx,
                    node,
                    "assert is stripped under python -O — raise "
                    "ValueError/RuntimeError with a message instead",
                )


@register_rule
class ValidatedEntryPointRule(LintRule):
    """VAL001 — public entry points that never validate their inputs.

    The functions in :data:`ENTRY_POINTS` sit at the public boundary
    and accept raw arrays; each must call a ``repro.utils.validation``
    checker (or ``.validate()``) before handing data to the kernels.
    """

    code = "VAL001"
    name = "validated-entry-point"
    description = "public entry point without input validation"
    modules = tuple(ENTRY_POINTS)

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        wanted = ENTRY_POINTS.get(ctx.module, ())
        for node in ctx.tree.body:
            if not isinstance(node, ast.FunctionDef):
                continue
            if node.name not in wanted:
                continue
            if not self._calls_validator(node):
                yield self.diag(
                    ctx,
                    node,
                    f"public entry point {node.name}() never calls a "
                    f"repro.utils.validation checker on its inputs",
                )

    @staticmethod
    def _calls_validator(func: ast.FunctionDef) -> bool:
        for node in ast.walk(func):
            if isinstance(node, ast.Call):
                tail = _callee_tail(node)
                if tail in VALIDATION_CALLEES:
                    return True
        return False


@register_rule
class VectorisedHotPathRule(LintRule):
    """LOOP001 — Python loops over ``xadj``/``adjncy`` in hot paths.

    A per-edge Python loop is two to three orders of magnitude slower
    than the vectorised equivalents in :mod:`repro.graph.ops`; in the
    designated hot-path modules adjacency traversals must be expressed
    with numpy primitives (``np.repeat``/``np.diff``/fancy indexing).
    """

    code = "LOOP001"
    name = "vectorised-hot-path"
    description = "Python-level loop over xadj/adjncy in hot-path module"
    modules = HOT_PATH_MODULES

    _CSR_NAMES = frozenset({"xadj", "adjncy"})

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.For, ast.AsyncFor)):
                continue
            if self._mentions_csr_array(node.iter):
                yield self.diag(
                    ctx,
                    node,
                    "Python-level loop over xadj/adjncy — vectorise with "
                    "np.repeat/np.diff or move out of the hot path",
                )

    def _mentions_csr_array(self, expr: ast.AST) -> bool:
        for node in ast.walk(expr):
            if isinstance(node, ast.Name) and node.id in self._CSR_NAMES:
                return True
            if isinstance(node, ast.Attribute) and node.attr in self._CSR_NAMES:
                return True
        return False
