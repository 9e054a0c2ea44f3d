"""Project-specific lint rules guarding the reproduction's invariants.

Each rule machine-checks one contract that the partitioning core relies
on but Python cannot enforce (see ``docs/STATIC_ANALYSIS.md``):

========  ==========================================================
ARR001    numpy allocators in numeric modules need an explicit dtype
ARR002    CSR/partition arrays must be made contiguous, not asarray'd
RNG001    randomness must flow through :mod:`repro.utils.rng`
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

#: the one module allowed to talk to ``np.random`` directly
RNG_MODULE = "repro.utils.rng"

#: numpy allocator → index of its positional ``dtype`` argument
_ALLOCATORS: Dict[str, int] = {
    "zeros": 1,
    "ones": 1,
    "empty": 1,
    "full": 2,
    "arange": 3,
}

#: callables that receive CSR/partition arrays and require contiguity
_CONTIGUITY_SINKS = frozenset(
    {
        "CSRGraph",
        "partition_kway",
        "multilevel_kway",
        "recursive_bisection",
        "multilevel_bisection",
    }
)

#: forbidden ``np.random`` entry points outside :data:`RNG_MODULE`
_RNG_CALLS = frozenset({"default_rng", "seed", "RandomState"})

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
class ContiguousArraysRule(LintRule):
    """ARR002 — ``np.asarray`` fed straight into a CSR/kway sink.

    ``CSRGraph`` and the k-way entry points require C-contiguous
    arrays; ``np.asarray`` preserves striding, so a transposed or
    sliced input silently survives to the kernels.  Use
    ``np.ascontiguousarray`` at the boundary.
    """

    code = "ARR002"
    name = "contiguous-arrays"
    description = "np.asarray passed to a CSR/partition sink"

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            if _callee_tail(node) not in _CONTIGUITY_SINKS:
                continue
            values = list(node.args) + [kw.value for kw in node.keywords]
            for arg in values:
                if (
                    isinstance(arg, ast.Call)
                    and _callee_tail(arg) == "asarray"
                ):
                    yield self.diag(
                        ctx,
                        arg,
                        "np.asarray does not guarantee contiguity — use "
                        "np.ascontiguousarray for CSR/partition arrays",
                    )


@register_rule
class CentralRngRule(LintRule):
    """RNG001 — direct ``np.random`` use outside ``repro.utils.rng``.

    All randomness must be derived through
    :func:`repro.utils.rng.as_rng`/:func:`~repro.utils.rng.spawn_rngs`
    so a single root seed reproduces whole experiments.
    """

    code = "RNG001"
    name = "central-rng"
    description = "np.random used outside repro.utils.rng"

    def applies_to(self, ctx: FileContext) -> bool:
        # tests/benchmarks construct their own seeded generators on
        # purpose; the centralisation contract binds library code only
        return ctx.module != RNG_MODULE and not is_test_module(ctx.module)

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.Call):
                name = dotted_name(node.func)
                if name is None:
                    continue
                head, _, tail = name.rpartition(".")
                if head in ("np.random", "numpy.random") and tail in _RNG_CALLS:
                    yield self.diag(
                        ctx,
                        node,
                        f"direct {name}(...) breaks seed reproducibility — "
                        f"route through repro.utils.rng.as_rng/spawn_rngs",
                    )
            elif isinstance(node, ast.ImportFrom):
                if node.module == "numpy.random" and any(
                    alias.name in _RNG_CALLS for alias in node.names
                ):
                    yield self.diag(
                        ctx,
                        node,
                        "importing from numpy.random bypasses "
                        "repro.utils.rng — use as_rng/spawn_rngs",
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
