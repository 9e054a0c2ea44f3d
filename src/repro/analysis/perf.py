"""The PERF rules: scalar-Python loops that block vectorisation.

========  ==========================================================
PERF001   scalar Python loop over NumPy array data
PERF002   per-iteration allocation in a loop (``np.append`` /
          ``np.concatenate`` / list-grow-then-``np.array``)
PERF003   repeated attribute/global lookup inside a hot loop
PERF005   element-wise ``math.*`` where a NumPy ufunc exists
========  ==========================================================

They run with every other rule, scoped to the numeric modules
(:data:`PERF_MODULES`); test and benchmark modules are exempt.
"""

from __future__ import annotations

import ast
from collections import Counter
from typing import Dict, Iterator, Set, Tuple, Union

from repro.analysis.engine import (
    Diagnostic,
    FileContext,
    LintRule,
    register_rule,
)
from repro.analysis.rules import dotted_name, is_test_module

#: the numeric stack — the only modules the PERF rules inspect
#: (analysis/obs/runtime walk ASTs and message queues, not arrays)
PERF_MODULES: Tuple[str, ...] = (
    "repro.core",
    "repro.dtree",
    "repro.geometry",
    "repro.graph",
    "repro.mesh",
    "repro.metrics",
    "repro.partition",
    "repro.sim",
    "repro.utils",
)

#: numpy calls whose results are provably array-valued (used as PERF001
#: iteration evidence; scalar-returning np calls are deliberately absent)
_ARRAY_RETURNING = frozenset(
    {
        "arange",
        "argsort",
        "argwhere",
        "array",
        "asarray",
        "ascontiguousarray",
        "bincount",
        "concatenate",
        "cumsum",
        "diff",
        "empty",
        "flatnonzero",
        "full",
        "hstack",
        "linspace",
        "nonzero",
        "ones",
        "repeat",
        "sort",
        "stack",
        "unique",
        "vstack",
        "where",
        "zeros",
    }
)

#: allocating numpy calls that must not run per loop iteration (PERF002)
_LOOP_ALLOCATORS = frozenset(
    {"append", "concatenate", "hstack", "vstack", "stack", "array", "asarray"}
)

#: math.* functions with a NumPy ufunc of the same name (PERF005)
_MATH_UFUNCS = frozenset(
    {
        "sqrt",
        "sin",
        "cos",
        "tan",
        "exp",
        "log",
        "log2",
        "log10",
        "floor",
        "ceil",
        "fabs",
        "hypot",
        "atan2",
    }
)

#: occurrences of one dotted chain in a single loop body before PERF003
#: fires (two repeats is idiom; three is a measurable lookup tax)
PERF003_THRESHOLD = 3


def _is_numpy_call(node: ast.AST) -> bool:
    """``np.X(...)``/``numpy.X(...)`` with ``X`` array-returning."""
    if not isinstance(node, ast.Call):
        return False
    name = dotted_name(node.func)
    if name is None:
        return False
    head, _, tail = name.rpartition(".")
    return head in ("np", "numpy") and tail in _ARRAY_RETURNING


class _ArrayEvidence:
    """Per-function tracker of names that provably hold NumPy arrays.

    Evidence comes from two places only — parameters annotated
    ``np.ndarray``/``numpy.ndarray`` and names assigned from an
    array-returning ``np.*`` call — so the PERF001 detector
    under-approximates instead of guessing.
    """

    def __init__(self, fn: Union[ast.FunctionDef, ast.AsyncFunctionDef]):
        self.array_names: Set[str] = set()
        args = fn.args
        for a in list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs):
            if a.annotation is not None and self._is_ndarray_ann(a.annotation):
                self.array_names.add(a.arg)
        for node in ast.walk(fn):
            if isinstance(node, ast.Assign) and self.is_array_expr(node.value):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        self.array_names.add(target.id)
            elif isinstance(node, ast.AnnAssign):
                if (
                    isinstance(node.target, ast.Name)
                    and node.annotation is not None
                    and self._is_ndarray_ann(node.annotation)
                ):
                    self.array_names.add(node.target.id)

    @staticmethod
    def _is_ndarray_ann(ann: ast.AST) -> bool:
        text = dotted_name(ann)
        if text is None and isinstance(ann, ast.Constant):
            text = ann.value if isinstance(ann.value, str) else None
        return text in ("np.ndarray", "numpy.ndarray", "ndarray")

    def is_array_expr(self, expr: ast.AST) -> bool:
        """Whether ``expr`` provably evaluates to a NumPy array."""
        if _is_numpy_call(expr):
            return True
        if isinstance(expr, ast.Name):
            return expr.id in self.array_names
        if isinstance(expr, ast.Subscript):
            return self.is_array_expr(expr.value)
        if isinstance(expr, ast.Attribute) and expr.attr == "T":
            return self.is_array_expr(expr.value)
        if isinstance(expr, ast.Call):
            name = dotted_name(expr.func)
            if name in ("enumerate", "zip", "reversed") and expr.args:
                return any(self.is_array_expr(a) for a in expr.args)
            # range(len(arr)) — the index-loop spelling of the same scan
            if name == "range" and len(expr.args) == 1:
                inner = expr.args[0]
                if (
                    isinstance(inner, ast.Call)
                    and dotted_name(inner.func) == "len"
                    and inner.args
                ):
                    return self.is_array_expr(inner.args[0])
        return False


class PerfRule(LintRule):
    """Base of the PERF rules: numeric modules, no tests."""

    modules = PERF_MODULES

    def applies_to(self, ctx: FileContext) -> bool:
        if is_test_module(ctx.module):
            return False
        return super().applies_to(ctx)

    # -- shared traversal ----------------------------------------------
    @staticmethod
    def _functions(
        ctx: FileContext,
    ) -> Iterator[Union[ast.FunctionDef, ast.AsyncFunctionDef]]:
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield node

    @staticmethod
    def _loops(
        fn: ast.AST,
    ) -> Iterator[Union[ast.For, ast.AsyncFor, ast.While]]:
        for node in ast.walk(fn):
            if isinstance(node, (ast.For, ast.AsyncFor, ast.While)):
                yield node


@register_rule
class ScalarLoopRule(PerfRule):
    """PERF001 — scalar Python loop over NumPy array data.

    Iterating an ndarray element-by-element pays the full interpreter
    dispatch cost per element — two to three orders of magnitude over
    the vectorised equivalent.  Flagged loops must be batched (fancy
    indexing, ``np.repeat``, boolean masks).
    """

    code = "PERF001"
    name = "perf-scalar-loop"
    description = "scalar Python loop over NumPy array data"

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        for fn in self._functions(ctx):
            evidence = _ArrayEvidence(fn)
            for loop in self._loops(fn):
                if isinstance(loop, ast.While):
                    continue
                if evidence.is_array_expr(loop.iter):
                    yield self.diag(
                        ctx,
                        loop,
                        "scalar Python loop over NumPy array data — "
                        "vectorise (fancy indexing/np.repeat/masks)",
                    )


@register_rule
class LoopAllocationRule(PerfRule):
    """PERF002 — per-iteration array allocation in a loop.

    ``np.append``/``np.concatenate`` copy the whole accumulator every
    iteration (O(n²) growth); converting a loop-grown list with
    ``np.array`` re-boxes every element.  Preallocate, or collect
    chunks and concatenate once after the loop.
    """

    code = "PERF002"
    name = "perf-loop-allocation"
    description = "per-iteration array allocation in a loop"

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        for fn in self._functions(ctx):
            grown: Set[str] = set()
            for loop in self._loops(fn):
                for node in ast.walk(loop):
                    if not isinstance(node, ast.Call):
                        continue
                    name = dotted_name(node.func)
                    if name is not None:
                        head, _, tail = name.rpartition(".")
                        if head in ("np", "numpy") and tail in _LOOP_ALLOCATORS:
                            yield self.diag(
                                ctx,
                                node,
                                f"np.{tail}(...) inside a loop reallocates "
                                f"per iteration — preallocate or "
                                f"concatenate once after the loop",
                            )
                    if (
                        isinstance(node.func, ast.Attribute)
                        and node.func.attr == "append"
                        and isinstance(node.func.value, ast.Name)
                    ):
                        grown.add(node.func.value.id)
            if not grown:
                continue
            for node in ast.walk(fn):
                if not isinstance(node, ast.Call):
                    continue
                name = dotted_name(node.func)
                if name is None:
                    continue
                head, _, tail = name.rpartition(".")
                if (
                    head in ("np", "numpy")
                    and tail in ("array", "asarray")
                    and node.args
                    and isinstance(node.args[0], ast.Name)
                    and node.args[0].id in grown
                ):
                    yield self.diag(
                        ctx,
                        node,
                        f"np.{tail}({node.args[0].id}) converts a "
                        f"loop-grown Python list — preallocate the array "
                        f"and fill by index instead",
                    )


@register_rule
class RepeatedLookupRule(PerfRule):
    """PERF003 — repeated attribute/global lookup inside a hot loop.

    Every ``a.b.c(...)`` in a loop body re-resolves the whole chain per
    iteration; binding it to a local before the loop is the classic
    CPython win.
    """

    code = "PERF003"
    name = "perf-repeated-lookup"
    description = "repeated attribute/global lookup inside a hot loop"

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        for fn in self._functions(ctx):
            inner: Set[int] = set()
            for loop in self._loops(fn):
                for node in ast.walk(loop):
                    if node is not loop and isinstance(
                        node, (ast.For, ast.AsyncFor, ast.While)
                    ):
                        inner.add(id(node))
            for loop in self._loops(fn):
                if id(loop) in inner:
                    continue  # count each chain once, in the outermost loop
                rebound = self._rebound_roots(loop)
                counts: Counter = Counter()
                first: Dict[str, ast.AST] = {}
                for node in ast.walk(loop):
                    if not isinstance(node, ast.Call):
                        continue
                    if not isinstance(node.func, ast.Attribute):
                        continue
                    name = dotted_name(node.func)
                    if name is None or name.count(".") < 1:
                        continue
                    root = name.split(".", 1)[0]
                    if root in rebound:
                        continue
                    counts[name] += 1
                    first.setdefault(name, node)
                for name, n in sorted(counts.items()):
                    if n >= PERF003_THRESHOLD:
                        yield self.diag(
                            ctx,
                            first[name],
                            f"{name}(...) resolved {n}× inside one loop — "
                            f"bind it to a local before the loop",
                        )

    @staticmethod
    def _rebound_roots(
        loop: Union[ast.For, ast.AsyncFor, ast.While]
    ) -> Set[str]:
        names: Set[str] = set()
        if isinstance(loop, (ast.For, ast.AsyncFor)):
            for n in ast.walk(loop.target):
                if isinstance(n, ast.Name):
                    names.add(n.id)
        for node in ast.walk(loop):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    for n in ast.walk(target):
                        if isinstance(n, ast.Name):
                            names.add(n.id)
        return names


@register_rule
class MathUfuncRule(PerfRule):
    """PERF005 — element-wise ``math.*`` where a NumPy ufunc exists.

    ``math.sqrt`` in a loop processes one scalar per interpreter round
    trip; the identically-named ufunc handles the whole array in one
    call.
    """

    code = "PERF005"
    name = "perf-math-ufunc"
    description = "element-wise math.* in a loop where a ufunc exists"

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        from_math = self._math_imports(ctx.tree)
        for fn in self._functions(ctx):
            for loop in self._loops(fn):
                for node in ast.walk(loop):
                    if not isinstance(node, ast.Call):
                        continue
                    name = dotted_name(node.func)
                    if name is None:
                        continue
                    head, _, tail = name.rpartition(".")
                    hit = (head == "math" and tail in _MATH_UFUNCS) or (
                        not head and name in from_math
                    )
                    if hit:
                        fname = tail if head else name
                        yield self.diag(
                            ctx,
                            node,
                            f"math.{fname} maps one scalar per call — "
                            f"np.{fname} is the vectorised ufunc",
                        )

    @staticmethod
    def _math_imports(tree: ast.Module) -> Set[str]:
        """Names imported from ``math`` that shadow a ufunc."""
        names: Set[str] = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "math":
                for alias in node.names:
                    if alias.name in _MATH_UFUNCS and alias.asname is None:
                        names.add(alias.name)
        return names
