"""Project-specific lint rules guarding the reproduction's invariants.

Each rule machine-checks one contract that the partitioning core relies
on but Python cannot enforce (see ``docs/STATIC_ANALYSIS.md``):

========  ==========================================================
ASSERT001 library validation must not rely on ``assert`` (python -O)
LOOP001   hot-path modules must not loop over ``xadj``/``adjncy``
TIME001   deadline/backoff arithmetic must not read the wall clock
========  ==========================================================
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set, Tuple, Union

from repro.analysis.engine import (
    Diagnostic,
    FileContext,
    LintRule,
    register_rule,
)

#: modules where a Python-level loop over the adjacency is a perf bug
HOT_PATH_MODULES: Tuple[str, ...] = ("repro.graph", "repro.partition")


def dotted_name(
    node: ast.AST, through_subscripts: bool = False
) -> Optional[str]:
    """Render a ``Name``/``Attribute`` chain as ``a.b.c`` (else None);
    with ``through_subscripts``, ``a[0].b`` renders as ``a.b``."""
    parts = []
    while True:
        if isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        elif through_subscripts and isinstance(node, ast.Subscript):
            node = node.value
        elif isinstance(node, ast.Name):
            parts.append(node.id)
            return ".".join(reversed(parts))
        else:
            return None


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


# ----------------------------------------------------------------------
# TIME001 — wall clock in deadline arithmetic
# ----------------------------------------------------------------------

_DEADLINE_KEYWORDS = (
    "deadline",
    "timeout",
    "expire",
    "backoff",
    "retry_after",
)


@dataclass
class _Scope:
    """One ``def`` or ``lambda``: its parameters and the value
    expression last bound to each local name."""

    parent: Optional["_Scope"]
    params: Set[str]
    bindings: Dict[str, ast.AST] = field(default_factory=dict)

    def lookup(self, name: str) -> Optional[ast.AST]:
        """Value bound to ``name`` here or in an enclosing function
        (``None`` when unknown or a parameter)."""
        scope: Optional[_Scope] = self
        while scope is not None:
            if name in scope.bindings:
                return scope.bindings[name]
            if name in scope.params:
                return None
            scope = scope.parent
        return None


class _ModuleScopes(ast.NodeVisitor):
    """The import aliases and function scopes of one module.

    Only simple bindings count (``x = …``, ``x: T = …``, ``x := …``,
    ``with … as x``, ``def x``, ``class x``); names bound by unpacking,
    ``for`` or comprehension targets are not recorded, so a lookup
    falls through to the enclosing function.
    """

    def __init__(self, tree: ast.Module) -> None:
        #: local alias → dotted target (``np`` → ``numpy``); the first
        #: import of an alias anywhere in the file wins
        self.imports: Dict[str, str] = {}
        #: ``id(def/lambda node)`` → its scope
        self.scopes: Dict[int, _Scope] = {}
        self._stack: List[Optional[_Scope]] = [None]  # None = module
        self.visit(tree)

    def expand(self, name: str) -> str:
        """A dotted call name through the import aliases
        (``np.load`` → ``numpy.load``, ``sleep`` → ``time.sleep``)."""
        head, _, rest = name.partition(".")
        target = self.imports.get(head)
        if target is None:
            return name
        return f"{target}.{rest}" if rest else target

    def _bind(self, name: str, value: ast.AST) -> None:
        scope = self._stack[-1]
        if scope is not None:  # module-level bindings are never looked up
            scope.bindings[name] = value

    def _bind_target(self, target: ast.AST, value: ast.AST) -> None:
        if isinstance(target, ast.Name):  # unpacking binds no one name
            self._bind(target.id, value)

    def _enter(
        self, node: ast.AST, args: ast.arguments, body: List[ast.AST]
    ) -> None:
        params = {
            a.arg
            for a in args.posonlyargs + args.args + args.kwonlyargs
        }
        params.update(
            a.arg for a in (args.vararg, args.kwarg) if a is not None
        )
        scope = _Scope(self._stack[-1], params)
        self.scopes[id(node)] = scope
        self._stack.append(scope)
        for stmt in body:
            self.visit(stmt)
        self._stack.pop()

    def visit_FunctionDef(
        self, node: Union[ast.FunctionDef, ast.AsyncFunctionDef]
    ) -> None:
        self._bind(node.name, node)
        for expr in node.decorator_list + node.args.defaults:
            self.visit(expr)
        for default in node.args.kw_defaults:
            if default is not None:
                self.visit(default)
        self._enter(node, node.args, node.body)

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._enter(node, node.args, [node.body])

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        # a class body binds into the enclosing function's scope
        self._bind(node.name, node)
        for expr in node.decorator_list + node.bases:
            self.visit(expr)
        for stmt in node.body:
            self.visit(stmt)

    def visit_Assign(self, node: ast.Assign) -> None:
        self.visit(node.value)
        for target in node.targets:
            self._bind_target(target, node.value)
            if isinstance(target, (ast.Subscript, ast.Attribute)):
                self.visit(target.value)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            self.visit(node.value)
            self._bind_target(node.target, node.value)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self.visit(node.value)
        if isinstance(node.target, (ast.Subscript, ast.Attribute)):
            self.visit(node.target.value)

    def visit_NamedExpr(self, node: ast.NamedExpr) -> None:
        self.visit(node.value)
        self._bind_target(node.target, node.value)

    def visit_For(self, node: Union[ast.For, ast.AsyncFor]) -> None:
        self.visit(node.iter)
        for stmt in node.body + node.orelse:
            self.visit(stmt)

    visit_AsyncFor = visit_For

    def visit_With(self, node: Union[ast.With, ast.AsyncWith]) -> None:
        for item in node.items:
            self.visit(item.context_expr)
            if item.optional_vars is not None:
                self._bind_target(item.optional_vars, item.context_expr)
        for stmt in node.body:
            self.visit(stmt)

    visit_AsyncWith = visit_With

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            head = alias.name.split(".")[0]
            target = alias.name if alias.asname else head
            self.imports.setdefault(alias.asname or head, target)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module is None:
            return
        for alias in node.names:
            if alias.name != "*":
                self.imports.setdefault(
                    alias.asname or alias.name, f"{node.module}.{alias.name}"
                )

    def visit_comprehension(self, node: ast.comprehension) -> None:
        self.visit(node.iter)
        for cond in node.ifs:
            self.visit(cond)


def _scope_walk(root: ast.AST) -> Iterator[ast.AST]:
    """Walk ``root`` without entering nested ``def``/``lambda`` nodes
    (they are yielded; their bodies are other scopes)."""
    stack: List[ast.AST] = [root]
    while stack:
        node = stack.pop()
        yield node
        if node is not root and isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            continue
        stack.extend(ast.iter_child_nodes(node))


def _is_deadline_name(name: Optional[str]) -> bool:
    if name is None:
        return False
    tail = name.rsplit(".", 1)[-1].lower()
    return any(k in tail for k in _DEADLINE_KEYWORDS)


def _is_call_to(scopes: _ModuleScopes, node: ast.AST, target: str) -> bool:
    if not isinstance(node, ast.Call):
        return False
    name = dotted_name(node.func, through_subscripts=True)
    return name is not None and scopes.expand(name) == target


def _mentions_monotonic(
    scopes: _ModuleScopes, scope: Optional[_Scope], expr: ast.AST
) -> bool:
    """A ``time.monotonic()`` call in ``expr``, or a name bound to one
    in this function or an enclosing one."""
    for node in ast.walk(expr):
        if _is_call_to(scopes, node, "time.monotonic"):
            return True
        if isinstance(node, ast.Name) and scope is not None:
            binding = scope.lookup(node.id)
            if binding is not expr and binding is not None and _is_call_to(
                scopes, binding, "time.monotonic"
            ):
                return True
    return False


def _mentions_deadline(expr: ast.AST) -> bool:
    return any(
        isinstance(node, (ast.Name, ast.Attribute))
        and _is_deadline_name(dotted_name(node, through_subscripts=True))
        for node in ast.walk(expr)
    )


@register_rule
class WallClockDeadlineRule(LintRule):
    """TIME001 — ``time.time()`` feeding deadline/backoff arithmetic.

    Wall clocks jump (NTP, DST, manual adjustment); a deadline or
    backoff computed from ``time.time()`` can fire years early or
    never.  Deadline arithmetic must use ``time.monotonic()`` —
    wall-clock reads are fine for timestamps that are only recorded.
    """

    code = "TIME001"
    name = "wall-clock-deadline"
    description = (
        "wall-clock time.time() used in deadline/backoff arithmetic"
    )

    def check(self, ctx: FileContext) -> Iterator[Diagnostic]:
        scopes = _ModuleScopes(ctx.tree)
        yield from self._check_scope(ctx, scopes, None, ctx.tree)

    def _check_scope(
        self,
        ctx: FileContext,
        scopes: _ModuleScopes,
        scope: Optional[_Scope],
        root: ast.AST,
    ) -> Iterator[Diagnostic]:
        parents: Dict[int, ast.AST] = {}
        for node in _scope_walk(root):
            for child in ast.iter_child_nodes(node):
                parents[id(child)] = node
        for node in _scope_walk(root):
            inner = scopes.scopes.get(id(node))
            if inner is not None and node is not root:
                yield from self._check_scope(ctx, scopes, inner, node)
                continue
            if not _is_call_to(scopes, node, "time.time"):
                continue
            offense = self._offending_use(scopes, scope, parents, node)
            if offense is not None:
                yield self.diag(
                    ctx,
                    node,
                    f"wall-clock time.time() {offense} — use "
                    "time.monotonic() for deadline/backoff arithmetic",
                )

    @staticmethod
    def _offending_use(
        scopes: _ModuleScopes,
        scope: Optional[_Scope],
        parents: Dict[int, ast.AST],
        call: ast.AST,
    ) -> Optional[str]:
        cur = call
        while True:
            parent = parents.get(id(cur))
            if parent is None:
                return None
            if isinstance(parent, (ast.BinOp, ast.Compare, ast.IfExp)):
                for sib in ast.iter_child_nodes(parent):
                    if sib is cur or isinstance(
                        sib, (ast.operator, ast.cmpop, ast.boolop)
                    ):
                        continue
                    if _mentions_monotonic(scopes, scope, sib):
                        return "mixed with a time.monotonic() value"
                    if _mentions_deadline(sib):
                        return "compared/combined with a deadline value"
            if isinstance(parent, ast.keyword) and _is_deadline_name(
                parent.arg
            ):
                return f"passed as {parent.arg!r}"
            if isinstance(parent, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = (
                    parent.targets
                    if isinstance(parent, ast.Assign)
                    else [parent.target]
                )
                for target in targets:
                    text = dotted_name(target, through_subscripts=True)
                    if _is_deadline_name(text):
                        return f"assigned to {text!r}"
                return None
            if isinstance(parent, ast.stmt):
                return None
            cur = parent
