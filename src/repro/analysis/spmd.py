"""SPMD-safety rule family: prove supersteps race-free.

The execution backends (:mod:`repro.runtime.backends`) only stay
bit-identical to the serial reference because superstep functions obey
a contract nothing enforces at runtime: mutate only ``ctx.state``.
This module checks that contract statically.

Unlike the per-file rules of :mod:`repro.analysis.rules`, the SPMD
family is a *project rule*: :func:`build_spmd_project` reads
the engine's shared dataflow index, finds every superstep handed to
``spmd_run`` or ``session.step`` (direct references, ``Class.method``
references, lambdas, ``functools.partial`` and
:class:`~repro.runtime.faults.ChaosStep` wrappers, and nested
functions) and closes over the call graph; the rule runs over the
reachable rank code (``repro-lint --spmd``):

========  ===========================================================
SPMD001   superstep mutates a captured or global mutable (thread race)
========  ===========================================================

Every finding is validated dynamically by the race sentinel
(:mod:`repro.runtime.backends.sentinel`) in the test suite; see
``docs/STATIC_ANALYSIS.md`` for the offending/clean example catalogue.
The analysis is conservative: names it cannot resolve are never
guessed, so it under-approximates (no finding is emitted on code it
cannot prove reaches a rank).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

from repro.analysis.dataflow import (
    FunctionSummary,
    ModuleSummary,
    Mutation,
    ProjectIndex,
    dotted_parts,
)
from repro.analysis.engine import (
    Diagnostic,
    LintRule,
    Project,
    register_rule,
)

#: receiver names always treated as SPMD sessions (besides variables
#: provably assigned from an ``open_session(...)`` call)
SESSION_NAMES = frozenset({"sess", "session", "spmd_session"})

@dataclass
class SpmdProject:
    """Everything the SPMD rule inspects about one analysed tree."""

    #: every function handed to the runtime as a superstep, once
    supersteps: List[FunctionSummary]
    #: supersteps plus everything they transitively call (deduplicated)
    rank_functions: List[FunctionSummary]

    def is_superstep(self, fn: FunctionSummary) -> bool:
        return any(step is fn for step in self.supersteps)


# ----------------------------------------------------------------------
# superstep discovery
# ----------------------------------------------------------------------


def _iter_calls_with_scope(
    summary: ModuleSummary,
) -> Iterator[Tuple[ast.Call, Optional[FunctionSummary]]]:
    """Every call expression in the module, paired with its enclosing
    function summary (``None`` at module level)."""
    fn_by_node = summary.by_node()

    def rec(
        node: ast.AST, scope: Optional[FunctionSummary]
    ) -> Iterator[Tuple[ast.Call, Optional[FunctionSummary]]]:
        for child in ast.iter_child_nodes(node):
            child_scope = fn_by_node.get(id(child), scope)
            if isinstance(child, ast.Call):
                yield child, scope
            yield from rec(child, child_scope)

    return rec(summary.tree, None)


#: wrapper factories whose first argument is the real superstep; the
#: resolver looks through them (functools.partial, and the fault
#: harness's ChaosStep / retry-disarm wrapper)
STEP_WRAPPER_NAMES = frozenset({"partial", "ChaosStep", "_disarm_step"})


def _callee_tail(node: ast.Call) -> Optional[str]:
    parts = dotted_parts(node.func)
    return parts[-1] if parts else None


def _resolve_step_expr(
    index: ProjectIndex,
    summary: ModuleSummary,
    scope: Optional[FunctionSummary],
    expr: ast.AST,
) -> Optional[FunctionSummary]:
    """Resolve an expression passed as a superstep to its summary."""
    if isinstance(expr, ast.Lambda):
        for fn in summary.functions.values():
            if fn.node is expr:
                return fn
        return None
    if isinstance(expr, ast.Call):
        tail = _callee_tail(expr)
        if tail in STEP_WRAPPER_NAMES and expr.args:
            return _resolve_step_expr(index, summary, scope, expr.args[0])
        return None
    if isinstance(expr, ast.Name):
        s = scope
        while s is not None:
            nested = summary.functions.get(
                f"{s.qualname}.<locals>.{expr.id}"
            )
            if nested is not None:
                return nested
            binding = s.bindings.get(expr.id)
            if binding is not None and binding is not expr:
                resolved = _resolve_step_expr(index, summary, s, binding)
                if resolved is not None:
                    return resolved
            s = s.parent
        return index.resolve_function(summary.module, expr.id)
    if isinstance(expr, ast.Attribute):
        parts = dotted_parts(expr)
        if parts is not None:
            return index.resolve_function(summary.module, ".".join(parts))
    return None


def _step_exprs_of_call(
    call: ast.Call,
    summary: ModuleSummary,
    scope: Optional[FunctionSummary],
) -> List[ast.AST]:
    """Superstep expressions registered by ``call`` (empty when the
    call is not a registration site)."""
    tail = _callee_tail(call)
    if tail == "spmd_run":
        steps: Optional[ast.AST] = None
        if len(call.args) >= 2:
            steps = call.args[1]
        for kw in call.keywords:
            if kw.arg == "supersteps":
                steps = kw.value
        if isinstance(steps, ast.Name):
            bound = (
                scope.lookup_binding(steps.id)
                if scope is not None
                else None
            )
            if bound is None:
                bound = summary.module_bindings.get(steps.id)
            steps = bound
        if isinstance(steps, (ast.List, ast.Tuple)):
            return list(steps.elts)
        return []
    if tail == "step" and isinstance(call.func, ast.Attribute):
        recv = call.func.value
        is_session = False
        if isinstance(recv, ast.Name):
            is_session = (
                recv.id in SESSION_NAMES
                or recv.id in summary.session_names
            )
        elif isinstance(recv, ast.Call):
            recv_tail = _callee_tail(recv)
            is_session = recv_tail == "open_session"
        if is_session and call.args:
            return [call.args[0]]
    return []


def build_spmd_project(source: Project) -> SpmdProject:
    """Locate supersteps and close over the call graph (the SPMD
    family's view of the shared index)."""
    index = source.index
    supersteps: Dict[Tuple[str, str], FunctionSummary] = {}
    for summary in index.modules.values():
        for call, scope in _iter_calls_with_scope(summary):
            for expr in _step_exprs_of_call(call, summary, scope):
                fn = _resolve_step_expr(index, summary, scope, expr)
                if fn is not None:
                    supersteps.setdefault((fn.module, fn.qualname), fn)
    return SpmdProject(
        supersteps=list(supersteps.values()),
        rank_functions=index.reachable(supersteps.values()),
    )


# ----------------------------------------------------------------------
# rule machinery
# ----------------------------------------------------------------------


def _ctx_param(fn: FunctionSummary) -> Optional[str]:
    """Name of the superstep context parameter (the first one)."""
    node = fn.node
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        args = node.args
        ordered = list(args.posonlyargs) + list(args.args)
        if ordered:
            return ordered[0].arg
    return None


def _alias_chain(
    fn: FunctionSummary, root: str
) -> Optional[Tuple[str, ...]]:
    """One-level alias chase: the dotted chain of the expression bound
    to ``root`` in this scope (``nd = ctx.state["x"]`` → ``("ctx",
    "state")``)."""
    binding = fn.bindings.get(root)
    if binding is None:
        return None
    return dotted_parts(binding)


@register_rule
class SharedMutationRule(LintRule):
    """SPMD001 — rank code mutates state shared across ranks.

    On :class:`~repro.runtime.backends.thread.ThreadBackend` every rank
    of a superstep runs concurrently in one address space; writing to a
    captured variable, a module-level mutable, ``ctx.shared``, or the
    broadcast step argument is a data race that the serial backend
    silently masks.  Mutation must stay confined to ``ctx.state``.
    """

    code = "SPMD001"
    family = "spmd"
    name = "spmd-shared-mutation"
    description = "superstep mutates captured/global state (thread race)"

    def project_check(self, source: Project) -> Iterator[Diagnostic]:
        project = source.view(build_spmd_project)
        for fn in project.rank_functions:
            ctx_name = _ctx_param(fn)
            is_step = project.is_superstep(fn)
            for mut in fn.mutations:
                reason = self._classify(fn, mut, ctx_name, is_step)
                if reason is not None:
                    yield self.diag(
                        fn,
                        mut.node,
                        f"rank code mutates {mut.describe()} — {reason}; "
                        f"confine per-rank mutation to ctx.state",
                    )

    @staticmethod
    def _classify(
        fn: FunctionSummary,
        mut: Mutation,
        ctx_name: Optional[str],
        is_step: bool,
    ) -> Optional[str]:
        chain = mut.chain
        root = chain[0]
        # writes through the context object
        if ctx_name is not None and root == ctx_name:
            if len(chain) >= 2 and chain[1] == "shared":
                return "ctx.shared is the read-only broadcast mapping"
            return None  # ctx.state / ctx-internal verbs are the contract
        in_place = mut.kind in ("store", "method", "delete") or (
            mut.kind == "augassign" and len(chain) > 1
        )
        if root in fn.params:
            if is_step and in_place:
                return (
                    "the step argument is one object shared by every rank"
                )
            return None
        if mut.kind == "assign" or (
            mut.kind == "augassign" and len(chain) == 1
        ):
            if root in fn.global_decls or root in fn.nonlocal_decls:
                return "rebinding a global/nonlocal races under threads"
            return None
        if not in_place:
            return None
        if root in fn.captured:
            return "it is captured from an enclosing scope"
        if root in fn.global_reads:
            return "it is a module-level object shared by every rank"
        # one-level alias chase: nd = ctx.shared[...]; nd[...] = v
        alias = _alias_chain(fn, root)
        if alias is not None:
            if (
                ctx_name is not None
                and alias[0] == ctx_name
                and len(alias) >= 2
                and alias[1] == "shared"
            ):
                return "it aliases the read-only ctx.shared mapping"
            if alias[0] in fn.global_reads or alias[0] in fn.captured:
                return "it aliases shared state from an enclosing scope"
        return None
