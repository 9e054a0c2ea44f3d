"""State-machine verifier: ``.transition(...)`` call sites proved
against the transition table.

The service job lifecycle is a literal transition table
(``repro.service.queue._TRANSITIONS``) enforced at runtime by
``Job.transition``.  Runtime enforcement means a misspelt state is an
*exception in production*, and only on the paths a test drives; this
pass checks every literal call site at lint time:

=====  ==============================================================
SM001  a literal ``.transition("state")`` call site is not a legal
       edge of the associated table (unknown state, unreachable
       target, or an adjacent transition pair that is not an edge)
=====  ==============================================================

A *table* is any module-level dict literal bound to a name ending in
``_TRANSITIONS`` (or named ``TRANSITIONS``) mapping string states to
tuples/lists of string states.  The table's own shape (every target
declared, every state reachable, terminal states exactly the dead
ends) is asserted beside the table, in ``tests/service/test_queue.py``.
Call sites are associated with the tables of their own module first,
then with tables of modules they import from, then with a unique
project-wide table; a site is flagged only when it is illegal against
*every* candidate table.  Like every rule in this family the verifier
skips what it cannot prove: non-literal ``.transition(expr)``
arguments are ignored, and it is not path-sensitive — a lone literal
call is checked against the table's state set, not against the state
the receiver is in.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Set, Tuple

from repro.analysis.dataflow import (
    FunctionSummary,
    ModuleSummary,
    ProjectIndex,
    dotted_text,
)
from repro.analysis.engine import (
    Diagnostic,
    LintRule,
    Project,
    register_rule,
)
from repro.analysis.asynccheck import scope_walk

__all__ = [
    "TransitionTable",
    "collect_tables",
    "TransitionCallRule",
]


@dataclass
class TransitionTable:
    """One extracted ``*_TRANSITIONS`` dict literal."""

    module: str
    name: str
    #: state → allowed successor states, in declaration order
    edges: Dict[str, Tuple[str, ...]] = field(default_factory=dict)

    def states(self) -> Set[str]:
        return set(self.edges)

    def in_degree(self, state: str) -> int:
        return sum(
            1
            for dsts in self.edges.values()
            for dst in dsts
            if dst == state
        )


def _literal_states(node: ast.AST) -> Optional[Tuple[str, ...]]:
    """``("a", "b")`` → the strings; None if not a homogeneous string
    tuple/list/set literal."""
    if not isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return None
    out: List[str] = []
    for elt in node.elts:
        if not (
            isinstance(elt, ast.Constant) and isinstance(elt.value, str)
        ):
            return None
        out.append(elt.value)
    return tuple(out)


def _table_from_binding(
    summary: ModuleSummary, name: str, value: ast.AST
) -> Optional[TransitionTable]:
    if not isinstance(value, ast.Dict):
        return None
    table = TransitionTable(module=summary.module, name=name)
    for key, val in zip(value.keys, value.values):
        if not (
            isinstance(key, ast.Constant) and isinstance(key.value, str)
        ):
            return None
        states = _literal_states(val)
        if states is None:
            return None
        table.edges[key.value] = states
    return table if table.edges else None


def collect_tables(project: Project) -> List[TransitionTable]:
    """Every ``*_TRANSITIONS`` table in the indexed modules (the
    state-machine rule's view of the shared index)."""
    tables: List[TransitionTable] = []
    for module in sorted(project.index.modules):
        summary = project.index.modules[module]
        for name, value in summary.module_bindings.items():
            if not (
                name == "TRANSITIONS" or name.endswith("_TRANSITIONS")
            ):
                continue
            table = _table_from_binding(summary, name, value)
            if table is not None:
                tables.append(table)
    return tables


def _candidate_tables(
    index: ProjectIndex,
    tables: List[TransitionTable],
    module: str,
) -> List[TransitionTable]:
    """Tables a ``.transition(...)`` site in ``module`` may refer to."""
    own = [t for t in tables if t.module == module]
    if own:
        return own
    summary = index.modules.get(module)
    if summary is not None:
        imported_mods = set()
        for target in summary.imports.values():
            imported_mods.add(target)
            imported_mods.add(target.rpartition(".")[0])
        via_imports = [t for t in tables if t.module in imported_mods]
        if via_imports:
            return via_imports
    return tables if len(tables) == 1 else []


@register_rule
class TransitionCallRule(LintRule):
    """SM001 — a literal ``.transition(...)`` site is not a legal edge.

    Single literal calls are checked against the table's state set and
    in-degree (a transition *into* a state no edge reaches can never
    succeed); **adjacent** literal transition statements on the same
    receiver must additionally form a legal edge — the first call
    leaves the receiver in its argument state, so the pair is exactly
    one path through the table.
    """

    code = "SM001"
    family = "service"
    name = "state-machine-call"
    description = (
        "literal .transition(...) call site is not a legal edge of "
        "the transition table"
    )

    def project_check(self, project: Project) -> Iterator[Diagnostic]:
        tables = project.view(collect_tables)
        if not tables:
            return
        for module in sorted(project.index.modules):
            summary = project.index.modules[module]
            candidates = _candidate_tables(project.index, tables, module)
            if not candidates:
                continue
            for fn in summary.functions.values():
                if not isinstance(
                    fn.node, (ast.FunctionDef, ast.AsyncFunctionDef)
                ):
                    continue
                yield from self._check_function(fn, candidates)

    @staticmethod
    def _literal_transition(
        stmt: ast.stmt,
    ) -> Optional[Tuple[str, str, ast.Call]]:
        """``recv.transition("s")`` statement → (receiver, state, call)."""
        if not isinstance(stmt, ast.Expr) or not isinstance(
            stmt.value, ast.Call
        ):
            return None
        call = stmt.value
        if not (
            isinstance(call.func, ast.Attribute)
            and call.func.attr == "transition"
            and len(call.args) == 1
            and isinstance(call.args[0], ast.Constant)
            and isinstance(call.args[0].value, str)
        ):
            return None
        receiver = dotted_text(call.func.value)
        if receiver is None:
            return None
        return receiver, call.args[0].value, call

    def _check_function(
        self, fn: FunctionSummary, tables: List[TransitionTable]
    ) -> Iterator[Diagnostic]:
        # single-site legality: every literal argument must be a state
        # that at least one edge can reach
        for call in fn.calls:
            if not call.name.endswith(".transition"):
                continue
            if not (
                len(call.node.args) == 1
                and isinstance(call.node.args[0], ast.Constant)
                and isinstance(call.node.args[0].value, str)
            ):
                continue
            state = call.node.args[0].value
            if all(state not in t.states() for t in tables):
                yield self.diag(
                    fn,
                    call.node,
                    f".transition({state!r}): '{state}' is not a "
                    f"state of {self._table_names(tables)}",
                )
            elif all(t.in_degree(state) == 0 for t in tables):
                yield self.diag(
                    fn,
                    call.node,
                    f".transition({state!r}): no edge of "
                    f"{self._table_names(tables)} enters '{state}' — "
                    "this call always raises",
                )
        # adjacent-pair legality on the same receiver
        for block in self._statement_blocks(fn.node):
            prev: Optional[Tuple[str, str, ast.Call]] = None
            for stmt in block:
                cur = self._literal_transition(stmt)
                if (
                    cur is not None
                    and prev is not None
                    and cur[0] == prev[0]
                    and all(
                        cur[1] not in t.edges.get(prev[1], ())
                        for t in tables
                        if prev[1] in t.states()
                        and cur[1] in t.states()
                    )
                    and any(
                        prev[1] in t.states() and cur[1] in t.states()
                        for t in tables
                    )
                ):
                    yield self.diag(
                        fn,
                        cur[2],
                        f"consecutive transitions '{prev[1]}' -> "
                        f"'{cur[1]}' on '{cur[0]}' is not an edge of "
                        f"{self._table_names(tables)}",
                    )
                prev = cur
        return

    @staticmethod
    def _table_names(tables: List[TransitionTable]) -> str:
        return " or ".join(
            f"{t.module}.{t.name}" for t in tables
        )

    @staticmethod
    def _statement_blocks(root: ast.AST) -> Iterator[List[ast.stmt]]:
        """Every statement list (function body, branch bodies, ...)
        within one function scope."""
        for node in scope_walk(root):
            for attr in ("body", "orelse", "finalbody"):
                block = getattr(node, attr, None)
                if (
                    isinstance(block, list)
                    and block
                    and isinstance(block[0], ast.stmt)
                ):
                    yield block
