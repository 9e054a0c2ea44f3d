"""State-machine verifier: transition tables proved against call sites.

The service job lifecycle is a literal transition table
(``repro.service.queue._TRANSITIONS``) enforced at runtime by
``Job.transition``.  Runtime enforcement means an illegal edge is an
*exception in production*; this pass proves the same properties at
lint time, so an edit to the table or to a ``.transition(...)`` call
site fails CI instead of a live request:

=====  ==============================================================
SM001  a literal ``.transition("state")`` call site is not a legal
       edge of the associated table (unknown state, unreachable
       target, or an adjacent transition pair that is not an edge)
SM002  the table itself is malformed: an edge points at an undeclared
       state, a state is unreachable from the initial state, a
       declared-terminal state has outgoing edges, or a state with no
       outgoing edges is not declared terminal
=====  ==============================================================

A *table* is any module-level dict literal bound to a name ending in
``_TRANSITIONS`` (or named ``TRANSITIONS``) mapping string states to
tuples/lists of string states; the **first key is the initial
state** (insertion order — the convention ``queue._TRANSITIONS``
follows).  A companion binding with the same prefix and a
``_TERMINAL`` suffix (tuple/list/set of strings) declares the
terminal states.  Call sites are associated with the tables of their
own module first, then with tables of modules they import from, then
with a unique project-wide table; a site is flagged only when it is
illegal against *every* candidate table.  Like every rule in this
family the verifier skips what it cannot prove: non-literal
``.transition(expr)`` arguments are ignored.
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
    "TransitionTableRule",
]


@dataclass
class TransitionTable:
    """One extracted ``*_TRANSITIONS`` dict literal."""

    module: str
    path: str
    name: str
    node: ast.Dict
    #: state → allowed successor states, in declaration order
    edges: Dict[str, Tuple[str, ...]] = field(default_factory=dict)
    #: lineno/col of each state's key constant, for anchoring
    anchors: Dict[str, Tuple[int, int]] = field(default_factory=dict)
    #: anchors of each (src, dst) edge element constant
    edge_anchors: Dict[Tuple[str, str], Tuple[int, int]] = field(
        default_factory=dict
    )
    #: declared terminal states (None when no companion binding exists)
    terminal: Optional[Tuple[str, ...]] = None

    @property
    def initial(self) -> Optional[str]:
        """The initial state: the table's first declared key."""
        return next(iter(self.edges), None)

    def states(self) -> Set[str]:
        return set(self.edges)

    def reachable(self) -> Set[str]:
        start = self.initial
        if start is None:
            return set()
        seen = {start}
        stack = [start]
        while stack:
            for dst in self.edges.get(stack.pop(), ()):
                if dst not in seen:
                    seen.add(dst)
                    stack.append(dst)
        return seen

    def in_degree(self, state: str) -> int:
        return sum(
            1
            for dsts in self.edges.values()
            for dst in dsts
            if dst == state
        )


def _literal_states(node: ast.AST) -> Optional[List[Tuple[str, ast.AST]]]:
    """``("a", "b")`` → the strings with their nodes; None if not a
    homogeneous string tuple/list/set literal."""
    if not isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        return None
    out: List[Tuple[str, ast.AST]] = []
    for elt in node.elts:
        if not (
            isinstance(elt, ast.Constant) and isinstance(elt.value, str)
        ):
            return None
        out.append((elt.value, elt))
    return out


def _table_from_binding(
    summary: ModuleSummary, name: str, value: ast.AST
) -> Optional[TransitionTable]:
    if not isinstance(value, ast.Dict):
        return None
    table = TransitionTable(
        module=summary.module, path=summary.path, name=name, node=value
    )
    for key, val in zip(value.keys, value.values):
        if not (
            isinstance(key, ast.Constant) and isinstance(key.value, str)
        ):
            return None
        states = _literal_states(val)
        if states is None:
            return None
        src = key.value
        table.edges[src] = tuple(s for s, _ in states)
        table.anchors[src] = (key.lineno, key.col_offset + 1)
        for dst, elt in states:
            table.edge_anchors.setdefault(
                (src, dst),
                (
                    getattr(elt, "lineno", val.lineno),
                    getattr(elt, "col_offset", val.col_offset) + 1,
                ),
            )
    return table if table.edges else None


def collect_tables(project: Project) -> List[TransitionTable]:
    """Every ``*_TRANSITIONS`` table in the indexed modules, with its
    companion ``*_TERMINAL`` declaration attached when present (the
    state-machine rules' view of the shared index)."""
    tables: List[TransitionTable] = []
    for module in sorted(project.index.modules):
        summary = project.index.modules[module]
        for name, value in summary.module_bindings.items():
            if not (
                name == "TRANSITIONS" or name.endswith("_TRANSITIONS")
            ):
                continue
            table = _table_from_binding(summary, name, value)
            if table is None:
                continue
            prefix = name[: -len("TRANSITIONS")]
            companion = summary.module_bindings.get(f"{prefix}TERMINAL")
            if companion is not None:
                states = _literal_states(companion)
                if states is not None:
                    table.terminal = tuple(s for s, _ in states)
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
class TransitionTableRule(LintRule):
    """SM002 — the transition table itself violates an invariant."""

    code = "SM002"
    family = "service"
    name = "state-machine-table"
    description = (
        "transition table is malformed (dangling edge, unreachable "
        "state, or inconsistent terminal declaration)"
    )

    def project_check(self, project: Project) -> Iterator[Diagnostic]:
        for table in project.view(collect_tables):
            yield from self._check_table(table)

    def _diag(
        self,
        table: TransitionTable,
        anchor: Tuple[int, int],
        message: str,
    ) -> Diagnostic:
        return Diagnostic(
            path=table.path,
            line=anchor[0],
            col=anchor[1],
            code=self.code,
            message=f"{table.name}: {message}",
        )

    def _check_table(
        self, table: TransitionTable
    ) -> Iterator[Diagnostic]:
        states = table.states()
        for (src, dst), anchor in sorted(table.edge_anchors.items()):
            if dst not in states:
                yield self._diag(
                    table,
                    anchor,
                    f"edge '{src}' -> '{dst}' points at an "
                    "undeclared state",
                )
        reachable = table.reachable()
        for src in table.edges:
            if src not in reachable:
                yield self._diag(
                    table,
                    table.anchors[src],
                    f"state '{src}' is unreachable from the initial "
                    f"state '{table.initial}'",
                )
        terminal = table.terminal
        if terminal is None:
            return
        for src, dsts in table.edges.items():
            if src in terminal and dsts:
                yield self._diag(
                    table,
                    table.anchors[src],
                    f"terminal state '{src}' has outgoing edge(s) "
                    f"{list(dsts)}",
                )
            if not dsts and src not in terminal:
                yield self._diag(
                    table,
                    table.anchors[src],
                    f"state '{src}' has no outgoing edges but is not "
                    "declared terminal",
                )
        for src in terminal:
            if src not in states:
                anchor = (table.node.lineno, table.node.col_offset + 1)
                yield self._diag(
                    table,
                    anchor,
                    f"declared terminal state '{src}' is not a state "
                    "of the table",
                )


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
