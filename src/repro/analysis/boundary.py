"""Trust-boundary taint pass: request bytes must be validated first.

The service trust model (``docs/SERVICE.md``) is *certify the
boundary*: an HTTP body is untrusted until it has passed through a
``repro.service.schemas`` validator, after which the engine treats it
as a well-formed job request.  TRUST001 machine-checks that model: it
marks every ``json.loads(...)`` result in a ``repro.service`` module
as tainted, propagates the taint through assignments, containers, and
calls into other ``repro.service`` functions, clears it at
``schemas.validate_*`` calls, and reports any tainted value that
reaches a filesystem / subprocess / ``np.load`` sink.

The pass is intraprocedural per function with a call-following step:
a call whose argument is tainted re-analyses the callee with the
matching parameters tainted (memoised, so mutual recursion
terminates).  Heap flows are deliberately out of scope — storing a
request on an object and reading it back elsewhere is exactly the
pattern the validate-at-admission design forbids, and the admission
path itself is what this rule proves.  Like the other service rules
it under-approximates: names it cannot resolve are never guessed.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

from repro.analysis.dataflow import (
    FunctionSummary,
    ModuleSummary,
    dotted_text,
)
from repro.analysis.engine import (
    Diagnostic,
    LintRule,
    Project,
    register_rule,
)
from repro.analysis.asynccheck import (
    ServiceProject,
    build_service_project,
    expanded_call_name,
)

__all__ = ["TrustBoundaryRule", "SINK_CALLS", "SINK_METHOD_TAILS"]

#: modules the taint pass covers (the trust boundary lives here)
_SCOPE_PREFIX = "repro.service"

#: expanded dotted call → sink description
SINK_CALLS: Dict[str, str] = {
    "open": "filesystem",
    "io.open": "filesystem",
    "os.remove": "filesystem",
    "os.replace": "filesystem",
    "os.rename": "filesystem",
    "os.makedirs": "filesystem",
    "os.listdir": "filesystem",
    "os.stat": "filesystem",
    "os.path.realpath": "filesystem (path probe)",
    "shutil.rmtree": "filesystem",
    "shutil.copy": "filesystem",
    "shutil.copyfile": "filesystem",
    "shutil.move": "filesystem",
    "subprocess.run": "subprocess",
    "subprocess.call": "subprocess",
    "subprocess.check_call": "subprocess",
    "subprocess.check_output": "subprocess",
    "subprocess.Popen": "subprocess",
    "numpy.load": "np.load",
    "numpy.loadtxt": "np.load",
    "numpy.genfromtxt": "np.load",
    "numpy.fromfile": "np.load",
    "numpy.save": "np.save",
    "numpy.savez": "np.save",
    "numpy.savez_compressed": "np.save",
    "repro.mesh.io.load_mesh": "mesh loader",
}

#: method tails that are sinks when their receiver or argument is
#: tainted (pathlib-style I/O)
SINK_METHOD_TAILS: Dict[str, str] = {
    "read_text": "filesystem",
    "read_bytes": "filesystem",
    "write_text": "filesystem",
    "write_bytes": "filesystem",
    "unlink": "filesystem",
    "rmdir": "filesystem",
}

#: expanded calls whose *result* is untrusted request data
_SOURCE_CALLS = frozenset({"json.loads", "json.load"})

_FOLLOW_DEPTH = 8


@register_rule
class TrustBoundaryRule(LintRule):
    """TRUST001 — unvalidated request data reaches a dangerous sink."""

    code = "TRUST001"
    family = "service"
    name = "trust-boundary-taint"
    description = (
        "HTTP request data reaches a filesystem/subprocess/np.load "
        "sink without passing a repro.service.schemas validator"
    )

    def project_check(self, source: Project) -> Iterator[Diagnostic]:
        project = source.view(build_service_project)
        checker = _TaintChecker(project)
        for fn in project.index.functions():
            if fn.module.startswith(_SCOPE_PREFIX) and isinstance(
                fn.node, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                checker.analyze(fn, frozenset())
        yield from sorted(set(checker.findings))


class _TaintChecker:
    """Runs the per-function taint pass, following tainted calls."""

    def __init__(self, project: ServiceProject) -> None:
        self.project = project
        self.findings: List[Diagnostic] = []
        self._memo: Set[Tuple[str, str, FrozenSet[str]]] = set()

    # -- entry ---------------------------------------------------------
    def analyze(
        self,
        fn: FunctionSummary,
        tainted_params: FrozenSet[str],
        depth: int = 0,
    ) -> None:
        key = (fn.module, fn.qualname, tainted_params)
        if key in self._memo or depth > _FOLLOW_DEPTH:
            return
        self._memo.add(key)
        summary = self.project.index.modules[fn.module]
        run = _FunctionRun(self, summary, fn, set(tainted_params), depth)
        body = getattr(fn.node, "body", None)
        if isinstance(body, list):
            # two passes approximate the loop-carried fixpoint
            run.scan_block(body)
            run.scan_block(body)

    # -- classification ------------------------------------------------
    def is_source(self, summary: ModuleSummary, call: ast.Call) -> bool:
        name = dotted_text(call.func)
        return (
            name is not None
            and expanded_call_name(summary, name) in _SOURCE_CALLS
        )

    def is_sanitizer(
        self, summary: ModuleSummary, fn: FunctionSummary, call: ast.Call
    ) -> bool:
        name = dotted_text(call.func)
        if name is None:
            return False
        expanded = expanded_call_name(summary, name)
        if expanded.startswith(f"{_SCOPE_PREFIX}.schemas.validate"):
            return True
        for target in self.project.resolve_call_targets(fn, name):
            if target.module.endswith(".schemas") and target.name.startswith(
                "validate"
            ):
                return True
        return False

    def sink_description(
        self, summary: ModuleSummary, call: ast.Call
    ) -> Optional[Tuple[str, str]]:
        """(rendered call, sink kind) when ``call`` is a sink."""
        name = dotted_text(call.func)
        if name is None:
            return None
        expanded = expanded_call_name(summary, name)
        kind = SINK_CALLS.get(expanded)
        if kind is not None:
            return expanded, kind
        tail = name.rsplit(".", 1)[-1]
        kind = SINK_METHOD_TAILS.get(tail)
        if kind is not None and "." in name:
            return name, kind
        return None


class _FunctionRun:
    """One taint pass over one function body."""

    def __init__(
        self,
        checker: _TaintChecker,
        summary: ModuleSummary,
        fn: FunctionSummary,
        env: Set[str],
        depth: int,
    ) -> None:
        self.checker = checker
        self.summary = summary
        self.fn = fn
        self.env = env
        self.depth = depth

    # -- expression taint ----------------------------------------------
    def tainted(self, expr: ast.AST) -> bool:
        if isinstance(expr, ast.Call):
            if self.checker.is_sanitizer(self.summary, self.fn, expr):
                return False
            if self.checker.is_source(self.summary, expr):
                return True
            return any(self.tainted(a) for a in expr.args) or any(
                self.tainted(k.value) for k in expr.keywords
            )
        if isinstance(expr, ast.Name):
            return expr.id in self.env
        if isinstance(expr, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            return False
        return any(
            self.tainted(child)
            for child in ast.iter_child_nodes(expr)
            if isinstance(child, ast.expr)
        )

    # -- call inspection (sinks + interprocedural follow) --------------
    def visit_calls(self, node: ast.AST) -> None:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Call):
                self._check_call(sub)

    def _check_call(self, call: ast.Call) -> None:
        if self.checker.is_sanitizer(self.summary, self.fn, call):
            return
        args = list(call.args) + [k.value for k in call.keywords]
        sink = self.checker.sink_description(self.summary, call)
        if sink is not None:
            rendered, kind = sink
            exposed = [a for a in args if self.tainted(a)]
            receiver = (
                call.func.value
                if isinstance(call.func, ast.Attribute)
                else None
            )
            if receiver is not None and self.tainted(receiver):
                exposed.append(receiver)
            if exposed:
                self.checker.findings.append(
                    Diagnostic(
                        path=self.fn.path,
                        line=call.lineno,
                        col=call.col_offset + 1,
                        code="TRUST001",
                        message=(
                            f"request-derived value reaches {kind} "
                            f"sink {rendered}(...) without passing a "
                            f"{_SCOPE_PREFIX}.schemas validator"
                        ),
                    )
                )
        self._follow_call(call)

    def _follow_call(self, call: ast.Call) -> None:
        name = dotted_text(call.func)
        if name is None:
            return
        targets = self.checker.project.resolve_call_targets(self.fn, name)
        for target in targets:
            if not target.module.startswith(_SCOPE_PREFIX):
                continue
            if target.module.endswith(".schemas"):
                continue  # the validators ARE the boundary
            params = self._positional_params(target, name)
            tainted_params: Set[str] = set()
            for i, arg in enumerate(call.args):
                if (
                    not isinstance(arg, ast.Starred)
                    and i < len(params)
                    and self.tainted(arg)
                ):
                    tainted_params.add(params[i])
            for kw in call.keywords:
                if kw.arg is not None and self.tainted(kw.value):
                    if kw.arg in target.params:
                        tainted_params.add(kw.arg)
            if tainted_params:
                self.checker.analyze(
                    target, frozenset(tainted_params), self.depth + 1
                )

    @staticmethod
    def _positional_params(
        target: FunctionSummary, call_name: str
    ) -> List[str]:
        args = getattr(target.node, "args", None)
        if args is None:
            return []
        names = [
            a.arg for a in list(args.posonlyargs) + list(args.args)
        ]
        # bound-method call: the receiver consumes the self/cls slot
        if names and names[0] in ("self", "cls") and "." in call_name:
            names = names[1:]
        return names

    # -- statement scan ------------------------------------------------
    def scan_block(self, stmts: List[ast.stmt]) -> None:
        for stmt in stmts:
            self.scan_stmt(stmt)

    def scan_stmt(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return  # nested defs are scanned as their own roots
        if isinstance(stmt, ast.Assign):
            self.visit_calls(stmt.value)
            taint = self.tainted(stmt.value)
            for target in stmt.targets:
                self._bind_target(target, taint)
            return
        if isinstance(stmt, ast.AnnAssign):
            if stmt.value is not None:
                self.visit_calls(stmt.value)
                self._bind_target(stmt.target, self.tainted(stmt.value))
            return
        if isinstance(stmt, ast.AugAssign):
            self.visit_calls(stmt.value)
            if isinstance(stmt.target, ast.Name) and self.tainted(
                stmt.value
            ):
                self.env.add(stmt.target.id)
            return
        if isinstance(stmt, ast.If):
            self.visit_calls(stmt.test)
            before = set(self.env)
            self.scan_block(stmt.body)
            after_body = set(self.env)
            self.env = set(before)
            self.scan_block(stmt.orelse)
            self.env |= after_body
            return
        if isinstance(stmt, ast.While):
            self.visit_calls(stmt.test)
            before = set(self.env)
            # twice: taint introduced late in the body reaches sinks
            # early in the next iteration
            self.scan_block(stmt.body)
            self.scan_block(stmt.body)
            self.env |= before  # the loop may run zero times
            self.scan_block(stmt.orelse)
            return
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            self.visit_calls(stmt.iter)
            before = set(self.env)
            self._bind_target(stmt.target, self.tainted(stmt.iter))
            self.scan_block(stmt.body)
            self.scan_block(stmt.body)  # loop-carried taint
            self.env |= before
            self.scan_block(stmt.orelse)
            return
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                self.visit_calls(item.context_expr)
                if item.optional_vars is not None:
                    self._bind_target(
                        item.optional_vars,
                        self.tainted(item.context_expr),
                    )
            self.scan_block(stmt.body)
            return
        if isinstance(stmt, ast.Try):
            self.scan_block(stmt.body)
            for handler in stmt.handlers:
                self.scan_block(handler.body)
            self.scan_block(stmt.orelse)
            self.scan_block(stmt.finalbody)
            return
        # returns, raises, expression statements, asserts, ...
        self.visit_calls(stmt)

    def _bind_target(self, target: ast.AST, taint: bool) -> None:
        if isinstance(target, ast.Name):
            if taint:
                self.env.add(target.id)
            else:
                self.env.discard(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                self._bind_target(elt, taint)
        elif isinstance(target, ast.Starred):
            self._bind_target(target.value, taint)
        # attribute/subscript stores are heap flows: out of scope
