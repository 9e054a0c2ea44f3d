"""SPMD-safety rule family: prove supersteps race-free and deterministic.

The execution backends (:mod:`repro.runtime.backends`) only stay
bit-identical to the serial reference because superstep functions obey
contracts nothing enforces at runtime: mutate only ``ctx.state``, draw
randomness from per-rank generators, stay picklable for the process
pool, and keep every value that feeds a send or reduction
deterministic.  This module checks those contracts statically.

Unlike the per-file rules of :mod:`repro.analysis.rules`, the SPMD
family consists of *project rules*: :func:`build_spmd_project` reads
the engine's shared dataflow index, finds every superstep handed to
``spmd_run`` or ``session.step`` (direct references, ``Class.method``
references, lambdas, ``functools.partial`` and
:class:`~repro.runtime.faults.ChaosStep` wrappers, and nested
functions) and closes over the call graph; the rules run over the
reachable rank code (``repro-lint --spmd``):

========  ===========================================================
SPMD001   superstep mutates a captured or global mutable (thread race)
SPMD002   module-level RNG (``np.random.*`` / ``random.*``) in rank code
SPMD003   closure captures a provably non-picklable object
DET001    nondeterminism source in rank/coordinator code
FLOAT001  float accumulation over an unordered container
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

#: nondeterministic time/entropy calls (dotted form)
_DET_CALLS = frozenset(
    {
        "os.urandom",
        "os.getpid",
        "uuid.uuid1",
        "uuid.uuid4",
    }
)
_TIME_FUNCS = frozenset(
    {
        "time",
        "time_ns",
        "perf_counter",
        "perf_counter_ns",
        "monotonic",
        "monotonic_ns",
        "process_time",
        "process_time_ns",
    }
)

#: factory calls whose results never survive ``pickle.dumps``
_NONPICKLABLE_FACTORIES = {
    "open": "a file handle",
    "threading.Lock": "a lock",
    "threading.RLock": "a lock",
    "threading.Condition": "a condition variable",
    "threading.Event": "an event",
    "threading.Semaphore": "a semaphore",
    "threading.BoundedSemaphore": "a semaphore",
    "multiprocessing.Lock": "a lock",
    "multiprocessing.RLock": "a lock",
    "socket.socket": "a socket",
}


@dataclass
class SpmdProject:
    """Everything the SPMD rules inspect about one analysed tree."""

    index: ProjectIndex
    #: every function handed to the runtime as a superstep, once
    supersteps: List[FunctionSummary]
    #: supersteps plus everything they transitively call (deduplicated)
    rank_functions: List[FunctionSummary]
    #: functions that register supersteps (``session.step``/``spmd_run``
    #: call sites) — the merge side of the determinism contract
    coordinators: List[FunctionSummary]

    def module_of(self, fn: FunctionSummary) -> ModuleSummary:
        return self.index.modules[fn.module]

    def contract_functions(self) -> List[FunctionSummary]:
        """Rank code, then the coordinators — the two sides of the
        determinism contract — each function once."""
        both = self.rank_functions + self.coordinators
        return list({(fn.module, fn.qualname): fn for fn in both}.values())

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
    """Locate supersteps, close over the call graph, find coordinators
    (the SPMD family's view of the shared index)."""
    index = source.index
    supersteps: Dict[Tuple[str, str], FunctionSummary] = {}
    coordinators: Dict[Tuple[str, str], FunctionSummary] = {}
    for summary in index.modules.values():
        for call, scope in _iter_calls_with_scope(summary):
            exprs = _step_exprs_of_call(call, summary, scope)
            if exprs and scope is not None:
                coordinators.setdefault((scope.module, scope.qualname), scope)
            for expr in exprs:
                fn = _resolve_step_expr(index, summary, scope, expr)
                if fn is not None:
                    supersteps.setdefault((fn.module, fn.qualname), fn)
    return SpmdProject(
        index=index,
        supersteps=list(supersteps.values()),
        rank_functions=index.reachable(supersteps.values()),
        coordinators=list(coordinators.values()),
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


@register_rule
class RankRngRule(LintRule):
    """SPMD002 — module-level RNG inside rank code.

    ``np.random.*`` and ``random.*`` draw from interpreter-global
    streams; under concurrent backends the draw order depends on
    scheduling, so per-rank results diverge run to run.  Rank code must
    consume generators distributed through ``ctx.shared``/``ctx.state``
    (derived from :func:`repro.utils.rng.spawn_rngs`).
    """

    code = "SPMD002"
    family = "spmd"
    name = "spmd-rank-rng"
    description = "module-level RNG (np.random/random) in rank code"

    def project_check(self, source: Project) -> Iterator[Diagnostic]:
        project = source.view(build_spmd_project)
        for fn in project.rank_functions:
            summary = project.module_of(fn)
            for call in fn.calls:
                hit = self._rng_call(call.name, summary)
                if hit:
                    yield self.diag(
                        fn,
                        call.node,
                        f"{call.name}(...) draws from the {hit} stream — "
                        f"use the per-rank Generator handed through "
                        f"ctx.shared/ctx.state (spawn_rngs)",
                    )

    @staticmethod
    def _rng_call(name: str, summary: ModuleSummary) -> Optional[str]:
        if name.startswith("np.random.") or name.startswith("numpy.random."):
            return "process-global numpy"
        head, _, rest = name.partition(".")
        if rest and summary.imports.get(head) == "random":
            return "process-global stdlib random"
        if not rest:
            target = summary.imports.get(name, "")
            if target.startswith("random."):
                return "process-global stdlib random"
            if target.startswith("numpy.random."):
                return "process-global numpy"
        return None


@register_rule
class NonPicklableCaptureRule(LintRule):
    """SPMD003 — superstep closure captures a non-picklable object.

    The process backend pickles ``(fn, arg)`` per step; when that
    fails it silently falls back to in-process serial execution with
    only a ``RuntimeWarning`` — the run *works* but stops exercising
    real parallelism.  Capturing a lock, file handle, generator, or an
    instance of a locally defined class guarantees that fallback.
    """

    code = "SPMD003"
    family = "spmd"
    name = "spmd-nonpicklable-capture"
    description = "superstep captures a provably non-picklable object"

    def project_check(self, source: Project) -> Iterator[Diagnostic]:
        project = source.view(build_spmd_project)
        for fn in project.supersteps:
            if fn.parent is None:
                continue  # module-level functions capture nothing
            summary = project.module_of(fn)
            for name in sorted(fn.captured):
                binding = fn.captured[name]
                kind = self._nonpicklable_kind(binding, fn, summary)
                if kind is None:
                    continue
                yield self.diag(
                    fn,
                    fn.node,
                    f"superstep captures {name!r} ({kind}) — pickling "
                    f"fails, so the process backend silently falls back "
                    f"to in-process execution",
                )

    @staticmethod
    def _nonpicklable_kind(
        binding: Optional[ast.AST],
        fn: FunctionSummary,
        summary: ModuleSummary,
    ) -> Optional[str]:
        if binding is None:
            return None
        if isinstance(binding, ast.GeneratorExp):
            return "a generator"
        if isinstance(binding, ast.ClassDef):
            return "a locally defined class"
        if isinstance(binding, ast.Call):
            parts = dotted_parts(binding.func)
            if parts is None:
                return None
            name = ".".join(parts)
            if name in _NONPICKLABLE_FACTORIES:
                return _NONPICKLABLE_FACTORIES[name]
            if len(parts) == 1:
                target = summary.imports.get(parts[0], "")
                if target in _NONPICKLABLE_FACTORIES:
                    return _NONPICKLABLE_FACTORIES[target]
                # instance of a class defined in an enclosing function
                enclosing = fn.parent
                while enclosing is not None:
                    local_binding = enclosing.bindings.get(parts[0])
                    if isinstance(local_binding, ast.ClassDef):
                        return "an instance of a locally defined class"
                    enclosing = enclosing.parent
        return None


def _is_unordered_expr(
    expr: ast.AST,
    fn: Optional[FunctionSummary],
    summary: ModuleSummary,
    depth: int = 0,
) -> bool:
    """Whether ``expr`` provably evaluates to an unordered container
    (set/frozenset, directly or through one local binding)."""
    if isinstance(expr, (ast.Set, ast.SetComp)):
        return True
    if isinstance(expr, ast.Call):
        tail = _callee_tail(expr)
        return tail in ("set", "frozenset")
    if isinstance(expr, ast.Name) and depth < 2:
        binding: Optional[ast.AST] = None
        if fn is not None:
            binding = fn.lookup_binding(expr.id)
        if binding is None:
            binding = summary.module_bindings.get(expr.id)
        if binding is not None and binding is not expr:
            return _is_unordered_expr(binding, fn, summary, depth + 1)
    if isinstance(expr, ast.BinOp) and isinstance(
        expr.op, (ast.BitOr, ast.BitAnd, ast.Sub)
    ):
        return _is_unordered_expr(
            expr.left, fn, summary, depth
        ) or _is_unordered_expr(expr.right, fn, summary, depth)
    return False


@register_rule
class RankDeterminismRule(LintRule):
    """DET001 — nondeterminism sources in rank or coordinator code.

    Wall-clock reads, OS entropy, iteration over a ``set`` (hash order
    varies across processes under ``PYTHONHASHSEED``), and ``id()``
    -keyed ordering all produce values that differ between runs and
    between ranks; when they feed sends or reductions the ledger and
    results diverge across backends.
    """

    code = "DET001"
    family = "spmd"
    name = "rank-determinism"
    description = "nondeterminism source in rank/coordinator code"

    def project_check(self, source: Project) -> Iterator[Diagnostic]:
        project = source.view(build_spmd_project)
        for fn in project.contract_functions():
            yield from self._check_fn(fn, project.module_of(fn))

    def _check_fn(
        self, fn: FunctionSummary, summary: ModuleSummary
    ) -> Iterator[Diagnostic]:
        for call in fn.calls:
            reason = self._det_call(call.name, summary)
            if reason:
                yield self.diag(
                    fn,
                    call.node,
                    f"{call.name}(...) is {reason} — rank/coordinator "
                    f"values must be reproducible across runs and ranks",
                )
            tail = call.name.rsplit(".", 1)[-1]
            if tail in ("sorted", "min", "max"):
                for kw in call.node.keywords:
                    if (
                        kw.arg == "key"
                        and isinstance(kw.value, ast.Name)
                        and kw.value.id == "id"
                    ):
                        yield self.diag(
                            fn,
                            call.node,
                            "ordering by id() depends on allocation "
                            "addresses — sort by a stable key instead",
                        )
        for node in ast.walk(fn.node):
            target: Optional[ast.AST] = None
            if isinstance(node, (ast.For, ast.AsyncFor)):
                target = node.iter
            elif isinstance(node, ast.comprehension):
                target = node.iter
            if target is not None and _is_unordered_expr(
                target, fn, summary
            ):
                yield self.diag(
                    fn,
                    target,
                    "iterating a set in rank/coordinator code — hash "
                    "order varies per process; iterate sorted(...) "
                    "instead",
                )

    @staticmethod
    def _det_call(name: str, summary: ModuleSummary) -> Optional[str]:
        if name in _DET_CALLS:
            return "OS entropy/identity"
        head, _, rest = name.partition(".")
        if rest:
            if summary.imports.get(head) == "time" and rest in _TIME_FUNCS:
                return "a wall-clock read"
            if summary.imports.get(head) == "secrets":
                return "OS entropy"
        else:
            target = summary.imports.get(name, "")
            if target.startswith("time.") and target[5:] in _TIME_FUNCS:
                return "a wall-clock read"
            if target.startswith("secrets."):
                return "OS entropy"
            if name == "id":
                return "an allocation address"
        return None


@register_rule
class OrderedFloatFoldRule(LintRule):
    """FLOAT001 — float accumulation over an unordered container.

    Float addition is not associative; summing a ``set`` (or, in rank
    code, ``dict.values()`` whose insertion order depends on message
    arrival) makes the result depend on hash/scheduling order.  Fold
    per-rank results in rank order — the session's ``step`` return list
    is already rank-ordered, and the merge helpers fold rank 0 first.
    """

    code = "FLOAT001"
    family = "spmd"
    name = "ordered-float-fold"
    description = "float accumulation over an unordered container"

    _SUM_NAMES = frozenset({"sum", "math.fsum", "fsum", "np.sum", "numpy.sum"})

    def project_check(self, source: Project) -> Iterator[Diagnostic]:
        project = source.view(build_spmd_project)
        rank_keys = {
            (fn.module, fn.qualname) for fn in project.rank_functions
        }
        for fn in project.contract_functions():
            summary = project.module_of(fn)
            in_rank = (fn.module, fn.qualname) in rank_keys
            for call in fn.calls:
                if call.name not in self._SUM_NAMES:
                    continue
                if not call.node.args:
                    continue
                arg = call.node.args[0]
                reason = self._unordered_reason(arg, fn, summary, in_rank)
                if reason:
                    yield self.diag(
                        fn,
                        call.node,
                        f"{call.name}(...) folds floats over {reason} — "
                        f"accumulate in rank order (fold rank 0 first) "
                        f"for bit-reproducible reductions",
                    )

    @staticmethod
    def _unordered_reason(
        arg: ast.AST,
        fn: FunctionSummary,
        summary: ModuleSummary,
        in_rank: bool,
    ) -> Optional[str]:
        def values_call(expr: ast.AST) -> bool:
            return (
                isinstance(expr, ast.Call)
                and isinstance(expr.func, ast.Attribute)
                and expr.func.attr == "values"
            )

        if _is_unordered_expr(arg, fn, summary):
            return "a set (hash order)"
        if in_rank and values_call(arg):
            return "dict.values() (arrival-order insertion)"
        if isinstance(arg, (ast.GeneratorExp, ast.ListComp, ast.SetComp)):
            it = arg.generators[0].iter
            if _is_unordered_expr(it, fn, summary):
                return "a set (hash order)"
            if in_rank and values_call(it):
                return "dict.values() (arrival-order insertion)"
        return None
