"""Coroutine-safety rule family: keep the event loop non-blocking.

The service front end (:mod:`repro.service`) is an asyncio program
whose correctness rests on conventions no runtime check enforces: the
event loop must never execute blocking I/O or acquire a thread lock
(every such call stalls *all* in-flight requests), and deadlines must
be read off the monotonic clock.
This module checks those conventions statically as *project rules*
over the engine's shared dataflow index
(:mod:`repro.analysis.dataflow`), plus a light typed call resolver
(attribute types recovered from the index's ``self.x = Cls()`` facts,
parameter annotations, and return annotations):

========  ===========================================================
ASYNC001  blocking call (file/socket I/O, ``time.sleep``,
          ``np.load``, blocking queue ops, ``threading.Lock``
          acquisition) reached from coroutine context without a
          ``run_in_executor`` hop
TIME001   wall-clock ``time.time()`` mixed into deadline/backoff
          arithmetic where ``time.monotonic()`` is required
========  ===========================================================

Context discovery is conservative: every ``async def`` is loop
context, and so is every *resolvable* synchronous callee reachable
from one; a function only reached through ``loop.run_in_executor``
is not.  Names the resolver cannot type are skipped, never guessed, so
the family under-approximates.  See
``docs/STATIC_ANALYSIS.md`` for the rule catalogue and the suppression
grammar (``# repro-lint: disable=ASYNC001`` works like any other
code).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from repro.analysis.dataflow import (
    CallSite,
    ClassSummary,
    FunctionSummary,
    ModuleSummary,
    ProjectIndex,
    dotted_parts,
    dotted_text,
)
from repro.analysis.engine import (
    Diagnostic,
    LintRule,
    Project,
    register_rule,
)

__all__ = [
    "BLOCKING_CALLS",
    "BLOCKING_METHOD_TAILS",
    "ClassInfo",
    "ServiceProject",
    "build_service_project",
    "expanded_call_name",
    "scope_walk",
]

#: expanded dotted call → what it blocks on (the ASYNC001 catalogue)
BLOCKING_CALLS: Dict[str, str] = {
    "time.sleep": "sleeps the whole event loop",
    "input": "blocks on stdin",
    "open": "file I/O",
    "io.open": "file I/O",
    "os.makedirs": "filesystem I/O",
    "os.remove": "filesystem I/O",
    "os.replace": "filesystem I/O",
    "os.rename": "filesystem I/O",
    "os.listdir": "filesystem I/O",
    "os.stat": "filesystem metadata I/O",
    "os.path.exists": "filesystem metadata I/O",
    "os.path.getsize": "filesystem metadata I/O",
    "os.path.realpath": "filesystem metadata I/O (symlink resolution)",
    "shutil.rmtree": "filesystem I/O",
    "shutil.copy": "filesystem I/O",
    "shutil.copyfile": "filesystem I/O",
    "shutil.move": "filesystem I/O",
    "socket.create_connection": "network I/O",
    "socket.getaddrinfo": "DNS resolution",
    "urllib.request.urlopen": "network I/O",
    "requests.get": "network I/O",
    "requests.post": "network I/O",
    "requests.request": "network I/O",
    "subprocess.run": "waits on a subprocess",
    "subprocess.call": "waits on a subprocess",
    "subprocess.check_call": "waits on a subprocess",
    "subprocess.check_output": "waits on a subprocess",
    "numpy.load": "file I/O",
    "numpy.save": "file I/O",
    "numpy.savez": "file I/O",
    "numpy.savez_compressed": "file I/O",
    "numpy.loadtxt": "file I/O",
    "numpy.genfromtxt": "file I/O",
    "numpy.fromfile": "file I/O",
    "repro.mesh.io.load_mesh": "mesh file I/O",
}

#: method tails that block regardless of receiver type (names chosen
#: to be unambiguous — ``.get``/``.put`` are *not* here, they need a
#: typed ``queue.Queue`` receiver)
BLOCKING_METHOD_TAILS: Dict[str, str] = {
    "read_text": "file I/O",
    "read_bytes": "file I/O",
    "write_text": "file I/O",
    "write_bytes": "file I/O",
}

#: constructors whose instances expose blocking .get/.put/.join
_BLOCKING_QUEUE_FACTORIES = frozenset(
    {"queue.Queue", "queue.LifoQueue", "queue.PriorityQueue",
     "multiprocessing.Queue", "multiprocessing.JoinableQueue"}
)
_BLOCKING_QUEUE_METHODS = frozenset({"get", "put", "join"})

_THREAD_LOCK_FACTORIES = frozenset(
    {"threading.Lock", "threading.RLock"}
)

_DEADLINE_KEYWORDS = (
    "deadline",
    "timeout",
    "expire",
    "backoff",
    "retry_after",
)


def expanded_call_name(summary: ModuleSummary, name: str) -> str:
    """Expand a dotted call name through the module's import aliases
    (``np.load`` → ``numpy.load``, ``sleep`` → ``time.sleep``)."""
    head, _, rest = name.partition(".")
    target = summary.imports.get(head)
    if target is None:
        return name
    return f"{target}.{rest}" if rest else target


def scope_walk(root: ast.AST) -> Iterator[ast.AST]:
    """Walk ``root`` without descending into nested function scopes
    (their statements belong to other :class:`FunctionSummary` s)."""
    stack: List[ast.AST] = [root]
    while stack:
        node = stack.pop()
        yield node
        if node is not root and isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            continue  # nested defs are yielded but not entered
        stack.extend(ast.iter_child_nodes(node))


def _parent_map(root: ast.AST) -> Dict[int, ast.AST]:
    """``id(child) → parent`` within one function scope."""
    parents: Dict[int, ast.AST] = {}
    for node in scope_walk(root):
        for child in ast.iter_child_nodes(node):
            parents[id(child)] = node
    return parents


# ----------------------------------------------------------------------
# typed layer on top of the dataflow summaries
# ----------------------------------------------------------------------


@dataclass
class ClassInfo:
    """What the resolver knows about one module-level class."""

    module: str
    name: str
    #: bare method name → summary (the index's own map)
    methods: Dict[str, FunctionSummary]
    #: ``self.x`` attributes assigned a ``threading.Lock``/``RLock``
    lock_attrs: Set[str] = field(default_factory=set)
    #: ``self.x`` attribute → (module, class) of its resolved type
    attr_types: Dict[str, Tuple[str, str]] = field(default_factory=dict)


#: (module, qualname) → (function, the root it was reached from)
_Closure = Dict[Tuple[str, str], Tuple[FunctionSummary, FunctionSummary]]


@dataclass
class ServiceProject:
    """Everything the service rules inspect about one analysed tree,
    plus the typed name resolution they share."""

    index: ProjectIndex
    #: (module, name) → class info, for every module-level class
    classes: Dict[Tuple[str, str], ClassInfo] = field(default_factory=dict)
    #: loop context: coroutines plus resolvable sync callees, keyed
    #: (module, qualname); the value is the function and the coroutine
    #: root it was first reached from
    loop_functions: _Closure = field(default_factory=dict)

    #: bound on the type-inference recursion (aliases of aliases …)
    _DEPTH = 6

    def class_of(self, fn: FunctionSummary) -> Optional[ClassInfo]:
        """The class whose ``self`` ``fn`` sees (methods and the
        functions nested in them)."""
        if fn.owner is None:
            return None
        return self.classes.get((fn.module, fn.owner))

    # -- classes -------------------------------------------------------
    def resolve_class(
        self, module: str, name: Optional[str]
    ) -> Optional[ClassInfo]:
        """A (possibly dotted or imported) class name seen in
        ``module`` → its :class:`ClassInfo`, or ``None``."""
        if name is None:
            return None
        summary = self.index.modules.get(module)
        if summary is None:
            return None
        parts = name.split(".")
        if len(parts) == 1:
            info = self.classes.get((module, name))
            if info is not None:
                return info
            target = summary.imports.get(name)
            if target is not None:
                mod, _, cls = target.rpartition(".")
                return self.classes.get((mod, cls))
            return None
        target = summary.imports.get(parts[0])
        if target is not None and len(parts) == 2:
            return self.classes.get((target, parts[1]))
        return None

    # -- expression types ----------------------------------------------
    def expr_class(
        self, fn: FunctionSummary, expr: ast.AST, depth: int = 0
    ) -> Optional[ClassInfo]:
        """The project class an expression evaluates to, if provable."""
        if depth > self._DEPTH:
            return None
        if isinstance(expr, ast.Call):
            name = dotted_text(expr.func)
            info = self.resolve_class(fn.module, name)
            if info is not None:
                return info
            for target in self.resolve_call_targets(
                fn, name, follow_types=False
            ):
                node = target.node
                returns = getattr(node, "returns", None)
                info = self.resolve_class(
                    target.module, _annotation_class_name(returns)
                )
                if info is not None:
                    return info
            return None
        if isinstance(expr, ast.Name):
            return self.name_class(fn, expr.id, depth + 1)
        if isinstance(expr, ast.Attribute):
            parts = dotted_parts(expr)
            if parts is not None:
                return self.chain_class(fn, parts, depth + 1)
        return None

    def name_class(
        self, fn: FunctionSummary, name: str, depth: int = 0
    ) -> Optional[ClassInfo]:
        if depth > self._DEPTH:
            return None
        binding = fn.lookup_binding(name)
        if binding is not None:
            info = self.expr_class(fn, binding, depth + 1)
            if info is not None:
                return info
        if name in fn.params:
            args = getattr(fn.node, "args", None)
            if args is not None:
                for a in (
                    list(args.posonlyargs)
                    + list(args.args)
                    + list(args.kwonlyargs)
                ):
                    if a.arg == name:
                        return self.resolve_class(
                            fn.module, _annotation_class_name(a.annotation)
                        )
        return None

    def chain_class(
        self, fn: FunctionSummary, parts: Sequence[str], depth: int = 0
    ) -> Optional[ClassInfo]:
        """Type of a dotted receiver chain (``self.engine.queue``)."""
        if depth > self._DEPTH or not parts:
            return None
        if parts[0] in ("self", "cls"):
            info = self.class_of(fn)
        else:
            info = self.name_class(fn, parts[0], depth + 1)
        for attr in parts[1:]:
            if info is None:
                return None
            typed = info.attr_types.get(attr)
            info = self.classes.get(typed) if typed else None
        return info

    # -- call targets --------------------------------------------------
    def resolve_call_targets(
        self,
        fn: FunctionSummary,
        name: Optional[str],
        follow_types: bool = True,
    ) -> List[FunctionSummary]:
        """Every function summary a dotted call may reach: the dataflow
        resolution (bare names, import aliases, nested defs) plus the
        typed method resolution (``self.x.m()`` through attribute and
        annotation types)."""
        if name is None:
            return []
        direct = self.index.resolve_call(fn, name)
        if direct is not None:
            return [direct]
        parts = name.split(".")
        if len(parts) < 2 or not follow_types:
            return []
        owner = self.chain_class(fn, parts[:-1])
        if owner is None:
            return []
        method = owner.methods.get(parts[-1])
        return [method] if method is not None else []


def _annotation_class_name(node: Optional[ast.AST]) -> Optional[str]:
    """Class name out of an annotation, unwrapping ``Optional[...]``
    and one-element ``Union``-like subscripts; ``None`` when opaque."""
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            node = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return None
    if isinstance(node, (ast.Name, ast.Attribute)):
        return dotted_text(node)
    if isinstance(node, ast.Subscript):
        head = dotted_text(node.value)
        if head is not None and head.rsplit(".", 1)[-1] == "Optional":
            return _annotation_class_name(node.slice)
    return None


# ----------------------------------------------------------------------
# project construction
# ----------------------------------------------------------------------


def _is_lock_factory(summary: ModuleSummary, value: ast.AST) -> bool:
    if not isinstance(value, ast.Call):
        return False
    name = dotted_text(value.func)
    if name is None:
        return False
    return expanded_call_name(summary, name) in _THREAD_LOCK_FACTORIES


def _collect_classes(index: ProjectIndex, project: ServiceProject) -> None:
    """Build the :class:`ClassInfo` records: the index's methods plus
    the attribute types and lock attributes the resolver derives from
    its ``self.x = …`` facts."""
    found: List[Tuple[ClassInfo, ClassSummary]] = []
    for module in sorted(index.modules):
        for cls in index.modules[module].classes.values():
            if "." in cls.qualname:
                continue  # nested/local classes cannot be named from outside
            info = ClassInfo(module, cls.qualname, cls.methods)
            project.classes[(module, cls.qualname)] = info
            found.append((info, cls))

    # every class is registered before any type is resolved, so
    # annotations resolve across modules
    for info, cls in found:
        summary = index.modules[info.module]
        for attr, value, annotation, method in cls.attr_assigns:
            if value is not None and _is_lock_factory(summary, value):
                info.lock_attrs.add(attr)
                continue
            typed: Optional[ClassInfo] = None
            if annotation is not None:
                typed = project.resolve_class(
                    info.module, _annotation_class_name(annotation)
                )
            if typed is None and value is not None:
                typed = project.expr_class(method, value)
            if typed is not None and attr not in info.attr_types:
                info.attr_types[attr] = (typed.module, typed.name)


def _close_over(
    project: ServiceProject,
    roots: Iterable[Tuple[FunctionSummary, FunctionSummary]],
    out: _Closure,
) -> None:
    """Reachability over *synchronous* callees: coroutines met along
    the way are their own roots, so the walk stops at them."""
    stack = list(roots)
    while stack:
        fn, root = stack.pop(0)
        key = (fn.module, fn.qualname)
        if key in out:
            continue
        out[key] = (fn, root)
        for call in fn.calls:
            for target in project.resolve_call_targets(fn, call.name):
                if isinstance(target.node, ast.AsyncFunctionDef):
                    continue
                if (target.module, target.qualname) not in out:
                    stack.append((target, root))


def build_service_project(source: Project) -> ServiceProject:
    """Find the loop context: every coroutine plus its resolvable
    synchronous callees (the service family's view of the shared
    index)."""
    index = source.index
    project = ServiceProject(index=index)
    _collect_classes(index, project)

    coroutines = [
        (fn, fn)
        for fn in index.functions()
        if isinstance(fn.node, ast.AsyncFunctionDef)
    ]
    _close_over(project, coroutines, project.loop_functions)
    return project


# ----------------------------------------------------------------------
# rule machinery
# ----------------------------------------------------------------------


def _is_lockish(project: ServiceProject, fn: FunctionSummary, expr: ast.AST) -> bool:
    """Whether a ``with`` context expression names a lock: a known
    lock attribute of the function's class, a local bound to a
    ``threading.Lock()``, or any name containing ``lock``."""
    parts = dotted_parts(expr)
    if parts is None and isinstance(expr, ast.Call):
        parts = dotted_parts(expr.func)
    if parts is None:
        return False
    info = project.class_of(fn)
    if (
        info is not None
        and len(parts) == 2
        and parts[0] in ("self", "cls")
        and parts[1] in info.lock_attrs
    ):
        return True
    if len(parts) == 1:
        binding = fn.lookup_binding(parts[0])
        summary = project.index.modules.get(fn.module)
        if (
            binding is not None
            and summary is not None
            and _is_lock_factory(summary, binding)
        ):
            return True
    return any("lock" in p.lower() for p in parts)


# ----------------------------------------------------------------------
# ASYNC001 — blocking call in coroutine context
# ----------------------------------------------------------------------


def _blocking_reason(
    project: ServiceProject, fn: FunctionSummary, call: CallSite
) -> Optional[str]:
    """Why this call blocks, or ``None`` when it does not."""
    summary = project.index.modules.get(fn.module)
    if summary is None:
        return None
    expanded = expanded_call_name(summary, call.name)
    reason = BLOCKING_CALLS.get(expanded)
    if reason is not None:
        return f"{expanded}(...) ({reason})"
    parts = call.name.split(".")
    if len(parts) < 2:
        return None
    tail = parts[-1]
    reason = BLOCKING_METHOD_TAILS.get(tail)
    if reason is not None:
        return f".{tail}(...) ({reason})"
    if tail in _BLOCKING_QUEUE_METHODS and len(parts) == 2:
        binding = fn.lookup_binding(parts[0])
        if (
            binding is not None
            and isinstance(binding, ast.Call)
            and expanded_call_name(
                summary, dotted_text(binding.func) or ""
            )
            in _BLOCKING_QUEUE_FACTORIES
        ):
            return f"{call.name}(...) (blocking queue operation)"
    if tail == "acquire" and _is_lockish(
        project, fn, call.node.func.value  # type: ignore[attr-defined]
    ):
        return f"{call.name}() (thread-lock acquisition)"
    return None


@register_rule
class BlockingCallRule(LintRule):
    """ASYNC001 — blocking call reached from coroutine context.

    A blocking call anywhere in the synchronous closure of a coroutine
    stalls every other in-flight request on the loop.  The fix is an
    ``await loop.run_in_executor(None, fn, ...)`` hop — functions only
    reachable through one are executor context and exempt.
    """

    code = "ASYNC001"
    family = "service"
    name = "async-blocking-call"
    description = "blocking call reached from coroutine context"

    def project_check(self, source: Project) -> Iterator[Diagnostic]:
        project = source.view(build_service_project)
        for key in sorted(project.loop_functions):
            fn, root = project.loop_functions[key]
            via = (
                ""
                if root is fn
                else f" via coroutine '{root.name}' ({root.module})"
            )
            for call in fn.calls:
                reason = _blocking_reason(project, fn, call)
                if reason is not None:
                    yield self.diag(
                        fn,
                        call.node,
                        f"blocking call {reason} on the event loop"
                        f"{via}; route it through run_in_executor",
                    )
            # `with <threading lock>:` blocks the loop exactly like I/O
            # (an executor thread may hold the lock arbitrarily long)
            if not isinstance(
                fn.node, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                continue
            for node in scope_walk(fn.node):
                if not isinstance(node, ast.With):
                    continue
                for item in node.items:
                    expr = item.context_expr
                    if isinstance(expr, ast.Call):
                        continue  # tracer spans etc., not bare locks
                    if _is_lockish(project, fn, expr):
                        name = dotted_text(expr) or "<lock>"
                        yield self.diag(
                            fn,
                            node,
                            f"thread-lock acquisition 'with {name}:' "
                            f"on the event loop{via}; executor threads "
                            "may hold it — route the critical section "
                            "through run_in_executor",
                        )


# ----------------------------------------------------------------------
# TIME001 — wall clock in deadline arithmetic
# ----------------------------------------------------------------------


def _is_deadline_name(name: Optional[str]) -> bool:
    if name is None:
        return False
    tail = name.rsplit(".", 1)[-1].lower()
    return any(k in tail for k in _DEADLINE_KEYWORDS)


def _mentions_monotonic(
    summary: ModuleSummary, fn: Optional[FunctionSummary], expr: ast.AST
) -> bool:
    for node in ast.walk(expr):
        if isinstance(node, ast.Call):
            name = dotted_text(node.func)
            if (
                name is not None
                and expanded_call_name(summary, name) == "time.monotonic"
            ):
                return True
        if isinstance(node, ast.Name) and fn is not None:
            binding = fn.lookup_binding(node.id)
            if (
                binding is not None
                and binding is not expr
                and isinstance(binding, ast.Call)
            ):
                bname = dotted_text(binding.func)
                if (
                    bname is not None
                    and expanded_call_name(summary, bname)
                    == "time.monotonic"
                ):
                    return True
    return False


def _mentions_deadline(expr: ast.AST) -> bool:
    for node in ast.walk(expr):
        if isinstance(node, (ast.Name, ast.Attribute)):
            if _is_deadline_name(dotted_text(node)):
                return True
    return False


@register_rule
class WallClockDeadlineRule(LintRule):
    """TIME001 — ``time.time()`` feeding deadline/backoff arithmetic.

    Wall clocks jump (NTP, DST, manual adjustment); a deadline or
    backoff computed from ``time.time()`` can fire years early or
    never.  Deadline arithmetic must use ``time.monotonic()`` —
    wall-clock reads are fine for timestamps that are only recorded.
    """

    code = "TIME001"
    family = "service"
    name = "wall-clock-deadline"
    description = (
        "wall-clock time.time() used in deadline/backoff arithmetic"
    )

    def project_check(self, project: Project) -> Iterator[Diagnostic]:
        for module in sorted(project.index.modules):
            summary = project.index.modules[module]
            yield from self._check_scope(
                summary, None, summary.tree, summary.by_node()
            )

    def _check_scope(
        self,
        summary: ModuleSummary,
        fn: Optional[FunctionSummary],
        root: ast.AST,
        fn_by_node: Dict[int, FunctionSummary],
    ) -> Iterator[Diagnostic]:
        parents = _parent_map(root)
        for node in scope_walk(root):
            child_fn = fn_by_node.get(id(node))
            if child_fn is not None and node is not root:
                yield from self._check_scope(
                    summary, child_fn, node, fn_by_node
                )
                continue
            if not isinstance(node, ast.Call):
                continue
            name = dotted_text(node.func)
            if (
                name is None
                or expanded_call_name(summary, name) != "time.time"
            ):
                continue
            offense = self._offending_use(summary, fn, parents, node)
            if offense is not None:
                yield self.diag(
                    summary,
                    node,
                    f"wall-clock time.time() {offense} — use "
                    "time.monotonic() for deadline/backoff arithmetic",
                )

    @staticmethod
    def _offending_use(
        summary: ModuleSummary,
        fn: Optional[FunctionSummary],
        parents: Dict[int, ast.AST],
        call: ast.Call,
    ) -> Optional[str]:
        cur: ast.AST = call
        while True:
            parent = parents.get(id(cur))
            if parent is None:
                return None
            if isinstance(parent, (ast.BinOp, ast.Compare, ast.IfExp)):
                siblings: List[ast.AST] = [
                    child
                    for child in ast.iter_child_nodes(parent)
                    if child is not cur
                    and not isinstance(
                        child, (ast.operator, ast.cmpop, ast.boolop)
                    )
                ]
                for sib in siblings:
                    if _mentions_monotonic(summary, fn, sib):
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
                    if _is_deadline_name(dotted_text(target)):
                        return (
                            f"assigned to "
                            f"{dotted_text(target)!r}"
                        )
                return None
            if isinstance(parent, ast.stmt):
                return None
            cur = parent
