"""Package-wide dataflow summaries for the project rules.

The per-file rules of :mod:`repro.analysis.rules` see one syntax tree
at a time; the service family (:mod:`repro.analysis.asynccheck`) must
instead reason about *functions* — which other functions a coroutine
reaches, and what the names it calls are bound to.  This module builds
those summaries:

* :class:`FunctionSummary` — per-function facts: parameters, the value
  expression of each local binding, and every call site.
* :class:`ClassSummary` — one class statement: its methods (each a
  :class:`FunctionSummary` qualified ``Class.method``, so same-named
  methods of different classes never collide) and every
  ``self.attr = value`` statement found in them.
* :class:`ModuleSummary` — one parsed file: its functions (keyed by
  qualified name), classes and import aliases.
* :class:`ProjectIndex` — the whole analysed file set, with name
  resolution (local functions, nested functions, ``Class.method``,
  ``from m import f``, ``m.f`` through import aliases).

The analysis is deliberately conservative where Python is dynamic:
names that cannot be resolved are skipped, never guessed, so the
project rules under-approximate rather than cry wolf.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import (
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)


def dotted_parts(node: ast.AST) -> Optional[Tuple[str, ...]]:
    """Render a ``Name``/``Attribute`` chain as its components
    (``ctx.shared["k"]`` → ``("ctx", "shared")``; subscripts are
    transparent), or ``None`` when the chain is not rooted at a name."""
    parts: List[str] = []
    while True:
        if isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        elif isinstance(node, ast.Subscript):
            node = node.value
        elif isinstance(node, ast.Name):
            parts.append(node.id)
            return tuple(reversed(parts))
        else:
            return None


def dotted_text(node: ast.AST) -> Optional[str]:
    """``dotted_parts`` joined with dots (``None`` when unrooted)."""
    parts = dotted_parts(node)
    return ".".join(parts) if parts is not None else None


@dataclass
class CallSite:
    """A call expression inside a function."""

    name: str  # dotted callee text (``np.zeros``, ``_hist_step``)
    node: ast.Call


@dataclass
class FunctionSummary:
    """Scope and behaviour facts about one function or lambda."""

    module: str
    path: str
    qualname: str
    name: str
    node: ast.AST  # FunctionDef | AsyncFunctionDef | Lambda
    parent: Optional["FunctionSummary"] = None
    #: qualified name of the class whose ``self`` this function sees —
    #: set on methods and inherited by the functions nested in them
    owner: Optional[str] = None
    params: Set[str] = field(default_factory=set)
    #: name → value expression of its (last seen) binding in this scope
    bindings: Dict[str, ast.AST] = field(default_factory=dict)
    calls: List[CallSite] = field(default_factory=list)

    def lookup_binding(self, name: str) -> Optional[ast.AST]:
        """Value expression bound to ``name`` here or in an enclosing
        function scope (``None`` when unknown)."""
        scope: Optional[FunctionSummary] = self
        while scope is not None:
            if name in scope.bindings:
                return scope.bindings[name]
            if name in scope.params:
                return None
            scope = scope.parent
        return None


@dataclass
class ClassSummary:
    """One class statement: its methods and ``self`` attribute facts."""

    #: ``Job``, ``Outer.Inner`` or ``make.<locals>.Local``
    qualname: str
    #: bare method name → summary (a later ``def`` of the same name
    #: replaces an earlier one, as it does at runtime)
    methods: Dict[str, FunctionSummary] = field(default_factory=dict)
    #: every single-target ``self.attr = value`` / ``self.attr: ann
    #: [= value]`` statement in a method body, in source order:
    #: (attr, value, annotation, method)
    attr_assigns: List[
        Tuple[str, Optional[ast.AST], Optional[ast.AST], FunctionSummary]
    ] = field(default_factory=list)


@dataclass
class ModuleSummary:
    """Everything the project index knows about one parsed file."""

    module: str
    path: str
    tree: ast.Module
    #: qualified name (``outer.<locals>.step``, ``Job.transition``) →
    #: summary
    functions: Dict[str, FunctionSummary] = field(default_factory=dict)
    #: qualified class name → summary
    classes: Dict[str, ClassSummary] = field(default_factory=dict)
    #: local alias → dotted target (``np`` → ``numpy``,
    #: ``induce_pure_tree`` → ``repro.dtree.induction.induce_pure_tree``)
    imports: Dict[str, str] = field(default_factory=dict)
    #: names of module-level functions (unqualified)
    top_level_functions: Set[str] = field(default_factory=set)

    def lookup(self, name: str) -> Optional[FunctionSummary]:
        """A module-level function ``f`` or a method ``Cls.m`` of a
        class in this module, by dotted name."""
        if name in self.top_level_functions:
            return self.functions.get(name)
        cls, _, method = name.rpartition(".")
        info = self.classes.get(cls)
        return info.methods.get(method) if info is not None else None

    def by_node(self) -> Dict[int, FunctionSummary]:
        """``id(def/lambda node)`` → its summary."""
        return {id(fn.node): fn for fn in self.functions.values()}


class _ScopeVisitor(ast.NodeVisitor):
    """Build :class:`FunctionSummary` records for one module."""

    def __init__(self, summary: ModuleSummary) -> None:
        self.summary = summary
        self.stack: List[Optional[FunctionSummary]] = [None]  # None = module
        #: classes lexically enclosing the current statement, innermost
        #: last (reset inside a function body: a nested def is not a
        #: method of the class its enclosing method belongs to)
        self.classes: List[ClassSummary] = []
        self._anon = 0

    # -- helpers -------------------------------------------------------
    @property
    def current(self) -> Optional[FunctionSummary]:
        return self.stack[-1]

    def _bind(self, name: str, value: ast.AST) -> None:
        fn = self.current
        if fn is not None:  # module-level bindings are not looked up
            fn.bindings[name] = value

    def _bind_target(self, target: ast.AST, value: ast.AST) -> None:
        # unpacking and attribute/subscript targets bind no one name
        if isinstance(target, ast.Name):
            self._bind(target.id, value)

    def _qualify(self, name: str) -> str:
        """``name`` qualified like ``__qualname__`` at this point."""
        if self.classes:
            return f"{self.classes[-1].qualname}.{name}"
        parent = self.current
        if parent is not None:
            return f"{parent.qualname}.<locals>.{name}"
        return name

    def _enter_function(
        self, node: ast.AST, name: str, args: ast.arguments
    ) -> FunctionSummary:
        parent = self.current
        cls = self.classes[-1] if self.classes else None
        fn = FunctionSummary(
            module=self.summary.module,
            path=self.summary.path,
            qualname=self._qualify(name),
            name=name,
            node=node,
            parent=parent,
            owner=(
                cls.qualname
                if cls is not None
                else parent.owner if parent is not None else None
            ),
        )
        for a in (
            list(args.posonlyargs)
            + list(args.args)
            + list(args.kwonlyargs)
        ):
            fn.params.add(a.arg)
        if args.vararg is not None:
            fn.params.add(args.vararg.arg)
        if args.kwarg is not None:
            fn.params.add(args.kwarg.arg)
        self.summary.functions[fn.qualname] = fn
        if cls is not None:
            if not isinstance(node, ast.Lambda):
                cls.methods[name] = fn
        elif parent is None:
            self.summary.top_level_functions.add(name)
        return fn

    def _visit_body(self, fn: FunctionSummary, body: Iterable[ast.AST]) -> None:
        self.stack.append(fn)
        enclosing, self.classes = self.classes, []
        for node in body:
            self.visit(node)
        self.classes = enclosing
        self.stack.pop()

    # -- scope-introducing nodes ---------------------------------------
    def visit_FunctionDef(
        self, node: Union[ast.FunctionDef, ast.AsyncFunctionDef]
    ) -> None:
        self._bind(node.name, node)
        for dec in node.decorator_list:
            self.visit(dec)
        for default in list(node.args.defaults) + [
            d for d in node.args.kw_defaults if d is not None
        ]:
            self.visit(default)
        self._visit_body(
            self._enter_function(node, node.name, node.args), node.body
        )

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Lambda(self, node: ast.Lambda) -> None:
        self._anon += 1
        self._visit_body(
            self._enter_function(node, f"<lambda-{self._anon}>", node.args),
            [node.body],
        )

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._bind(node.name, node)
        for dec in node.decorator_list:
            self.visit(dec)
        for base in node.bases:
            self.visit(base)
        cls = ClassSummary(qualname=self._qualify(node.name))
        self.summary.classes[cls.qualname] = cls
        # the body's *bindings* land in the enclosing scope; its defs
        # are qualified and registered as the class's methods
        self.classes.append(cls)
        for stmt in node.body:
            self.visit(stmt)
        self.classes.pop()

    def _record_self_attr(
        self,
        target: ast.AST,
        value: Optional[ast.AST],
        annotation: Optional[ast.AST],
    ) -> None:
        fn = self.current
        if (
            fn is None
            or fn.owner is None
            or not isinstance(target, ast.Attribute)
            or not isinstance(target.value, ast.Name)
            or target.value.id != "self"
        ):
            return
        cls = self.summary.classes[fn.owner]
        if cls.methods.get(fn.name) is fn:  # a method, not a def nested in one
            cls.attr_assigns.append((target.attr, value, annotation, fn))

    # -- bindings ------------------------------------------------------
    def visit_Assign(self, node: ast.Assign) -> None:
        self.visit(node.value)
        for target in node.targets:
            self._bind_target(target, node.value)
            if isinstance(target, (ast.Subscript, ast.Attribute)):
                self.visit(target.value)
        if len(node.targets) == 1:
            self._record_self_attr(node.targets[0], node.value, None)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._record_self_attr(node.target, node.value, node.annotation)
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
            local = alias.asname or alias.name.split(".")[0]
            target = alias.name if alias.asname else alias.name.split(".")[0]
            self.summary.imports.setdefault(local, target)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module is None:
            return
        for alias in node.names:
            if alias.name == "*":
                continue
            local = alias.asname or alias.name
            self.summary.imports.setdefault(
                local, f"{node.module}.{alias.name}"
            )

    def visit_comprehension(self, node: ast.comprehension) -> None:
        self.visit(node.iter)
        for cond in node.ifs:
            self.visit(cond)

    # -- calls ---------------------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        fn = self.current
        name = dotted_text(node.func)
        if fn is not None and name is not None:
            fn.calls.append(CallSite(name=name, node=node))
        self.generic_visit(node)


def summarize_module(module: str, path: str, tree: ast.Module) -> ModuleSummary:
    """Build the dataflow summary of one parsed file."""
    summary = ModuleSummary(module=module, path=path, tree=tree)
    _ScopeVisitor(summary).visit(tree)
    return summary


class ModuleCollisionError(ValueError):
    """Two target files map to one dotted module name."""


class ProjectIndex:
    """The analysed file set: summaries plus cross-module resolution.

    Module names key everything, so two files claiming one name raise
    :class:`ModuleCollisionError` instead of one silently replacing
    the other.
    """

    def __init__(self, modules: Sequence[ModuleSummary]) -> None:
        self.modules: Dict[str, ModuleSummary] = {}
        for m in modules:
            other = self.modules.setdefault(m.module, m)
            if other is not m:
                raise ModuleCollisionError(
                    f"module {m.module!r} maps to two files: "
                    f"{other.path} and {m.path} — lint them separately "
                    f"or --exclude one"
                )

    @classmethod
    def build(
        cls, sources: Iterable[Tuple[str, str, ast.Module]]
    ) -> "ProjectIndex":
        """Index ``(module, path, tree)`` triples."""
        return cls(
            [summarize_module(mod, path, tree) for mod, path, tree in sources]
        )

    # ------------------------------------------------------------------
    def resolve_function(
        self, module: str, name: str
    ) -> Optional[FunctionSummary]:
        """Resolve a dotted callee ``name`` seen in ``module`` to the
        summary of a module-level function or of a ``Class.method`` in
        the index, or ``None``."""
        summary = self.modules.get(module)
        if summary is None:
            return None
        head, _, rest = name.partition(".")
        if head in summary.top_level_functions or head in summary.classes:
            return summary.lookup(name)
        target = summary.imports.get(head)
        if target is None:
            return None
        other = self.modules.get(target)
        if other is None:
            # ``from lib import f`` / ``from lib import Cls``
            target_mod, _, leaf = target.rpartition(".")
            other = self.modules.get(target_mod)
            rest = f"{leaf}.{rest}" if rest else leaf
        if other is None or not rest:
            return None
        return other.lookup(rest)

    def resolve_call(
        self, caller: FunctionSummary, name: str
    ) -> Optional[FunctionSummary]:
        """Resolve a dotted callee seen inside ``caller``: like
        :meth:`resolve_function`, but a nested sibling or child
        function shadows module scope."""
        summary = self.modules.get(caller.module)
        if summary is None:
            return None
        head, _, rest = name.partition(".")
        if not rest:
            scope: Optional[FunctionSummary] = caller
            while scope is not None:
                candidate = summary.functions.get(
                    f"{scope.qualname}.<locals>.{head}"
                )
                if candidate is not None:
                    return candidate
                scope = scope.parent
        return self.resolve_function(caller.module, name)

    def functions(self) -> List[FunctionSummary]:
        """Every function summary, in (module, qualname) order."""
        return [
            self.modules[module].functions[qualname]
            for module in sorted(self.modules)
            for qualname in sorted(self.modules[module].functions)
        ]
