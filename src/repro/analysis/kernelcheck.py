"""Kernel-purity certifier: prove declared kernels are jit-compilable.

The compiled-path plan (ROADMAP open item 1) only works if the hot
functions behind the kernel seam (:mod:`repro.kernels`) stay inside
the subset of Python a jit compiler accepts.  This pass proves it
statically: every function marked ``@kernel`` is located syntactically,
closed over the call graph of the engine's shared
:class:`~repro.analysis.dataflow.ProjectIndex` (helpers a kernel
calls — functions and ``Class.method`` s alike — must be pure too),
and checked against the purity contract:

=================  ===================================================
closure-capture    no closure over enclosing mutable state
global-state       no ``global``/``nonlocal``, no module-level mutables
object-container   no Python list/dict/set in the numeric path
implicit-dtype     explicit dtype on every array creation
io-call            no I/O, logging, warnings, or printing
tracer-call        no tracer/observability calls in the kernel body
context-manager    no ``with`` blocks (no certifiable lowering)
generator          no ``yield``/``await``
nested-def         no nested functions or lambdas (closures again)
=================  ===================================================

The result is the machine-readable **kernel registry**
(``repro.kernel-audit/1``): one entry per declared kernel, certified or
not, each blocker carrying ``file:line``.  The KERN001 project rule
(``repro-lint --perf``) emits one diagnostic per blocker of an
uncertified kernel, so a declared kernel that regresses fails CI —
the certify-before-compile workflow of ``docs/STATIC_ANALYSIS.md``.

The analysis is conservative in the same direction as the SPMD pass:
calls it cannot resolve inside the index are assumed pure (numpy is
the obvious unresolvable callee), while everything it *can* see is
checked.
"""

from __future__ import annotations

import ast
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Sequence,
    Union,
)

from repro.analysis.dataflow import (
    FunctionSummary,
    ModuleSummary,
    ProjectIndex,
    dotted_parts,
)
from repro.analysis.engine import (
    Diagnostic,
    LintRule,
    Project,
    load_project,
    register_rule,
)

AUDIT_SCHEMA_VERSION = "repro.kernel-audit/1"

#: dotted name of the marker decorator the certifier recognises
KERNEL_DECORATOR = "repro.kernels.kernel"

#: numpy array constructors → index of the positional ``dtype`` slot
#: (a superset of the ARR001 table: kernels must pin asarray too)
_KERNEL_ALLOCATORS: Dict[str, int] = {
    "zeros": 1,
    "ones": 1,
    "empty": 1,
    "full": 2,
    "arange": 3,
    "array": 1,
    "asarray": 1,
    "linspace": 5,
    "fromiter": 1,
}

#: call heads that are I/O or logging no matter the tail
_IO_HEADS = ("logging", "warnings", "sys", "os", "print")

#: bare calls that are I/O
_IO_CALLS = frozenset({"open", "print", "input"})

#: receiver names treated as observability objects inside kernels
_TRACER_RECEIVERS = frozenset({"tracer", "ctx", "ledger", "session"})


@register_rule
class KernelPurityRule(LintRule):
    """KERN001 — declared kernel violates the purity contract.

    One diagnostic per blocker in the project's kernel audit
    (:func:`audit_project`).
    """

    code = "KERN001"
    family = "perf"
    name = "kernel-purity"
    description = "declared @kernel function is not certifiable"

    def project_check(self, project: Project) -> Iterable[Diagnostic]:
        return project.view(audit_project).diagnostics()


@dataclass(frozen=True)
class Blocker:
    """One reason a kernel cannot be certified, with its location."""

    path: str
    line: int
    col: int
    kind: str
    message: str

    def as_dict(self) -> Dict[str, Union[str, int]]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "kind": self.kind,
            "message": self.message,
        }


@dataclass
class KernelEntry:
    """One declared kernel in the audit registry."""

    name: str
    qualname: str
    module: str
    path: str
    line: int
    certified: bool = True
    blockers: List[Blocker] = field(default_factory=list)

    def as_dict(self) -> Dict[str, object]:
        return {
            "name": self.name,
            "qualname": self.qualname,
            "module": self.module,
            "path": self.path,
            "line": self.line,
            "certified": self.certified,
            "blockers": [b.as_dict() for b in self.blockers],
        }


@dataclass
class KernelAudit:
    """The full audit: every declared kernel, certified or blocked."""

    kernels: List[KernelEntry] = field(default_factory=list)

    @property
    def n_certified(self) -> int:
        return sum(1 for k in self.kernels if k.certified)

    def certified_names(self) -> List[str]:
        return sorted(
            f"{k.module}.{k.name}" for k in self.kernels if k.certified
        )

    def to_dict(self) -> Dict[str, object]:
        """The versioned registry document (schema-valid by
        construction; emitted via :func:`validate_kernel_audit`)."""
        return {
            "schema": AUDIT_SCHEMA_VERSION,
            "n_kernels": len(self.kernels),
            "n_certified": self.n_certified,
            "kernels": [
                k.as_dict()
                for k in sorted(
                    self.kernels, key=lambda k: (k.module, k.name)
                )
            ],
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(
            validate_kernel_audit(self.to_dict()), indent=indent
        )

    def save(self, path: Union[str, Path]) -> None:
        Path(path).write_text(self.to_json() + "\n")

    def diagnostics(self) -> List[Diagnostic]:
        """KERN001 diagnostics: one per blocker of an uncertified
        kernel (these gate CI; certified kernels emit nothing)."""
        found: List[Diagnostic] = []
        for k in self.kernels:
            for b in k.blockers:
                found.append(
                    Diagnostic(
                        path=b.path,
                        line=b.line,
                        col=b.col,
                        code="KERN001",
                        message=(
                            f"kernel {k.module}.{k.name} is not "
                            f"certifiable: [{b.kind}] {b.message}"
                        ),
                    )
                )
        return sorted(found)


class AuditSchemaError(ValueError):
    """A kernel-audit document violates the registry schema."""

    def __init__(self, path: str, message: str) -> None:
        self.path = path
        super().__init__(f"{path}: {message}")


def _require_str(value: object, path: str, allow_empty: bool = False) -> None:
    if not isinstance(value, str) or (not allow_empty and not value):
        raise AuditSchemaError(path, "must be a non-empty string")


def _require_int(value: object, path: str, minimum: int = 0) -> None:
    if isinstance(value, bool) or not isinstance(value, int):
        raise AuditSchemaError(path, "must be an integer")
    if value < minimum:
        raise AuditSchemaError(path, f"must be >= {minimum}")


def validate_kernel_audit(document: object) -> Dict[str, object]:
    """Check ``document`` against ``repro.kernel-audit/1``.

    Returns the document on success; raises :class:`AuditSchemaError`
    carrying the JSON path of the first violation (hand-rolled, like
    the run-report validator — no ``jsonschema`` dependency).
    """
    if not isinstance(document, dict):
        raise AuditSchemaError("$", "audit must be a JSON object")
    extra = set(document) - {"schema", "n_kernels", "n_certified", "kernels"}
    if extra:
        raise AuditSchemaError("$", f"unknown top-level keys {sorted(extra)}")
    if document.get("schema") != AUDIT_SCHEMA_VERSION:
        raise AuditSchemaError(
            "$.schema",
            f"expected {AUDIT_SCHEMA_VERSION!r}, got {document.get('schema')!r}",
        )
    kernels = document.get("kernels")
    if not isinstance(kernels, list):
        raise AuditSchemaError("$.kernels", "must be an array")
    _require_int(document.get("n_kernels"), "$.n_kernels")
    _require_int(document.get("n_certified"), "$.n_certified")
    if document["n_kernels"] != len(kernels):
        raise AuditSchemaError("$.n_kernels", "does not match len(kernels)")
    n_certified = 0
    for i, entry in enumerate(kernels):
        p = f"$.kernels[{i}]"
        if not isinstance(entry, dict):
            raise AuditSchemaError(p, "must be an object")
        extra = set(entry) - {
            "name",
            "qualname",
            "module",
            "path",
            "line",
            "certified",
            "blockers",
        }
        if extra:
            raise AuditSchemaError(p, f"unknown keys {sorted(extra)}")
        for key in ("name", "qualname", "module", "path"):
            _require_str(entry.get(key), f"{p}.{key}")
        _require_int(entry.get("line"), f"{p}.line", minimum=1)
        certified = entry.get("certified")
        if not isinstance(certified, bool):
            raise AuditSchemaError(f"{p}.certified", "must be a boolean")
        blockers = entry.get("blockers")
        if not isinstance(blockers, list):
            raise AuditSchemaError(f"{p}.blockers", "must be an array")
        if certified and blockers:
            raise AuditSchemaError(
                f"{p}.blockers", "certified kernels must have no blockers"
            )
        if not certified and not blockers:
            raise AuditSchemaError(
                f"{p}.blockers", "uncertified kernels must name a blocker"
            )
        for j, b in enumerate(blockers):
            bp = f"{p}.blockers[{j}]"
            if not isinstance(b, dict):
                raise AuditSchemaError(bp, "must be an object")
            if set(b) != {"path", "line", "col", "kind", "message"}:
                raise AuditSchemaError(
                    bp, "must have exactly path/line/col/kind/message"
                )
            _require_str(b.get("path"), f"{bp}.path")
            _require_int(b.get("line"), f"{bp}.line", minimum=1)
            _require_int(b.get("col"), f"{bp}.col", minimum=1)
            _require_str(b.get("kind"), f"{bp}.kind")
            _require_str(b.get("message"), f"{bp}.message")
        if certified:
            n_certified += 1
    if document["n_certified"] != n_certified:
        raise AuditSchemaError(
            "$.n_certified", "does not match the certified entries"
        )
    return document


# ----------------------------------------------------------------------
# kernel discovery
# ----------------------------------------------------------------------


def _decorator_resolves_to_kernel(
    dec: ast.AST, summary: ModuleSummary
) -> bool:
    """Whether decorator ``dec`` is :func:`repro.kernels.kernel`
    (through the module's import aliases; calls like ``@kernel()`` are
    not the marker's spelling and are ignored)."""
    parts = dotted_parts(dec)
    if parts is None:
        return False
    if len(parts) == 1:
        return summary.imports.get(parts[0]) == KERNEL_DECORATOR
    head = summary.imports.get(parts[0])
    if head is None:
        return False
    return ".".join([head, *parts[1:]]) == KERNEL_DECORATOR


def find_declared_kernels(index: ProjectIndex) -> List[FunctionSummary]:
    """Every module-level function marked ``@kernel`` in the index,
    in (module, name) order."""
    found: List[FunctionSummary] = []
    for summary in sorted(
        index.modules.values(), key=lambda s: s.module
    ):
        for name in sorted(summary.top_level_functions):
            fn = summary.functions.get(name)
            if fn is None or not isinstance(fn.node, ast.FunctionDef):
                continue
            if any(
                _decorator_resolves_to_kernel(dec, summary)
                for dec in fn.node.decorator_list
            ):
                found.append(fn)
    return found


# ----------------------------------------------------------------------
# the purity checks
# ----------------------------------------------------------------------


def _block(
    fn: FunctionSummary, node: ast.AST, kind: str, message: str
) -> Blocker:
    return Blocker(
        path=fn.path,
        line=getattr(node, "lineno", 1),
        col=getattr(node, "col_offset", 0) + 1,
        kind=kind,
        message=message,
    )


def _where(fn: FunctionSummary, root: FunctionSummary) -> str:
    """Suffix naming the helper when a blocker is in a callee."""
    if fn is root:
        return ""
    return f" (reached via helper {fn.name}())"


def _check_scope(
    fn: FunctionSummary, summary: ModuleSummary, root: FunctionSummary
) -> Iterator[Blocker]:
    via = _where(fn, root)
    for name in sorted(fn.captured):
        yield _block(
            fn,
            fn.node,
            "closure-capture",
            f"captures {name!r} from an enclosing scope{via}",
        )
    for name in sorted(fn.global_decls | fn.nonlocal_decls):
        yield _block(
            fn,
            fn.node,
            "global-state",
            f"declares global/nonlocal {name!r}{via}",
        )
    for name in sorted(fn.global_reads):
        binding = summary.module_bindings.get(name)
        if isinstance(binding, ast.Constant):
            continue  # module-level scalar constants compile fine
        if name in summary.top_level_functions:
            continue  # helper calls are resolved by the reachability walk
        yield _block(
            fn,
            fn.node,
            "global-state",
            f"reads module-level binding {name!r} (not a scalar "
            f"constant){via}",
        )


def _check_body(
    fn: FunctionSummary, summary: ModuleSummary, root: FunctionSummary
) -> Iterator[Blocker]:
    via = _where(fn, root)
    body = fn.node
    for node in ast.walk(body):
        if node is body:
            continue
        if isinstance(node, (ast.List, ast.Dict, ast.Set)):
            yield _block(
                fn,
                node,
                "object-container",
                f"builds a Python {type(node).__name__.lower()} in the "
                f"numeric path{via}",
            )
        elif isinstance(node, (ast.ListComp, ast.DictComp, ast.SetComp)):
            yield _block(
                fn,
                node,
                "object-container",
                f"comprehension allocates a Python container{via}",
            )
        elif isinstance(node, (ast.GeneratorExp,)):
            yield _block(
                fn,
                node,
                "generator",
                f"generator expression in the numeric path{via}",
            )
        elif isinstance(node, (ast.Yield, ast.YieldFrom, ast.Await)):
            yield _block(
                fn, node, "generator", f"kernel must not yield/await{via}"
            )
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            yield _block(
                fn,
                node,
                "context-manager",
                f"with-block has no certifiable lowering{via}",
            )
        elif isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
        ):
            yield _block(
                fn,
                node,
                "nested-def",
                f"nested function/lambda creates a closure{via}",
            )
        elif isinstance(node, ast.Call):
            for b in _check_call(fn, summary, node, via):
                yield b


def _check_call(
    fn: FunctionSummary,
    summary: ModuleSummary,
    node: ast.Call,
    via: str,
) -> Iterator[Blocker]:
    parts = dotted_parts(node.func)
    if parts is None:
        return
    name = ".".join(parts)
    head, _, tail = name.rpartition(".")
    # container constructors
    if name in ("list", "dict", "set"):
        yield _block(
            fn,
            node,
            "object-container",
            f"{name}() allocates a Python container{via}",
        )
        return
    # I/O and logging
    if name in _IO_CALLS:
        yield _block(fn, node, "io-call", f"{name}(...) is I/O{via}")
        return
    if parts[0] in _IO_HEADS and len(parts) > 1:
        yield _block(
            fn,
            node,
            "io-call",
            f"{name}(...) is I/O/logging{via}",
        )
        return
    # tracer / observability calls
    if parts[0] in _TRACER_RECEIVERS and len(parts) > 1:
        yield _block(
            fn,
            node,
            "tracer-call",
            f"{name}(...) is an observability call — take the "
            f"measurement outside the kernel{via}",
        )
        return
    # numpy constructors must pin their dtype
    if head in ("np", "numpy") and tail in _KERNEL_ALLOCATORS:
        if any(kw.arg == "dtype" for kw in node.keywords):
            return
        if len(node.args) > _KERNEL_ALLOCATORS[tail]:
            return  # dtype passed positionally
        yield _block(
            fn,
            node,
            "implicit-dtype",
            f"np.{tail}(...) without an explicit dtype — a compiled "
            f"kernel must know its types{via}",
        )


def certify_kernel(index: ProjectIndex, fn: FunctionSummary) -> KernelEntry:
    """Certify one declared kernel (closing over its callees)."""
    entry = KernelEntry(
        name=fn.name,
        qualname=fn.qualname,
        module=fn.module,
        path=fn.path,
        line=getattr(fn.node, "lineno", 1),
    )
    blockers: List[Blocker] = []
    for reached in index.reachable([fn]):
        reached_summary = index.modules[reached.module]
        blockers.extend(_check_scope(reached, reached_summary, fn))
        blockers.extend(_check_body(reached, reached_summary, fn))
    entry.blockers = sorted(
        set(blockers), key=lambda b: (b.path, b.line, b.col, b.kind)
    )
    entry.certified = not entry.blockers
    return entry


def audit_project(project: Project) -> KernelAudit:
    """Certify every kernel declared in the project (the certifier's
    view of the shared index)."""
    index = project.index
    audit = KernelAudit()
    for fn in find_declared_kernels(index):
        audit.kernels.append(certify_kernel(index, fn))
    return audit


def audit_paths(
    paths: Iterable[Union[str, Path]],
    exclude: Sequence[str] = (),
) -> KernelAudit:
    """Certify every kernel declared under ``paths`` (files with
    syntax errors are skipped — the engine reports E999)."""
    return load_project(paths, exclude).view(audit_project)


def audit_source(
    source: str, module: str = "<string>", path: str = "<string>"
) -> KernelAudit:
    """Single-source convenience wrapper (unit tests)."""
    project = Project()
    project.add_source(source, module=module, path=path)
    return project.view(audit_project)
