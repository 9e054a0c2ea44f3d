"""Pluggable AST lint engine — the only driver of every rule family.

A :class:`LintRule` overrides :meth:`~LintRule.check` and inspects one
parsed file (a :class:`FileContext`) at a time.  Rules register
themselves in a module-level registry via :func:`register_rule` and
belong to a ``family`` (``core`` runs by default; ``perf`` is what
``repro-lint --perf`` adds).

:func:`load_project` walks the target paths and parses each file
exactly once; the :class:`LintEngine` runs every selected rule over
each parsed file and filters out diagnostics silenced by
``# repro-lint: disable=CODE`` comments.

Suppression grammar (comments only — strings never suppress):

``# repro-lint: disable=LOOP001`` on the flagged line silences the
named rule(s) for that line; ``# repro-lint: disable-file=LOOP001``
anywhere in a file silences them for the whole file.  ``disable=all``
is accepted in both forms.
"""

from __future__ import annotations

import ast
import fnmatch
import io
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Set,
    Tuple,
    Type,
    Union,
)

_SUPPRESS_RE = re.compile(
    r"#\s*repro-lint:\s*(disable|disable-file)\s*=\s*"
    r"(all|[A-Z]+[0-9]+(?:\s*,\s*[A-Z]+[0-9]+)*)"
)

#: Diagnostic code reported for files the ``ast`` module cannot parse.
SYNTAX_ERROR_CODE = "E999"


def _excluded(path: Path, patterns: Sequence[str]) -> bool:
    """Whether ``path`` matches any exclude glob (POSIX matching)."""
    text = path.as_posix()
    return any(fnmatch.fnmatch(text, pat) for pat in patterns)


@dataclass(frozen=True, order=True)
class Diagnostic:
    """One lint finding, sortable into (path, line, col, code) order.

    ``col`` is 1-based, like every mainstream linter's output (the
    ``ast`` module reports 0-based offsets; :meth:`LintRule.diag` and
    the syntax-error path perform the shift at construction time).
    """

    path: str
    line: int
    col: int
    code: str
    message: str

    def as_dict(self) -> Dict[str, Union[str, int]]:
        """JSON-serialisable form (see ``docs/STATIC_ANALYSIS.md``)."""
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "code": self.code,
            "message": self.message,
        }

    def render(self) -> str:
        """``path:line:col: CODE message`` — the human reporter line."""
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"


@dataclass
class FileContext:
    """Everything a rule may inspect about one target file."""

    path: str
    module: str
    source: str
    tree: ast.Module
    #: line → set of codes disabled on that line ({"all"} disables all)
    line_suppressions: Dict[int, Set[str]] = field(default_factory=dict)
    #: codes disabled for the entire file ({"all"} disables all)
    file_suppressions: Set[str] = field(default_factory=set)

    def is_suppressed(self, line: int, code: str) -> bool:
        """True when ``code`` is silenced at ``line`` by a comment."""
        for scope in (self.file_suppressions, self.line_suppressions.get(line, set())):
            if "all" in scope or code in scope:
                return True
        return False


@dataclass
class Project:
    """The parsed target set of one run, shared by every rule: the
    file contexts and the E999 diagnostics of the files that did not
    parse."""

    contexts: List[FileContext] = field(default_factory=list)
    syntax_errors: List[Diagnostic] = field(default_factory=list)

    def add_source(self, source: str, module: str, path: str) -> None:
        """Parse ``source`` into the project (E999 when it does not)."""
        try:
            self.contexts.append(
                build_file_context(source, module=module, path=path)
            )
        except SyntaxError as exc:
            self.syntax_errors.append(
                Diagnostic(
                    path=path,
                    line=exc.lineno or 1,
                    col=exc.offset or 1,
                    code=SYNTAX_ERROR_CODE,
                    message=f"syntax error: {exc.msg}",
                )
            )


class LintRule:
    """Base class for lint rules.

    Subclasses set ``code`` (e.g. ``"LOOP001"``), ``name`` and
    ``description`` and override :meth:`check`.  ``modules`` optionally
    restricts a rule to dotted-module prefixes (empty = every file).
    """

    code: str = ""
    name: str = ""
    description: str = ""
    #: dotted module-name prefixes this rule applies to ((), = all files)
    modules: Tuple[str, ...] = ()
    #: ``core`` rules make up the default engine run; any other family
    #: runs only when asked for — by an explicit ``--select`` or by the
    #: ``repro-lint`` flag named after it (``--perf``)
    family: str = "core"

    def applies_to(self, ctx: FileContext) -> bool:
        """Whether this rule should run on ``ctx`` (module scoping)."""
        if not self.modules:
            return True
        return any(
            ctx.module == m or ctx.module.startswith(m + ".")
            for m in self.modules
        )

    def check(self, ctx: FileContext) -> Iterable[Diagnostic]:
        """Yield diagnostics for one file; rules override this."""
        return ()

    def diag(
        self,
        ctx: FileContext,
        node: ast.AST,
        message: Optional[str] = None,
    ) -> Diagnostic:
        """Build a diagnostic anchored at ``node`` (1-based column) in
        the file ``ctx``."""
        return Diagnostic(
            path=ctx.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            code=self.code,
            message=message if message is not None else self.description,
        )


_REGISTRY: Dict[str, LintRule] = {}


def register_rule(cls: Type[LintRule]) -> Type[LintRule]:
    """Class decorator: instantiate and add ``cls`` to the registry."""
    if not cls.code:
        raise ValueError(f"{cls.__name__} must define a non-empty code")
    if cls.code in _REGISTRY and type(_REGISTRY[cls.code]) is not cls:
        raise ValueError(f"duplicate rule code {cls.code}")
    _REGISTRY[cls.code] = cls()
    return cls


def all_rules(family: Optional[str] = None) -> List[LintRule]:
    """Registered rules sorted by code (of one ``family`` when given)."""
    return [
        _REGISTRY[code]
        for code in sorted(_REGISTRY)
        if family is None or _REGISTRY[code].family == family
    ]


def get_rule(code: str) -> LintRule:
    """Look up one rule by its code; raises ``KeyError`` when unknown."""
    return _REGISTRY[code]


def module_name_for(path: Union[str, Path]) -> str:
    """Infer the dotted module name of ``path``.

    The name is rooted at the last ``repro``/``src`` component so both
    source checkouts (``src/repro/graph/csr.py``) and test fixtures
    mimicking the package layout (``fixtures/repro/graph/bad.py``)
    resolve to ``repro.graph.…`` and trigger module-scoped rules.
    Elsewhere the name is qualified by the enclosing packages (the
    directories holding an ``__init__.py``), so ``tests/graph/test_io.py``
    and ``tests/mesh/test_io.py`` are two modules, not one.
    """
    directory = Path(path).parent
    parts = list(Path(path).with_suffix("").parts)
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
        directory = directory.parent
    for anchor in ("repro", "src"):
        if anchor in parts:
            idx = len(parts) - 1 - parts[::-1].index(anchor)
            if anchor == "src":
                idx += 1
            return ".".join(parts[idx:])
    depth = 1
    while depth < len(parts) and (directory / "__init__.py").is_file():
        depth += 1
        directory = directory.parent
    return ".".join(parts[-depth:])


def _collect_suppressions(
    source: str,
) -> Tuple[Dict[int, Set[str]], Set[str]]:
    """Extract line- and file-level suppressions from comment tokens."""
    per_line: Dict[int, Set[str]] = {}
    per_file: Set[str] = set()
    try:
        tokens = tokenize.generate_tokens(io.StringIO(source).readline)
        for tok in tokens:
            if tok.type != tokenize.COMMENT:
                continue
            m = _SUPPRESS_RE.search(tok.string)
            if not m:
                continue
            kind, codes_str = m.groups()
            codes = {c.strip() for c in codes_str.split(",")}
            if kind == "disable-file":
                per_file |= codes
            else:
                per_line.setdefault(tok.start[0], set()).update(codes)
    except tokenize.TokenError:  # pragma: no cover - truncated input
        pass
    return per_line, per_file


def _extend_decorator_suppressions(
    tree: ast.Module, per_line: Dict[int, Set[str]]
) -> None:
    """A suppression comment on a decorator line also covers the
    decorated ``def``/``class`` statement.

    Rules anchor their diagnostics at the *definition* line (that is
    where ``ast`` puts ``lineno``), but authors naturally write the
    comment next to the decorator that prompted it; both placements
    silence the finding.
    """
    for node in ast.walk(tree):
        if not isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            continue
        for dec in node.decorator_list:
            codes = per_line.get(dec.lineno)
            if codes:
                per_line.setdefault(node.lineno, set()).update(codes)


def build_file_context(
    source: str, module: str = "<string>", path: str = "<string>"
) -> FileContext:
    """Parse ``source`` into a :class:`FileContext` with suppressions
    collected; raises ``SyntaxError`` on unparsable input."""
    tree = ast.parse(source)
    per_line, per_file = _collect_suppressions(source)
    _extend_decorator_suppressions(tree, per_line)
    return FileContext(
        path=path,
        module=module,
        source=source,
        tree=tree,
        line_suppressions=per_line,
        file_suppressions=per_file,
    )


def _iter_target_files(
    paths: Iterable[Union[str, Path]],
    exclude: Sequence[str] = (),
) -> Iterator[Path]:
    """The ``*.py`` files under ``paths`` (files or, recursively,
    directories) in sorted order, minus hidden directories and the
    ``exclude`` globs; a missing path raises ``FileNotFoundError``."""
    for raw in paths:
        p = Path(raw)
        if p.is_dir():
            for f in sorted(p.rglob("*.py")):
                if any(part.startswith(".") for part in f.parts):
                    continue
                if _excluded(f, exclude):
                    continue
                yield f
        elif p.is_file():
            if not _excluded(p, exclude):
                yield p
        else:
            raise FileNotFoundError(f"no such file or directory: {p}")


def load_project(
    paths: Iterable[Union[str, Path]],
    exclude: Sequence[str] = (),
) -> Project:
    """Read and parse the target set — once, for every rule.

    ``exclude`` holds ``fnmatch`` glob patterns matched against the
    POSIX form of each candidate path (fixture trees that seed
    deliberate violations are excluded this way in CI)."""
    project = Project()
    for f in _iter_target_files(paths, exclude):
        project.add_source(
            f.read_text(encoding="utf-8"),
            module=module_name_for(f),
            path=str(f),
        )
    return project


class LintEngine:
    """Run a set of rules over files, directories, or raw source.

    ``families`` names the rule families of the run (default: ``core``
    alone); ``select`` instead names the exact rule codes, from any
    family; ``ignore`` drops codes from either.
    """

    def __init__(
        self,
        select: Optional[Iterable[str]] = None,
        ignore: Optional[Iterable[str]] = None,
        families: Sequence[str] = ("core",),
    ) -> None:
        chosen = all_rules()
        if select is not None:
            wanted = set(select)
            unknown = wanted - {r.code for r in chosen}
            if unknown:
                raise KeyError(f"unknown rule code(s): {sorted(unknown)}")
            chosen = [r for r in chosen if r.code in wanted]
        else:
            chosen = [r for r in chosen if r.family in families]
        if ignore is not None:
            dropped = set(ignore)
            chosen = [r for r in chosen if r.code not in dropped]
        self.rules: List[LintRule] = chosen

    # ------------------------------------------------------------------
    # entry points
    # ------------------------------------------------------------------
    def lint_project(self, project: Project) -> List[Diagnostic]:
        """Run the selected rules over an already-parsed target set;
        returns sorted, de-duplicated, unsuppressed diagnostics."""
        found: Set[Diagnostic] = set(project.syntax_errors)
        for rule in self.rules:
            for ctx in project.contexts:
                if rule.applies_to(ctx):
                    found.update(
                        d
                        for d in rule.check(ctx)
                        if not ctx.is_suppressed(d.line, d.code)
                    )
        return sorted(found)

    def lint_source(
        self,
        source: str,
        module: str = "<string>",
        path: str = "<string>",
    ) -> List[Diagnostic]:
        """Lint a source string (unit-test friendly)."""
        project = Project()
        project.add_source(source, module=module, path=path)
        return self.lint_project(project)

    def lint_file(self, path: Union[str, Path]) -> List[Diagnostic]:
        """Lint one file."""
        return self.lint_paths([path])

    def lint_paths(
        self,
        paths: Iterable[Union[str, Path]],
        exclude: Sequence[str] = (),
    ) -> List[Diagnostic]:
        """Lint files and (recursively) directories; see
        :func:`load_project` for ``paths`` and ``exclude``."""
        return self.lint_project(load_project(paths, exclude))
