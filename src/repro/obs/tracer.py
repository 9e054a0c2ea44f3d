"""Phase-level tracing primitives.

A :class:`Tracer` records a tree of named :class:`Span` objects —
``with tracer.span("coarsen"):`` times the enclosed block with
:func:`time.perf_counter` and nests under whatever span is currently
open. Re-entering a name under the same parent *accumulates* into the
existing span (``n_calls`` counts entries), so a phase executed once
per bisection or once per rank shows up as one aggregate line instead
of thousands.

Hot paths that should pay nothing when tracing is off take an optional
``tracer`` argument defaulting to :data:`NULL_TRACER`, a shared
:class:`NullTracer` whose ``span``/``count`` are no-ops returning a
singleton context manager — no allocation, no clock reads.

Spans also carry named *counters* (FM moves, tree nodes, items
shipped); :meth:`TracerBase.count` adds into the innermost open span.
"""

from __future__ import annotations

from time import perf_counter
from types import TracebackType
from typing import ContextManager, Dict, Iterator, List, Optional, Tuple, Type, Union

Number = Union[int, float]

#: span names used across the library (single source for docs/tests)
SPAN_COARSEN = "coarsen"
SPAN_INITIAL = "initial"
SPAN_REFINE = "refine"
#: stages of the k-way repair/polish, children of ``refine``/``refine-G'``
SPAN_ABSORB = "absorb"
SPAN_REBALANCE = "rebalance"
SPAN_GREEDY = "greedy"
SPAN_FM = "fm"
SPAN_DTREE_INDUCE = "dtree-induce"
SPAN_COLLAPSE = "collapse"
SPAN_REFINE_GPRIME = "refine-G'"
SPAN_MAP_TRANSFER = "map-transfer"


class Span:
    """One node of the trace tree: aggregate wall time + counters.

    ``total_s`` accumulates over every entry of the span; ``children``
    preserves first-entry order (dict insertion order).
    """

    __slots__ = ("name", "n_calls", "total_s", "counters", "children")

    def __init__(self, name: str) -> None:
        if not name:
            raise ValueError("span name must be non-empty")
        self.name = name
        self.n_calls = 0
        self.total_s = 0.0
        self.counters: Dict[str, Number] = {}
        self.children: Dict[str, "Span"] = {}

    # ------------------------------------------------------------------
    def child(self, name: str) -> "Span":
        """Get-or-create the child span called ``name``."""
        node = self.children.get(name)
        if node is None:
            node = self.children[name] = Span(name)
        return node

    def count(self, name: str, value: Number = 1) -> None:
        """Add ``value`` into counter ``name`` (created at 0)."""
        self.counters[name] = self.counters.get(name, 0) + value

    @property
    def children_s(self) -> float:
        """Wall time accounted to the direct children."""
        return sum(c.total_s for c in self.children.values())

    @property
    def self_s(self) -> float:
        """Wall time spent in this span outside any child span."""
        return max(0.0, self.total_s - self.children_s)

    # ------------------------------------------------------------------
    def find(self, path: str) -> Optional["Span"]:
        """Descendant at a ``/``-separated path (``None`` if absent)."""
        node: Optional[Span] = self
        for part in path.split("/"):
            if node is None:
                return None
            node = node.children.get(part)
        return node

    def walk(self, prefix: str = "") -> Iterator[Tuple[str, "Span"]]:
        """Yield ``(path, span)`` for this span and all descendants in
        depth-first (recording) order."""
        path = f"{prefix}/{self.name}" if prefix else self.name
        yield path, self
        for c in self.children.values():
            for item in c.walk(path):
                yield item

    def to_dict(self) -> Dict[str, object]:
        """Recursive plain-dict form (see ``repro.obs.schema``).

        ``self_s`` (exclusive time) is denormalised into the document
        so consumers of the JSON artifact can see where the time went
        without rebuilding the tree arithmetic.
        """
        return {
            "name": self.name,
            "n_calls": self.n_calls,
            "total_s": self.total_s,
            "self_s": self.self_s,
            "counters": dict(self.counters),
            "children": [c.to_dict() for c in self.children.values()],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "Span":
        """Rebuild a span tree emitted by :meth:`to_dict`.

        Raises ``ValueError`` on malformed input; use
        :func:`repro.obs.schema.validate_report` for diagnostics with
        paths.
        """
        name = data.get("name")
        if not isinstance(name, str):
            raise ValueError("span dict needs a string 'name'")
        span = cls(name)
        n_calls = data.get("n_calls", 0)
        total_s = data.get("total_s", 0.0)
        if not isinstance(n_calls, int) or isinstance(n_calls, bool):
            raise ValueError(f"span {name!r}: n_calls must be an int")
        if not isinstance(total_s, (int, float)) or isinstance(total_s, bool):
            raise ValueError(f"span {name!r}: total_s must be a number")
        span.n_calls = n_calls
        span.total_s = float(total_s)
        counters = data.get("counters", {})
        if not isinstance(counters, dict):
            raise ValueError(f"span {name!r}: counters must be a mapping")
        for key, value in counters.items():
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise ValueError(
                    f"span {name!r}: counter {key!r} must be a number"
                )
            span.counters[str(key)] = value
        children = data.get("children", [])
        if not isinstance(children, list):
            raise ValueError(f"span {name!r}: children must be a list")
        for child in children:
            if not isinstance(child, dict):
                raise ValueError(f"span {name!r}: child must be a mapping")
            rebuilt = cls.from_dict(child)
            span.children[rebuilt.name] = rebuilt
        return span

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Span({self.name!r}, calls={self.n_calls}, "
            f"total={self.total_s * 1e3:.2f}ms, "
            f"children={len(self.children)})"
        )


def accumulate_span(dst: Span, src: Span) -> None:
    """Merge ``src``'s totals/counters/children into ``dst`` (the
    accumulating semantics of re-entering a span name)."""
    dst.n_calls += src.n_calls
    dst.total_s += src.total_s
    for key, value in src.counters.items():
        dst.count(key, value)
    for child in src.children.values():
        accumulate_span(dst.child(child.name), child)


class _NullSpanCM:
    """Reusable no-op context manager (the off-switch's entire cost)."""

    __slots__ = ()

    def __enter__(self) -> Optional[Span]:
        return None

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        return None


_NULL_CM = _NullSpanCM()


class _SpanCM:
    """Times one entry into ``span`` on the tracer's stack."""

    __slots__ = ("_tracer", "_name", "_span", "_t0")

    def __init__(self, tracer: "Tracer", name: str) -> None:
        self._tracer = tracer
        self._name = name
        self._span: Optional[Span] = None
        self._t0 = 0.0

    def __enter__(self) -> Optional[Span]:
        stack = self._tracer._stack
        self._span = stack[-1].child(self._name)
        stack.append(self._span)
        self._t0 = perf_counter()
        return self._span

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        elapsed = perf_counter() - self._t0
        span = self._span
        if span is None:  # pragma: no cover - __exit__ without __enter__
            return None
        span.total_s += elapsed
        span.n_calls += 1
        self._tracer._stack.pop()
        return None


class TracerBase:
    """Tracing interface; the base behaviour is the no-op.

    Pipeline code annotates parameters as ``Optional[TracerBase]`` and
    normalises ``None`` to :data:`NULL_TRACER`, so the hot path never
    branches on "is tracing on".
    """

    enabled: bool = False

    def span(self, name: str) -> ContextManager[Optional[Span]]:
        """Open (or re-enter) the child span ``name``; no-op here."""
        return _NULL_CM

    def count(self, name: str, value: Number = 1) -> None:
        """Add ``value`` to counter ``name`` of the open span; no-op."""
        return None


class NullTracer(TracerBase):
    """Explicit do-nothing tracer (identical to :class:`TracerBase`)."""


class Tracer(TracerBase):
    """Recording tracer. See the module docstring for semantics.

    Spans must not be re-entered while already open (a span nested
    inside itself would double-count its own time); the library's span
    taxonomy never does this.
    """

    enabled = True

    def __init__(self, root_name: str = "run") -> None:
        self.root = Span(root_name)
        self.root.n_calls = 1
        self._stack: List[Span] = [self.root]

    def span(self, name: str) -> ContextManager[Optional[Span]]:
        return _SpanCM(self, name)

    def count(self, name: str, value: Number = 1) -> None:
        self._stack[-1].count(name, value)

    @property
    def current(self) -> Span:
        """The innermost open span (the root when idle)."""
        return self._stack[-1]

    def finish(self) -> Span:
        """Close the books: set the root's total to the sum of its
        children (the root itself is never timed) and return it."""
        if len(self._stack) != 1:
            raise RuntimeError(
                f"{len(self._stack) - 1} span(s) still open; "
                "finish() must be called outside any span"
            )
        self.root.total_s = self.root.children_s
        return self.root


#: shared no-op tracer — the default for every ``tracer=`` parameter
NULL_TRACER = NullTracer()


def ensure_tracer(tracer: Optional[TracerBase]) -> TracerBase:
    """Normalise an optional tracer argument to a usable instance."""
    return NULL_TRACER if tracer is None else tracer
