"""Execution-backend core: where SPMD supersteps actually run.

The paper's evaluation reports communication *counts*, so every
message a rank sends is recorded in a
:class:`~repro.runtime.ledger.CommLedger`.  This package makes the
rank loop a pluggable *backend* behind one small session protocol, so
the same superstep functions run

* sequentially in-process (:class:`~repro.runtime.backends.serial.SerialBackend`,
  the reference semantics),
* on a thread pool (:class:`~repro.runtime.backends.thread.ThreadBackend`), or
* on a persistent pool of worker processes
  (:class:`~repro.runtime.backends.process.ProcessBackend`).

Execution stays bulk-synchronous: a *session* owns ``size`` ranks, and
every :meth:`SpmdSession.step` call runs one superstep function on all
ranks, then plays the barrier — queued sends are routed into the
destination inboxes for the next step.  All merging (return values,
ledger records, queued messages, per-rank span trees) happens in rank
order in the calling process, so results are bit-identical across
backends regardless of scheduling.

Superstep functions receive a :class:`SpmdContext` with

* ``rank`` / ``size`` — who am I, how many of us,
* ``shared`` — the read-only mapping of run-wide inputs the backend
  distributed (shipped once per session to remote peers, NumPy arrays
  as raw frames outside the pickle); every backend hands it out
  through :func:`read_only_shared`, so a superstep that writes a shared
  array or assigns a key fails the same way on all of them,
* ``state`` — a per-rank dict that persists across the session's steps
  (resident in the owning worker on the process backend),
* ``send`` / ``inbox`` — mpi4py-style verbs: queue now, deliver at the
  barrier,
* ``span`` / ``count`` — per-rank tracing merged back into the session
  tracer (see ``docs/PARALLELISM.md``).
"""

from __future__ import annotations

import importlib
import os
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    ContextManager,
    Dict,
    List,
    Mapping,
    Optional,
    Tuple,
    Type,
    Union,
)
from types import MappingProxyType, TracebackType
from urllib.parse import parse_qsl, urlsplit

import numpy as np

from repro.obs.tracer import (
    NULL_TRACER,
    Number,
    Span,
    Tracer,
    TracerBase,
    accumulate_span,
    ensure_tracer,
)
from repro.runtime.ledger import CommLedger

#: (phase, src, dst, items) — one ledger entry recorded on a rank
LedgerRecord = Tuple[str, int, int, int]
#: (dst, payload) — one queued message (src is the producing rank)
SendRecord = Tuple[int, Any]
#: (src, payload) — one delivered message
Message = Tuple[int, Any]
#: a superstep: ``fn(ctx, arg) -> per-rank result``
StepFn = Callable[["SpmdContext", Any], Any]

#: environment variable selecting the default backend by its spec (e.g.
#: ``process:4``); read by :func:`resolve_backend`
BACKEND_ENV = "REPRO_BACKEND"

class BackendError(RuntimeError):
    """An execution backend failed (worker crash, protocol misuse)."""


class SpmdContext:
    """Per-rank execution context handed to superstep functions."""

    __slots__ = (
        "rank",
        "size",
        "shared",
        "state",
        "tracer",
        "_inbox",
        "_sends",
        "_records",
    )

    def __init__(
        self,
        rank: int,
        size: int,
        shared: Mapping[str, Any],
        state: Dict[str, Any],
        inbox: List[Message],
        tracer: TracerBase,
    ) -> None:
        self.rank = rank
        self.size = size
        self.shared = shared
        self.state = state
        self.tracer = tracer
        self._inbox = inbox
        self._sends: List[SendRecord] = []
        self._records: List[LedgerRecord] = []

    # ------------------------------------------------------------------
    def send(self, dst: int, payload: Any, phase: str, items: int) -> None:
        """Queue a message for barrier delivery (``items`` is the
        logical item count recorded in the ledger)."""
        if not 0 <= dst < self.size:
            raise ValueError(f"rank {dst} out of range [0, {self.size})")
        if items < 0:
            raise ValueError("items must be >= 0")
        self._records.append((phase, self.rank, dst, items))
        self._sends.append((dst, payload))

    def inbox(self) -> List[Message]:
        """Messages delivered to this rank (consumed on read)."""
        msgs = self._inbox
        self._inbox = []
        return msgs

    # ------------------------------------------------------------------
    def span(self, name: str) -> ContextManager[Optional[Span]]:
        """Open (or re-enter) a per-rank trace span."""
        return self.tracer.span(name)

    def count(self, name: str, value: Number = 1) -> None:
        """Add into a counter of the innermost open per-rank span."""
        self.tracer.count(name, value)


class RankOutcome:
    """Everything one rank's superstep produced (transported back to
    the session for the deterministic rank-ordered merge)."""

    __slots__ = ("value", "sends", "records", "spans")

    def __init__(
        self,
        value: Any,
        sends: List[SendRecord],
        records: List[LedgerRecord],
        spans: Optional[Span],
    ) -> None:
        self.value = value
        self.sends = sends
        self.records = records
        self.spans = spans


def read_only_shared(
    shared: Optional[Mapping[str, Any]],
) -> Mapping[str, Any]:
    """The ``ctx.shared`` a session hands its ranks.

    A :class:`~types.MappingProxyType` (assigning a key raises
    ``TypeError``) whose NumPy arrays are non-writeable *views* (writing
    an element raises ``ValueError``), so the caller's own arrays keep
    their flags.  This is the one guard of the superstep contract "ranks
    only read ``ctx.shared``": a breach fails on the serial backend
    exactly as on a pool (whose arrays, decoded from wire frames, are
    read-only anyway), instead of silently changing what later
    supersteps read in-process.
    """
    frozen: Dict[str, Any] = {}
    for key, value in (shared or {}).items():
        if isinstance(value, np.ndarray):
            value = value.view()
            value.flags.writeable = False
        frozen[key] = value
    return MappingProxyType(frozen)


def run_rank_step(
    fn: StepFn,
    arg: Any,
    rank: int,
    size: int,
    shared: Mapping[str, Any],
    state: Dict[str, Any],
    inbox: List[Message],
    trace: bool,
) -> RankOutcome:
    """Execute one rank's share of a superstep (backend-agnostic)."""
    tracer: TracerBase = Tracer("rank") if trace else NULL_TRACER
    ctx = SpmdContext(rank, size, shared, state, inbox, tracer)
    value = fn(ctx, arg)
    spans: Optional[Span] = None
    if isinstance(tracer, Tracer) and tracer.root.children:
        spans = tracer.finish()
    return RankOutcome(value, ctx._sends, ctx._records, spans)


class SpmdSession:
    """One bulk-synchronous run: ``size`` ranks stepping in lockstep.

    Subclasses implement :meth:`_run_step` (and may override the
    lifecycle hooks).  The base class owns everything that must be
    deterministic: message routing, ledger replay, and span merging,
    all performed in rank order in the calling process.
    """

    def __init__(
        self,
        size: int,
        ledger: Optional[CommLedger],
        tracer: Optional[TracerBase],
    ) -> None:
        if size < 1:
            raise ValueError(
                f"SPMD session size must be >= 1, got {size}"
            )
        self.size = size
        self.ledger = ledger if ledger is not None else CommLedger()
        self.tracer = ensure_tracer(tracer)
        self._inboxes: List[List[Message]] = [[] for _ in range(size)]
        self._closed = False

    # -- subclass interface --------------------------------------------
    def _run_step(
        self, fn: StepFn, arg: Any, inboxes: List[List[Message]]
    ) -> List[RankOutcome]:
        raise NotImplementedError

    def _close(self) -> None:
        """Release backend resources (hook; base is a no-op)."""

    # ------------------------------------------------------------------
    def step(self, fn: StepFn, arg: Any = None) -> List[Any]:
        """Run ``fn(ctx, arg)`` on every rank, then play the barrier.

        Returns the per-rank results in rank order.  Messages queued
        with ``ctx.send`` become readable from ``ctx.inbox()`` in the
        *next* step (self-sends drop at the barrier, uncounted).
        """
        if self._closed:
            raise BackendError("session is closed")
        inboxes = self._inboxes
        self._inboxes = [[] for _ in range(self.size)]
        outcomes = self._run_step(fn, arg, inboxes)
        return self._merge(outcomes)

    def _merge(self, outcomes: List[RankOutcome]) -> List[Any]:
        """Rank-ordered merge: ledger replay, message routing, spans."""
        if len(outcomes) != self.size:
            raise BackendError(
                f"backend returned {len(outcomes)} rank outcomes for a "
                f"{self.size}-rank session"
            )
        current: Optional[Span] = getattr(self.tracer, "current", None)
        values: List[Any] = []
        for rank, out in enumerate(outcomes):
            for phase, src, dst, items in out.records:
                self.ledger.record(phase, src, dst, items)
            for dst, payload in out.sends:
                if dst != rank:  # self-sends drop at the barrier
                    self._inboxes[dst].append((rank, payload))
            if out.spans is not None and current is not None:
                for child in out.spans.children.values():
                    accumulate_span(current.child(child.name), child)
            values.append(out.value)
        return values

    def close(self) -> None:
        """End the session and release per-rank state."""
        if not self._closed:
            self._closed = True
            self._close()

    def __enter__(self) -> "SpmdSession":
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        self.close()


class Backend:
    """Execution-backend interface.

    A backend is a (possibly pooled) place to run SPMD sessions; it is
    cheap to keep around and safe to reuse across many sessions — the
    process backend keeps its worker pool alive between sessions so
    repeated runs (e.g. one contact search per driver step) amortise
    the startup cost.
    """

    #: short identifier (one of :data:`BACKEND_NAMES`)
    name: str = "base"

    def open_session(
        self,
        size: int,
        ledger: Optional[CommLedger] = None,
        tracer: Optional[TracerBase] = None,
        shared: Optional[Mapping[str, Any]] = None,
    ) -> SpmdSession:
        """Start a ``size``-rank bulk-synchronous session."""
        raise NotImplementedError

    def close(self) -> None:
        """Release pooled resources (idempotent; base is a no-op)."""

    def __enter__(self) -> "Backend":
        return self

    def __exit__(
        self,
        exc_type: Optional[Type[BaseException]],
        exc: Optional[BaseException],
        tb: Optional[TracebackType],
    ) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


# ----------------------------------------------------------------------
# backend specs (URI form)
# ----------------------------------------------------------------------


def _parse_workers(text: str, source: str) -> int:
    try:
        workers = int(text)
    except ValueError:
        raise ValueError(
            f"invalid worker count {text!r} in {source}"
        ) from None
    if workers < 1:
        raise ValueError(
            f"worker count must be >= 1, got {workers} in {source}"
        )
    return workers


def default_workers() -> int:
    """Worker count used when a spec names none: the machine's CPU
    count (at least 1)."""
    return max(1, os.cpu_count() or 1)


@dataclass(frozen=True)
class BackendSpec:
    """A parsed, typed backend selection.

    Every textual way of naming a backend — ``--backend``,
    ``$REPRO_BACKEND``, the service request's ``backend`` field, a
    checkpoint's provenance string — parses **once** into this frozen
    value, and every resolution path consumes it.  Three text forms:

    * bare name: ``"serial"``, ``"process"``,
    * name with worker count: ``"process:4"`` (the historical form),
    * URI: ``"tcp://host:port?workers=4&deadline=30"`` — scheme is the
      backend name, the authority carries host/port (a trailing ``:N``
      authority segment is an alternative worker count:
      ``tcp://127.0.0.1:0:2``), and query parameters become
      :attr:`options`, validated by the backend's factory.

    Instances are hashable (options are a sorted tuple of pairs), so a
    spec can key caches — :func:`_backend_from_env` keys its memo on
    the parsed spec, which is what keeps backends configured through
    URI query parameters from going stale.
    """

    scheme: str
    workers: Optional[int] = None
    host: Optional[str] = None
    port: Optional[int] = None
    options: Tuple[Tuple[str, str], ...] = field(default=())

    def __post_init__(self) -> None:
        if not self.scheme:
            raise ValueError("backend spec needs a name")
        if self.workers is not None and self.workers < 1:
            raise ValueError(
                f"worker count must be >= 1, got {self.workers}"
            )
        if self.port is not None and not 0 <= self.port <= 65535:
            raise ValueError(f"port out of range: {self.port}")

    # -- parsing -------------------------------------------------------
    @classmethod
    def parse(cls, text: str) -> "BackendSpec":
        """Parse any of the three textual spec forms (see class doc)."""
        text = text.strip()
        if not text:
            raise ValueError("empty backend spec")
        if "://" not in text:
            name, _, count = text.partition(":")
            name = name.strip().lower()
            workers = (
                _parse_workers(count, f"backend spec {text!r}")
                if count
                else None
            )
            return cls(scheme=name, workers=workers)
        parts = urlsplit(text)
        scheme = parts.scheme.strip().lower()
        if parts.path not in ("", "/") or parts.fragment:
            raise ValueError(
                f"backend URI {text!r} must not carry a path/fragment"
            )
        host: Optional[str] = None
        port: Optional[int] = None
        workers = None
        netloc = parts.netloc
        # authority may be host[:port[:workers]]; urlsplit rejects the
        # second colon, so split by hand
        if netloc:
            pieces = netloc.split(":")
            if len(pieces) > 3:
                raise ValueError(
                    f"backend URI authority {netloc!r} has too many "
                    "':' segments (host[:port[:workers]])"
                )
            host = pieces[0] or None
            if len(pieces) >= 2 and pieces[1]:
                try:
                    port = int(pieces[1])
                except ValueError:
                    raise ValueError(
                        f"invalid port {pieces[1]!r} in backend URI "
                        f"{text!r}"
                    ) from None
            if len(pieces) == 3 and pieces[2]:
                workers = _parse_workers(pieces[2], f"backend URI {text!r}")
        options: List[Tuple[str, str]] = []
        for key, value in parse_qsl(parts.query, keep_blank_values=True):
            if key == "workers":
                workers = _parse_workers(value, f"backend URI {text!r}")
            else:
                options.append((key, value))
        return cls(
            scheme=scheme,
            workers=workers,
            host=host,
            port=port,
            options=tuple(sorted(options)),
        )

    # -- accessors -----------------------------------------------------
    @property
    def options_map(self) -> Dict[str, str]:
        """Query options as a plain dict."""
        return dict(self.options)

    def option(self, key: str, default: Optional[str] = None) -> Optional[str]:
        """One query option (raw text; ``default`` when absent)."""
        return self.options_map.get(key, default)

    def typed_options(
        self, schema: Mapping[str, Callable[[str], Any]]
    ) -> Dict[str, Any]:
        """Options converted through ``schema`` (the options the
        backend accepts, each with its converter); unknown keys
        raise."""
        out: Dict[str, Any] = {}
        for key, raw in self.options:
            convert = schema.get(key)
            if convert is None:
                raise ValueError(
                    f"backend {self.scheme!r} does not accept option "
                    f"{key!r}; allowed: {sorted(schema) or 'none'}"
                )
            try:
                out[key] = convert(raw)
            except (TypeError, ValueError) as exc:
                raise ValueError(
                    f"invalid value {raw!r} for backend option "
                    f"{key!r}: {exc}"
                ) from None
        return out

    def to_text(self) -> str:
        """Canonical textual form (parses back to an equal spec)."""
        if self.host is None and self.port is None and not self.options:
            if self.workers is None:
                return self.scheme
            return f"{self.scheme}:{self.workers}"
        authority = self.host or ""
        if self.port is not None:
            authority += f":{self.port}"
        query = list(self.options)
        if self.workers is not None:
            query.append(("workers", str(self.workers)))
        text = f"{self.scheme}://{authority}"
        if query:
            text += "?" + "&".join(f"{k}={v}" for k, v in sorted(query))
        return text

    def __str__(self) -> str:
        return self.to_text()


# ----------------------------------------------------------------------
# the built-in backends
# ----------------------------------------------------------------------

#: name -> ``module:function`` building the backend from its parsed spec
#: (imported on first use, so nothing loads eagerly); each factory
#: validates the spec's query options itself
_BACKENDS: Dict[str, str] = {
    "serial": "repro.runtime.backends.serial:serial_from_spec",
    "thread": "repro.runtime.backends.thread:thread_from_spec",
    "process": "repro.runtime.backends.process:process_from_spec",
    "tcp": "repro.runtime.backends.tcp:tcp_from_spec",
}

#: the backend names, sorted
BACKEND_NAMES: Tuple[str, ...] = tuple(sorted(_BACKENDS))


def build_backend(spec: Union[str, BackendSpec, Backend]) -> Backend:
    """Build one of the built-in backends from its spec.

    ``spec`` is a spec string (any :meth:`BackendSpec.parse` form), a
    parsed :class:`BackendSpec`, or an already-built :class:`Backend`
    (passed through untouched — the instance already has its pool).
    An unknown name or query option is a :class:`ValueError` raised
    before any worker starts.
    """
    if isinstance(spec, Backend):
        return spec
    parsed = spec if isinstance(spec, BackendSpec) else BackendSpec.parse(spec)
    factory_path = _BACKENDS.get(parsed.scheme)
    if factory_path is None:
        raise ValueError(
            f"unknown backend {parsed.scheme!r}; "
            f"expected one of {BACKEND_NAMES}"
        )
    module_name, _, attr = factory_path.partition(":")
    return getattr(importlib.import_module(module_name), attr)(parsed)


# ----------------------------------------------------------------------
# default-backend resolution
# ----------------------------------------------------------------------

#: anything a ``backend=`` argument accepts
BackendLike = Union[None, str, BackendSpec, Backend]

_default_backend: Optional[Backend] = None
_env_backend: Optional[Backend] = None
_env_spec: Optional[BackendSpec] = None


def set_default_backend(backend: BackendLike) -> None:
    """Install the process-wide default backend (``None`` resets to the
    environment/serial resolution).  Accepts a spec string too."""
    global _default_backend
    if isinstance(backend, (str, BackendSpec)):
        backend = build_backend(backend)
    _default_backend = backend


def _backend_from_env() -> Optional[Backend]:
    """Backend selected by ``$REPRO_BACKEND``.

    The built instance is memoised on the **parsed**
    :class:`BackendSpec`, so any change visible in the spec — URI query
    options included — invalidates the cache.
    """
    global _env_backend, _env_spec
    text = os.environ.get(BACKEND_ENV)
    if not text:
        return None
    spec = BackendSpec.parse(text)
    if _env_backend is None or _env_spec != spec:
        _env_backend = build_backend(spec)
        _env_spec = spec
    return _env_backend


def resolve_backend(backend: BackendLike = None) -> Backend:
    """Normalise a backend argument to a usable instance.

    The single backend-selection entry point (used by
    ``ContactStepDriver`` and the CLI).  Resolution order:

    1. an explicit :class:`Backend` instance — returned as-is,
    2. an explicit spec — a string (``name`` / ``name:count`` /
       ``scheme://host:port?workers=N``) or a parsed
       :class:`BackendSpec` — built via :func:`build_backend`,
    3. the default installed with :func:`set_default_backend`,
    4. ``$REPRO_BACKEND``,
    5. a fresh :class:`SerialBackend`.
    """
    if isinstance(backend, Backend):
        return backend
    if isinstance(backend, (str, BackendSpec)):
        return build_backend(backend)
    if _default_backend is not None:
        return _default_backend
    env = _backend_from_env()
    if env is not None:
        return env
    from repro.runtime.backends.serial import SerialBackend

    return SerialBackend()
