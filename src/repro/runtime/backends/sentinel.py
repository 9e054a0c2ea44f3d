"""Dynamic race sentinel: empirically validate SPMD001 findings.

The static pass (:mod:`repro.analysis.spmd`) *proves* supersteps keep
their hands off shared state; this backend *checks* it at runtime.
:class:`SentinelBackend` wraps the thread backend and, around every
superstep, fingerprints each piece of state that is shared across
ranks — the ``shared`` mapping, the broadcast step argument, the
superstep's closure cells, and the mutable module globals its code
references.  When a step returns and any fingerprint changed, the
session raises :class:`SharedStateMutationError` naming the offending
attribute path, instead of letting the race silently corrupt a later
step.

The sentinel is opt-in (``REPRO_BACKEND=sentinel`` or
``build_backend("sentinel")``) and meant for tests/CI: fingerprinting
hashes array bytes, so it is far too slow for production runs.  With
``enabled=False`` the backend degrades to a plain
:class:`~repro.runtime.backends.thread.ThreadBackend` session with
zero per-step overhead.
"""

from __future__ import annotations

import functools
import hashlib
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.obs.tracer import TracerBase
from repro.runtime.backends.base import (
    BackendError,
    BackendSpec,
    Message,
    RankOutcome,
    SpmdSession,
    StepFn,
)
from repro.runtime.backends.thread import ThreadBackend, ThreadSession
from repro.runtime.ledger import CommLedger

#: recursion limit when fingerprinting nested containers/objects
_MAX_DEPTH = 6

#: module-global types worth watching (immutable globals cannot race)
_MUTABLE_GLOBAL_TYPES = (list, dict, set, bytearray, np.ndarray)


class SharedStateMutationError(BackendError):
    """A superstep mutated state shared across ranks.

    ``path`` is the attribute path of the first changed fingerprint
    (e.g. ``shared['totals'][2]`` or ``closure.acc``); ``step`` is the
    superstep function's name.
    """

    def __init__(self, step: str, path: str) -> None:
        self.step = step
        self.path = path
        super().__init__(
            f"superstep {step!r} mutated shared state at {path} — "
            f"this is a data race under the thread backend; confine "
            f"per-rank mutation to ctx.state (see SPMD001 in "
            f"docs/STATIC_ANALYSIS.md)"
        )


def _fingerprint(obj: Any, out: Dict[str, str], path: str, depth: int) -> None:
    """Record content digests for ``obj`` into ``out`` keyed by path.

    Unknown object types without ``__dict__`` (locks, generators, RNG
    engines) are skipped — the sentinel never guesses, mirroring the
    conservatism of the static pass.
    """
    if depth > _MAX_DEPTH:
        return
    if obj is None or isinstance(obj, (bool, int, float, complex, str, bytes)):
        out[path] = repr(obj)
        return
    if isinstance(obj, np.ndarray):
        h = hashlib.sha1()
        h.update(np.ascontiguousarray(obj).tobytes())
        out[path] = f"ndarray{obj.shape}:{obj.dtype}:{h.hexdigest()}"
        return
    if isinstance(obj, np.generic):
        out[path] = repr(obj)
        return
    if isinstance(obj, bytearray):
        out[path] = hashlib.sha1(bytes(obj)).hexdigest()
        return
    if isinstance(obj, Mapping):
        keys = sorted(obj.keys(), key=repr)
        out[path] = f"mapping:{len(keys)}"
        for k in keys:
            _fingerprint(obj[k], out, f"{path}[{k!r}]", depth + 1)
        return
    if isinstance(obj, (list, tuple)):
        out[path] = f"{type(obj).__name__}:{len(obj)}"
        for i, item in enumerate(obj):
            _fingerprint(item, out, f"{path}[{i}]", depth + 1)
        return
    if isinstance(obj, (set, frozenset)):
        out[path] = f"set:{sorted(repr(e) for e in obj)}"
        return
    if callable(obj):  # functions/partials are roots, not data
        return
    attrs = getattr(obj, "__dict__", None)
    if isinstance(attrs, dict):
        out[path] = f"object:{type(obj).__name__}:{len(attrs)}"
        for name in sorted(attrs):
            _fingerprint(attrs[name], out, f"{path}.{name}", depth + 1)
    # everything else (locks, file handles, RNG engines): skipped


def _function_roots(fn: Callable[..., Any]) -> List[Tuple[str, Any]]:
    """Shared-state roots reachable from a callable: bound ``partial``
    arguments, closure cells, and mutable module globals referenced by
    its code object."""
    roots: List[Tuple[str, Any]] = []
    seen_fns = 0
    while seen_fns < _MAX_DEPTH:
        wrapped = getattr(fn, "__wrapped__", None)
        if wrapped is not None and not isinstance(fn, functools.partial):
            # transparent wrappers (e.g. the chaos harness's ChaosStep)
            # advertise the real superstep via __wrapped__
            fn = wrapped
            seen_fns += 1
            continue
        if not isinstance(fn, functools.partial):
            break
        for i, a in enumerate(fn.args):
            if callable(a) and not isinstance(a, type):
                roots.extend(
                    (f"partial.args[{i}].{p}", v)
                    for p, v in _function_roots(a)
                )
            else:
                roots.append((f"partial.args[{i}]", a))
        for k, v in fn.keywords.items():
            roots.append((f"partial.keywords[{k!r}]", v))
        fn = fn.func
        seen_fns += 1
    code = getattr(fn, "__code__", None)
    if code is None:
        return roots
    closure = getattr(fn, "__closure__", None) or ()
    for name, cell in zip(code.co_freevars, closure):
        try:
            roots.append((f"closure.{name}", cell.cell_contents))
        except ValueError:  # pragma: no cover - empty cell
            continue
    fn_globals = getattr(fn, "__globals__", {})
    for name in code.co_names:
        value = fn_globals.get(name)
        if isinstance(value, _MUTABLE_GLOBAL_TYPES):
            roots.append((f"global.{name}", value))
    return roots


def _step_name(fn: Callable[..., Any]) -> str:
    depth = 0
    while depth < _MAX_DEPTH:
        wrapped = getattr(fn, "__wrapped__", None)
        if wrapped is not None and not isinstance(fn, functools.partial):
            fn = wrapped
            depth += 1
            continue
        if not isinstance(fn, functools.partial):
            break
        inner = next(
            (a for a in fn.args if callable(a) and not isinstance(a, type)),
            None,
        )
        fn = inner if inner is not None else fn.func
        depth += 1
    return getattr(fn, "__qualname__", getattr(fn, "__name__", repr(fn)))


class SentinelSession(ThreadSession):
    """Thread session that fingerprints shared state around each step."""

    def _snapshot(self, fn: StepFn, arg: Any) -> Dict[str, str]:
        prints: Dict[str, str] = {}
        for key in sorted(self._shared.keys(), key=repr):
            _fingerprint(self._shared[key], prints, f"shared[{key!r}]", 0)
        if arg is not None:
            _fingerprint(arg, prints, "arg", 0)
        for path, value in _function_roots(fn):
            _fingerprint(value, prints, path, 0)
        return prints

    def _run_step(
        self, fn: StepFn, arg: Any, inboxes: List[List[Message]]
    ) -> List[RankOutcome]:
        before = self._snapshot(fn, arg)
        outcomes = super()._run_step(fn, arg, inboxes)
        after = self._snapshot(fn, arg)
        if after != before:
            for path in sorted(set(before) | set(after)):
                if before.get(path) != after.get(path):
                    raise SharedStateMutationError(_step_name(fn), path)
        return outcomes


class SentinelBackend(ThreadBackend):
    """Thread backend whose sessions check the shared-state contract.

    ``enabled=False`` hands out plain :class:`ThreadSession` objects —
    useful to toggle the (expensive) checking from one code path.
    """

    name = "sentinel"

    def __init__(
        self, workers: Optional[int] = None, enabled: bool = True
    ) -> None:
        super().__init__(workers=workers)
        self.enabled = enabled

    def open_session(
        self,
        size: int,
        ledger: Optional[CommLedger] = None,
        tracer: Optional[TracerBase] = None,
        shared: Optional[Mapping[str, Any]] = None,
    ) -> SpmdSession:
        cls = SentinelSession if self.enabled else ThreadSession
        return cls(size, ledger, tracer, shared, self._ensure_pool())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"SentinelBackend(workers={self.workers}, "
            f"enabled={self.enabled})"
        )


def sentinel_from_spec(spec: "BackendSpec") -> SentinelBackend:
    """Spec factory for ``sentinel``."""
    return SentinelBackend(workers=spec.workers)
