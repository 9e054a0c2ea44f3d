"""Deterministic fault injection for the SPMD runtime (`chaos`).

The chaos backend wraps a supervised worker pool (``process`` or
``tcp``) and injects faults — kill / hang / slow — into a chosen rank
at a chosen superstep, according to a :class:`FaultPlan`.  Each fault
fires exactly once (first dispatch attempt of its superstep), *before*
the rank's superstep function runs, so the supervised session's retry
or replay re-executes from clean state and the run's results stay
bit-identical to an uninjected run:

* ``kill`` — the worker or agent process running the rank exits hard
  (``os._exit``), exercising the supervised respawn/replay path of
  :class:`~repro.runtime.backends.supervised.SupervisedSession`.  A
  kill aimed at a rank the calling process runs itself (a session that
  has degraded, or fell back for an unpicklable first step) does
  nothing: there is no worker to lose.
* ``hang`` — the rank sleeps (default 30 s), long enough to blow the
  supervisor's per-step deadline where one is configured.
* ``slow`` — the rank sleeps briefly (default 10 ms) without failing;
  a latency probe.

Superstep indexes are global across the backend's lifetime (a run is
usually many short sessions — e.g. one per driver step), so a plan
like ``kill@2.1`` targets the third superstep *of the run*.  Use
:meth:`ChaosBackend.reset` to restart the counter and re-arm a plan.

Selection: ``--backend chaos`` / ``REPRO_BACKEND=chaos`` with the plan
in ``$REPRO_FAULT_PLAN``; the wrapped pool is ``process`` unless
``chaos://?inner=tcp://…`` or ``ChaosBackend(inner=…)`` names another.
See ``docs/FAULT_TOLERANCE.md``.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Set, Tuple, Union

from repro.obs.tracer import TracerBase
from repro.runtime.backends.base import (
    FAULT_PLAN_ENV,
    Backend,
    BackendSpec,
    Message,
    RankOutcome,
    SpmdContext,
    SpmdSession,
    StepFn,
    build_backend,
)
from repro.runtime.backends.supervised import SupervisedBackend
from repro.runtime.ledger import CommLedger

__all__ = [
    "ChaosBackend",
    "ChaosSession",
    "ChaosStep",
    "FaultPlan",
    "FaultSpec",
]

#: recognised fault kinds
FAULT_KINDS = ("kill", "hang", "slow")

#: per-kind default duration (seconds; unused by ``kill``)
DEFAULT_SECONDS = {"kill": 0.0, "hang": 30.0, "slow": 0.01}

#: exit status of a killed worker (EX_SOFTWARE)
KILL_EXIT_CODE = 70


def _in_worker() -> bool:
    """Whether this process is a process-pool worker (by the pool's
    ``repro-spmd-*`` process naming — no import cycle with the
    backend)."""
    return multiprocessing.current_process().name.startswith("repro-spmd-")


# ----------------------------------------------------------------------
# fault plans
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class FaultSpec:
    """One fault: inject ``kind`` into ``rank`` at global superstep
    ``step`` (``seconds`` is the sleep for hang/slow)."""

    kind: str
    step: int
    rank: int
    seconds: float

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(
                f"unknown fault kind {self.kind!r}; "
                f"expected one of {FAULT_KINDS}"
            )
        if self.step < 0 or self.rank < 0:
            raise ValueError("fault step and rank must be >= 0")
        if self.seconds < 0:
            raise ValueError("fault seconds must be >= 0")

    def to_text(self) -> str:
        base = f"{self.kind}@{self.step}.{self.rank}"
        if self.seconds != DEFAULT_SECONDS[self.kind]:
            base += f":{self.seconds:g}"
        return base


def _parse_entry(entry: str) -> FaultSpec:
    problem = (
        f"invalid fault entry {entry!r}; expected "
        f"KIND@STEP.RANK[:SECONDS] with KIND in {FAULT_KINDS}"
    )
    kind, at, rest = entry.partition("@")
    kind = kind.strip().lower()
    if not at or kind not in FAULT_KINDS:
        raise ValueError(problem)
    where, colon, secs_text = rest.partition(":")
    step_text, dot, rank_text = where.partition(".")
    if not dot:
        raise ValueError(problem)
    try:
        step = int(step_text)
        rank = int(rank_text)
    except ValueError:
        raise ValueError(problem) from None
    seconds = DEFAULT_SECONDS[kind]
    if colon:
        try:
            seconds = float(secs_text)
        except ValueError:
            raise ValueError(problem) from None
    return FaultSpec(kind, step, rank, seconds)


@dataclass(frozen=True)
class FaultPlan:
    """A deterministic schedule of faults (see the grammar below).

    Text grammar: comma-separated ``KIND@STEP.RANK[:SECONDS]`` entries,
    e.g. ``"kill@2.1,slow@5.0:0.02,hang@7.1:12"``.
    """

    faults: Tuple[FaultSpec, ...] = ()

    @classmethod
    def parse(cls, text: str) -> "FaultPlan":
        specs: List[FaultSpec] = []
        for raw in text.split(","):
            entry = raw.strip()
            if entry:
                specs.append(_parse_entry(entry))
        return cls(tuple(specs))

    @classmethod
    def from_env(cls) -> "FaultPlan":
        """The plan in ``$REPRO_FAULT_PLAN`` (empty plan when unset)."""
        return cls.parse(os.environ.get(FAULT_PLAN_ENV, ""))

    def to_text(self) -> str:
        return ",".join(spec.to_text() for spec in self.faults)

    def __bool__(self) -> bool:
        return bool(self.faults)


# ----------------------------------------------------------------------
# the injecting superstep wrapper
# ----------------------------------------------------------------------


class ChaosStep:
    """Picklable wrapper around one superstep: triggers this attempt's
    armed faults *before* running the wrapped function, so a faulted
    rank never half-mutates its state.

    ``disarm()`` lets the supervised session's retry/replay machinery
    reach the plain superstep underneath.
    """

    def __init__(
        self,
        fn: StepFn,
        step_index: int,
        faults: Mapping[int, Tuple[str, float]],
    ) -> None:
        self.fn = fn
        self.step_index = step_index
        self.faults: Dict[int, Tuple[str, float]] = dict(faults)
        for attr in ("__name__", "__qualname__", "__doc__"):
            try:
                setattr(self, attr, getattr(fn, attr))
            except AttributeError:
                pass

    def disarm(self) -> StepFn:
        """The plain superstep (retries/replays run this)."""
        return self.fn

    def __call__(self, ctx: SpmdContext, arg: Any) -> Any:
        fault = self.faults.get(ctx.rank)
        if fault is not None:
            kind, seconds = fault
            if kind != "kill":
                time.sleep(seconds)
            elif _in_worker():
                os._exit(KILL_EXIT_CODE)
        return self.fn(ctx, arg)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ChaosStep({getattr(self.fn, '__qualname__', self.fn)!r}, "
            f"step={self.step_index}, faults={self.faults!r})"
        )


# ----------------------------------------------------------------------
# session and backend
# ----------------------------------------------------------------------


class ChaosSession(SpmdSession):
    """Session that injects the backend's plan into an inner session.

    The inner session is driven through its ``_run_step`` hook (never
    its public ``step``), so routing/ledger/span merging happens
    exactly once, here.
    """

    def __init__(
        self,
        size: int,
        ledger: Optional[CommLedger],
        tracer: Optional[TracerBase],
        shared: Optional[Mapping[str, Any]],
        backend: "ChaosBackend",
    ) -> None:
        super().__init__(size, ledger, tracer)
        self._backend = backend
        self._inner = backend.inner.open_session(
            size, ledger=self.ledger, tracer=self.tracer, shared=shared
        )

    def _run_step(
        self, fn: StepFn, arg: Any, inboxes: List[List[Message]]
    ) -> List[RankOutcome]:
        step_index = self._backend._next_step()
        armed = self._backend._arm(step_index, self.size)
        if armed:
            self.tracer.count("faults_injected", len(armed))
            fn = ChaosStep(fn, step_index, armed)
        return self._inner._run_step(fn, arg, inboxes)

    def _close(self) -> None:
        self._inner.close()


class ChaosBackend(Backend):
    """Deterministic fault-injection harness around a worker pool.

    ``plan`` is a :class:`FaultPlan` (or its text form; default
    ``$REPRO_FAULT_PLAN``); ``inner`` is a supervised backend
    (``process`` or ``tcp``) as an instance or spec string (default
    ``process``); any other inner backend is a :class:`ValueError`.
    Every fault fires at most once; the backend keeps a *global*
    superstep counter across all its sessions.
    """

    name = "chaos"

    def __init__(
        self,
        plan: Union[None, str, FaultPlan] = None,
        inner: Union[None, str, Backend] = None,
        workers: Optional[int] = None,
    ) -> None:
        if plan is None:
            plan = FaultPlan.from_env()
        elif isinstance(plan, str):
            plan = FaultPlan.parse(plan)
        self.plan = plan
        inner = build_backend(inner or "process", workers)
        if not isinstance(inner, SupervisedBackend):
            raise ValueError(
                f"chaos backend wraps a worker pool (process or tcp), "
                f"not {inner.name!r}: only a pool recovers a killed rank"
            )
        self.inner: SupervisedBackend = inner
        self._step_counter = 0
        self._fired: Set[int] = set()

    # -- plan bookkeeping ----------------------------------------------
    def _next_step(self) -> int:
        index = self._step_counter
        self._step_counter += 1
        return index

    def _arm(self, step_index: int, size: int) -> Dict[int, Tuple[str, float]]:
        """One-shot faults scheduled for this superstep (a fault aimed
        at a rank outside the session is skipped, not consumed)."""
        armed: Dict[int, Tuple[str, float]] = {}
        for idx, spec in enumerate(self.plan.faults):
            if idx in self._fired or spec.step != step_index:
                continue
            if spec.rank >= size:
                continue
            self._fired.add(idx)
            armed[spec.rank] = (spec.kind, spec.seconds)
        return armed

    def reset(self) -> None:
        """Restart the global superstep counter and re-arm the plan."""
        self._step_counter = 0
        self._fired.clear()

    # ------------------------------------------------------------------
    def open_session(
        self,
        size: int,
        ledger: Optional[CommLedger] = None,
        tracer: Optional[TracerBase] = None,
        shared: Optional[Mapping[str, Any]] = None,
    ) -> SpmdSession:
        return ChaosSession(size, ledger, tracer, shared, self)

    def close(self) -> None:
        self.inner.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ChaosBackend(inner={self.inner!r}, "
            f"plan={self.plan.to_text()!r})"
        )


def chaos_from_spec(spec: BackendSpec) -> ChaosBackend:
    """Spec factory for ``chaos``.

    URI options override the environment: ``plan`` is a fault-plan
    text (``KIND@STEP.RANK[:SECONDS]``, comma-separated), ``inner``
    the wrapped backend spec — e.g.
    ``chaos://?plan=kill@2.1&inner=tcp://127.0.0.1:0:2``.
    """
    opts = spec.typed_options({"plan": str, "inner": str})
    return ChaosBackend(
        plan=opts.get("plan"),
        inner=opts.get("inner"),
        workers=spec.workers,
    )
