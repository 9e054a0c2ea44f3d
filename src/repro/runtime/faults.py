"""Deterministic fault injection for the SPMD worker pools.

A ``process`` or ``tcp`` pool built with a :class:`FaultPlan` — the
spec option ``faults=KIND@STEP.RANK[:SECONDS],…``, e.g.
``process://?workers=2&faults=kill@2.1,slow@5.0:0.02`` — injects faults
(kill / hang / slow) into a chosen rank at a chosen superstep.  Its
:class:`~repro.runtime.backends.supervised.SupervisedSession` wraps the
superstep in a :class:`ChaosStep`, which fires the fault *before* the
rank's superstep function runs, on the first attempt only, so the
session's retry or replay re-executes from clean state and the run's
results stay bit-identical to an uninjected run:

* ``kill`` — the worker or agent process running the rank exits hard
  (``os._exit``), exercising the supervised respawn/replay path.  A
  kill aimed at a rank the calling process runs itself (a session that
  has degraded, or fell back for an unpicklable first step) does
  nothing: there is no worker to lose.
* ``hang`` — the rank sleeps (default 30 s), long enough to blow the
  supervisor's per-step deadline where one is configured.
* ``slow`` — the rank sleeps briefly (default 10 ms) without failing;
  a latency probe.

Superstep indexes are global across the pool's lifetime (a run is
usually many short sessions — e.g. one per driver step), so a plan
like ``kill@2.1`` targets the third superstep *of the run*.  The
in-process backends (``serial``, ``thread``) accept no ``faults=``:
only a pool has a worker to lose and a session that recovers it.  See
``docs/FAULT_TOLERANCE.md``.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Tuple

from repro.runtime.backends.base import SpmdContext, StepFn

__all__ = ["ChaosStep", "FaultPlan", "FaultSpec"]

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

    def to_text(self) -> str:
        return ",".join(spec.to_text() for spec in self.faults)

    def __bool__(self) -> bool:
        return bool(self.faults)


# ----------------------------------------------------------------------
# the injecting superstep wrapper
# ----------------------------------------------------------------------


class ChaosStep:
    """Picklable wrapper around one superstep: triggers the faults armed
    for this attempt (``{rank: (kind, seconds)}``) *before* running the
    wrapped function, so a faulted rank never half-mutates its
    state."""

    def __init__(
        self, fn: StepFn, faults: Dict[int, Tuple[str, float]]
    ) -> None:
        self.fn = fn
        self.faults = faults

    def __call__(self, ctx: SpmdContext, arg: Any) -> Any:
        fault = self.faults.get(ctx.rank)
        if fault is not None:
            kind, seconds = fault
            if kind != "kill":
                time.sleep(seconds)
            elif _in_worker():
                os._exit(KILL_EXIT_CODE)
        return self.fn(ctx, arg)
