"""The bounded async job queue: admission and deadlines.

The queue is the engine's pressure valve.  Submissions beyond
``maxsize`` fail fast with :class:`QueueFullError` (the HTTP layer
turns that into ``503``) instead of buffering unboundedly; each
:class:`Job` carries an absolute ``time.monotonic()`` deadline (from
the request's ``deadline_s``) that is checked before a worker starts
the job and when its attempt ends, so stale work is dropped as
``expired`` rather than executed or answered late.

A job runs once: its work is a deterministic function of the request,
so an attempt that raised would raise again.  The one fault a retry
can cure, a lost worker, is recovered inside the execution backend's
supervised session.

Jobs are plain mutable records; all state transitions go through
:meth:`Job.transition` which enforces the legal state machine
(``queued → running → done|failed|expired``, with ``cancelled``
reachable from any non-terminal state) so a bug cannot silently
resurrect a finished job.
"""

from __future__ import annotations

import asyncio
import bisect
import itertools
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.service.schemas import (
    JOB_STATES,
    SCHEMA_VERSION,
)

__all__ = [
    "Job",
    "JobQueue",
    "LatencyHistogram",
    "QueueFullError",
]

#: legal state-machine edges (see module docstring)
_TRANSITIONS = {
    "queued": ("running", "cancelled", "expired"),
    "running": ("done", "failed", "expired", "cancelled"),
    "done": (),
    "failed": (),
    "cancelled": (),
    "expired": (),
}

_TERMINAL = ("done", "failed", "cancelled", "expired")


class QueueFullError(RuntimeError):
    """The bounded queue rejected a submission (backpressure)."""


@dataclass
class Job:
    """One submitted unit of work and its full lifecycle record."""

    id: str
    request: Dict[str, Any]
    submitted_s: float
    deadline_s: Optional[float] = None  # absolute time.monotonic() deadline
    state: str = "queued"
    error: Optional[str] = None
    started_s: Optional[float] = None
    finished_s: Optional[float] = None
    #: how the result was produced: "hit" | "miss" | "coalesced" | None
    cache: Optional[str] = None
    #: True when this job reused another in-flight job's execution
    coalesced: bool = False
    #: the produced result payload (engine-internal, not serialised)
    result: Optional[Any] = None
    #: resolved when the job reaches a terminal state
    done_event: asyncio.Event = field(default_factory=asyncio.Event)
    #: ``time.monotonic()`` at creation: the start of the job's latency
    created_mono: float = field(default_factory=time.monotonic)
    #: called once with the job when it reaches a terminal state
    on_terminal: Optional[Callable[["Job"], None]] = None

    # ------------------------------------------------------------------
    @property
    def terminal(self) -> bool:
        """Whether the job has reached a final state."""
        return self.state in _TERMINAL

    def expired(self, now: Optional[float] = None) -> bool:
        """Whether the job's absolute deadline has passed."""
        if self.deadline_s is None:
            return False
        return (time.monotonic() if now is None else now) >= self.deadline_s

    def transition(self, state: str) -> None:
        """Move to ``state``, enforcing the legal state machine."""
        if state not in JOB_STATES:
            raise ValueError(f"unknown job state {state!r}")
        if state not in _TRANSITIONS[self.state]:
            raise ValueError(
                f"illegal transition {self.state!r} -> {state!r} "
                f"for job {self.id}"
            )
        self.state = state
        if state == "running" and self.started_s is None:
            self.started_s = time.time()
        if state in _TERMINAL:
            self.finished_s = time.time()
            self.done_event.set()
            if self.on_terminal is not None:
                self.on_terminal(self)

    def record(self) -> Dict[str, Any]:
        """The job as a ``repro.service-job/3`` record document."""
        return {
            "schema": SCHEMA_VERSION,
            "id": self.id,
            "state": self.state,
            "kind": self.request["kind"],
            "client": self.request["client"],
            "cache": self.cache,
            "coalesced": self.coalesced,
            "error": self.error,
            "submitted_s": self.submitted_s,
            "started_s": self.started_s,
            "finished_s": self.finished_s,
            "request": self.request,
        }


#: upper bounds (seconds) of the job-latency histogram buckets; a memory
#: hit ends inside its submission (microseconds), a cold fit takes
#: tenths of a second to minutes
LATENCY_BUCKETS_S = (
    1e-05, 2.5e-05, 5e-05, 0.0001, 0.00025, 0.0005, 0.001, 0.0025,
    0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
    30.0, 60.0, 120.0, 300.0,
)


class LatencyHistogram:
    """Submit → terminal seconds per ``(kind, cache)`` label pair, in
    the fixed :data:`LATENCY_BUCKETS_S` buckets (Prometheus semantics:
    :meth:`series` reports cumulative counts, ``+Inf`` last)."""

    def __init__(self) -> None:
        #: per (kind, cache): the count in each bucket, ``+Inf`` last
        self._counts: Dict[Tuple[str, str], List[int]] = {}
        self._sums: Dict[Tuple[str, str], float] = {}

    def observe(self, job: "Job") -> None:
        """Record ``job``'s latency (its ``on_terminal`` hook)."""
        seconds = max(0.0, time.monotonic() - job.created_mono)
        labels = (job.request["kind"], job.cache or "none")
        counts = self._counts.get(labels)
        if counts is None:
            counts = self._counts[labels] = [0] * (len(LATENCY_BUCKETS_S) + 1)
        counts[bisect.bisect_left(LATENCY_BUCKETS_S, seconds)] += 1
        self._sums[labels] = self._sums.get(labels, 0.0) + seconds

    def series(
        self,
    ) -> List[Tuple[Tuple[str, str], List[Tuple[str, int]], float]]:
        """``((kind, cache), [(le, cumulative count), ...], sum)`` per
        label pair, sorted by labels; the ``+Inf`` bucket (last) is the
        pair's count."""
        bounds = [f"{b:g}" for b in LATENCY_BUCKETS_S] + ["+Inf"]
        return [
            (
                labels,
                list(zip(bounds, itertools.accumulate(self._counts[labels]))),
                self._sums[labels],
            )
            for labels in sorted(self._counts)
        ]


class JobQueue:
    """Bounded FIFO of queued jobs plus the id → job registry.

    Construct inside the event loop that will run the workers (the
    underlying primitives bind to the running loop on Python 3.9).
    """

    def __init__(self, maxsize: int = 64, keep_records: int = 1024) -> None:
        if maxsize < 1:
            raise ValueError("queue maxsize must be >= 1")
        if keep_records < 1:
            raise ValueError("keep_records must be >= 1")
        self.maxsize = maxsize
        #: registry bound: beyond it the oldest *terminal* records are
        #: evicted (their ids then 404) so a long-running service does
        #: not grow without bound
        self.keep_records = keep_records
        self._queue: "asyncio.Queue[Job]" = asyncio.Queue(maxsize=maxsize)
        self._jobs: Dict[str, Job] = {}
        self._counter = itertools.count()
        #: submit → terminal latency of every registered job
        self.latency = LatencyHistogram()
        #: monotonic counters for /metrics
        self.submitted = 0
        self.rejected = 0
        self.expired = 0
        self.cancelled = 0

    def __len__(self) -> int:
        return self._queue.qsize()

    def __contains__(self, job_id: str) -> bool:
        return job_id in self._jobs

    # ------------------------------------------------------------------
    def create(
        self,
        request: Dict[str, Any],
        deadline_s: Optional[float] = None,
    ) -> Job:
        """A new ``queued`` job for a *validated* request, under the
        next ``job-NNNNNN`` id; neither enqueued nor registered.

        ``deadline_s`` is the request's relative budget; it becomes an
        absolute monotonic deadline here.
        """
        return Job(
            id=f"job-{next(self._counter):06d}",
            request=request,
            submitted_s=time.time(),
            deadline_s=(
                None
                if deadline_s is None
                else time.monotonic() + deadline_s
            ),
        )

    def submit(
        self,
        request: Dict[str, Any],
        deadline_s: Optional[float] = None,
    ) -> Job:
        """Create a job (see :meth:`create`), enqueue and register it.
        Raises :class:`QueueFullError` when the queue is at capacity.
        """
        job = self.create(request, deadline_s)
        try:
            self._queue.put_nowait(job)
        except asyncio.QueueFull:
            self.rejected += 1
            raise QueueFullError(
                f"queue full ({self.maxsize} jobs pending)"
            ) from None
        self.register(job)
        return job

    def register(self, job: Job) -> None:
        """Track a job; on its own, for one that bypasses the FIFO
        (coalesced followers, memory hits answered at submission)."""
        job.on_terminal = self.latency.observe
        self._jobs[job.id] = job
        self.submitted += 1
        self._prune()

    def _prune(self) -> None:
        """Evict the oldest terminal records beyond ``keep_records``.

        Live (non-terminal) jobs are never evicted; they are bounded by
        ``maxsize`` plus the worker count, so the scan below touches a
        small prefix before finding evictable records.
        """
        excess = len(self._jobs) - self.keep_records
        if excess <= 0:
            return
        drop = []
        for job_id, job in self._jobs.items():
            if excess <= 0:
                break
            if job.terminal:
                drop.append(job_id)
                excess -= 1
        for job_id in drop:
            del self._jobs[job_id]

    async def take(self) -> Job:
        """Next job off the FIFO (blocks).  A job already cancelled or
        past its deadline is still *returned* (marked ``expired`` first
        if needed): the worker must observe every job leaving the queue
        so coalesced followers waiting on it are settled rather than
        stranded."""
        job = await self._queue.get()
        if not job.terminal and job.expired():
            self.mark_expired(job)
        return job

    def get(self, job_id: str) -> Optional[Job]:
        """The job registered under ``job_id``, if any."""
        return self._jobs.get(job_id)

    def cancel(self, job_id: str) -> bool:
        """Cancel a non-terminal job; ``False`` when unknown or
        already terminal.  A running job finishes its attempt, whose
        result is then discarded."""
        job = self._jobs.get(job_id)
        if job is None or job.terminal:
            return False
        job.error = "cancelled by client"
        job.transition("cancelled")
        self.cancelled += 1
        return True

    def mark_expired(self, job: Job) -> None:
        """Record a deadline miss."""
        job.error = "deadline expired before completion"
        job.transition("expired")
        self.expired += 1

    def states(self) -> Dict[str, int]:
        """Current job count per state (for /metrics and health)."""
        counts = {state: 0 for state in JOB_STATES}
        for job in self._jobs.values():
            counts[job.state] += 1
        return counts
