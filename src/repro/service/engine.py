"""The async job engine: workers, single-flight, rate limits, cache.

:class:`ServiceEngine` is the service's brain.  It owns

* the bounded :class:`~repro.service.queue.JobQueue`,
* the content-addressed :class:`~repro.service.cache.ResultCache`,
* one pooled execution backend (resolved once via
  :func:`~repro.runtime.backends.build_backend` and reused by every
  contact-step job — the instance-passthrough contract),
* a pool of asyncio workers that pull jobs off the queue and run the
  blocking partitioning work in executor threads.

Two protections sit at the submission edge:

* **Rate limiting** — a token bucket per ``client`` key; a drained
  bucket raises :class:`RateLimitedError` (HTTP 429) with a
  ``retry_after_s`` hint.
* **Single-flight coalescing** — submissions whose canonical request
  text (:func:`~repro.service.schemas.canonical_request_text`) matches
  a job already in flight become *followers*: they get their own job
  id and record but never execute; when the leader finishes, its
  payload is fanned out to them with ``cache: "coalesced"``.  N
  identical concurrent submissions therefore run the partitioner
  exactly once (``coalesced_total`` proves it).

A cacheable partition request whose scene and content key are
already memoised, and whose result is in the memory tier of the cache,
is answered *at submission*: :meth:`ServiceEngine.submit` registers the
job and takes it ``queued → running → done`` (``cache: "hit"``) on the
event loop, without the queue or an executor thread.  Everything else
— a disk-tier-only hit, an unmemoised scene or key, ``cache: false``,
a follower of an in-flight leader — takes the queue.

A partition result document is a :class:`ResultDocument`: the members
that do not depend on the job (``method``, ``k``, ``content_key``,
``labels``, ``diagnostics``) are JSON-encoded once per cache entry, and
each job's document splices its own ``id`` and ``cache`` around them.

Every job records its spans into a per-job
:class:`~repro.obs.tracer.Tracer` (thread-confined, so concurrent
workers never share a span stack) which is merged into one
service-level span tree; :meth:`ServiceEngine.run_report` snapshots
that tree plus all cache/queue/engine counters into a standard
:class:`~repro.obs.report.RunReport`.
"""

from __future__ import annotations

import asyncio
import json
import os
import threading
import time
import weakref
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.core.apriori import AprioriParams, AprioriPartitioner
from repro.core.driver import ContactStepDriver
from repro.core.mcml_dt import MCMLDTParams, MCMLDTPartitioner
from repro.core.ml_rcb import MLRCBParams, MLRCBPartitioner
from repro.core.partitioner import Partitioner, PartitionResult
from repro.graph.digest import digest_arrays
from repro.mesh.io import load_mesh
from repro.obs.report import RunReport
from repro.obs.tracer import Span, Tracer, accumulate_span
from repro.partition.config import PartitionOptions
from repro.runtime.backends import build_backend
from repro.runtime.backends.base import Backend
from repro.runtime.ledger import CommLedger, PhaseTotals
from repro.service.cache import ResultCache, result_cache_key
from repro.service.queue import Job, JobQueue
from repro.service.schemas import (
    OPTIONS_KEYS,
    SCHEMA_VERSION,
    canonical_request_text,
    validate_job_request,
)
from repro.sim.sequence import (
    ContactSnapshot,
    MeshSequence,
    extract_contact_surface,
    simulate_impact,
)
from repro.sim.projectile import ImpactConfig
from repro.utils.schema import SchemaError

__all__ = [
    "EngineConfig",
    "RateLimitedError",
    "ResultDocument",
    "ServiceEngine",
    "UnknownJobError",
    "json_body",
]


class RateLimitedError(RuntimeError):
    """A client's token bucket is empty (HTTP 429)."""

    def __init__(self, client: str, retry_after_s: float) -> None:
        self.client = client
        self.retry_after_s = retry_after_s
        super().__init__(
            f"client {client!r} is rate-limited; "
            f"retry in {retry_after_s:.2f}s"
        )


class UnknownJobError(KeyError):
    """No job with the requested id (HTTP 404)."""

    def __init__(self, job_id: str) -> None:
        self.job_id = job_id
        super().__init__(f"unknown job {job_id!r}")


class _TokenBucket:
    """Classic token bucket: ``rate`` tokens/s, burst of ``burst``."""

    __slots__ = ("rate", "burst", "tokens", "stamp")

    def __init__(self, rate: float, burst: int) -> None:
        self.rate = rate
        self.burst = float(burst)
        self.tokens = float(burst)
        self.stamp = time.monotonic()

    def take(self) -> Tuple[bool, float]:
        """Try to take one token; returns ``(ok, retry_after_s)``."""
        now = time.monotonic()
        self.tokens = min(
            self.burst, self.tokens + (now - self.stamp) * self.rate
        )
        self.stamp = now
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True, 0.0
        return False, (1.0 - self.tokens) / self.rate


@dataclass
class EngineConfig:
    """Service engine knobs.

    ``workers``
        Concurrent job executors (each runs blocking fits in its own
        executor thread).
    ``queue_maxsize``
        Pending-job bound; beyond it submissions fail fast with
        :class:`~repro.service.queue.QueueFullError` (HTTP 503).
    ``cache_capacity`` / ``cache_dir``
        In-memory LRU size and the optional disk tier for the
        content-addressed result cache.
    ``backend``
        Execution backend for contact-step jobs: a spec string
        (``"serial"``, ``"thread:4"``, ...) or an already-constructed
        :class:`~repro.runtime.backends.base.Backend` instance, which
        is reused as-is (pooled).
    ``rate_per_s`` / ``rate_burst``
        Per-client token bucket; ``rate_per_s <= 0`` disables
        limiting.
    ``rate_clients_max``
        Bound on distinct per-client buckets kept in memory; beyond it
        refilled (idle) buckets are dropped first, then the stalest —
        arbitrary client strings cannot grow the service without bound.
    ``job_history``
        Bound on retained job records; the oldest *terminal* records
        beyond it are evicted (their ids then 404 on lookup).
    ``mesh_root``
        When set, ``{"kind": "mesh"}`` sources must resolve under this
        directory; requests for paths outside it are rejected with a
        schema error (HTTP 400).  ``None`` (the default) trusts
        clients with arbitrary server-readable paths — bind such a
        service to localhost only (see ``docs/SERVICE.md``).
    """

    workers: int = 2
    queue_maxsize: int = 64
    cache_capacity: int = 64
    cache_dir: Optional[str] = None
    backend: Union[str, Backend, None] = "serial"
    rate_per_s: float = 0.0
    rate_burst: int = 8
    rate_clients_max: int = 1024
    job_history: int = 1024
    mesh_root: Optional[str] = None

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.rate_burst < 1:
            raise ValueError("rate_burst must be >= 1")
        if self.rate_clients_max < 1:
            raise ValueError("rate_clients_max must be >= 1")
        if self.job_history < 1:
            raise ValueError("job_history must be >= 1")


#: a memoised scene and its result cache keys by canonical request text
_Source = Tuple[MeshSequence, Dict[str, str]]


def _json_safe(value: Any) -> Any:
    """Diagnostics value → JSON-document form."""
    if isinstance(value, np.ndarray):
        return [float(x) for x in value.ravel()]
    if isinstance(value, np.generic):
        return value.item()
    return value


def _compact(value: Any) -> bytes:
    """Compact JSON (the C encoder; ``indent`` forces the Python one)."""
    return json.dumps(value, separators=(",", ":")).encode("utf-8")


def json_body(payload: Any) -> bytes:
    """``payload`` as one line of compact JSON; a
    :class:`ResultDocument`, alone or as a job record's ``result``, is
    spliced from its once-encoded body."""
    if isinstance(payload, ResultDocument):
        return payload.json_bytes()
    result = payload.get("result") if isinstance(payload, dict) else None
    if isinstance(result, ResultDocument):
        record = {key: value for key, value in payload.items()
                  if key != "result"}
        return b"".join(
            (_compact(record)[:-1], b',"result":', result.json_bytes(), b"}")
        )
    return _compact(payload)


class _Body:
    """The job-independent members of a partition result document, as
    values and as compact JSON, built once per result: ``head``
    (``method``, ``k``) goes before the job's ``cache`` member,
    ``tail`` (``content_key``, ``labels``, ``diagnostics``) after it."""

    __slots__ = ("head", "tail", "head_json", "tail_json")

    def __init__(self, result: PartitionResult, key: str) -> None:
        self.head = {"method": result.method, "k": result.k}
        self.tail = {
            "content_key": key,
            "labels": result.labels.tolist(),
            "diagnostics": {
                name: _json_safe(value)
                for name, value in result.diagnostics.items()
            },
        }
        self.head_json = _compact(self.head)[1:-1]
        self.tail_json = _compact(self.tail)[1:-1]


class ResultDocument(Dict[str, Any]):
    """A partition result document: a plain ``dict`` to every reader,
    whose compact JSON text (:meth:`json_bytes`) splices the job's own
    members into a body encoded once per cache entry.

    Treat it as read-only: its ``labels`` list and ``diagnostics`` are
    shared by every document of the same cache entry.
    """

    __slots__ = ("_body",)

    @classmethod
    def build(cls, body: _Body, job_id: str, cache: str) -> "ResultDocument":
        doc = cls(schema=SCHEMA_VERSION, id=job_id, kind="partition",
                  **body.head, cache=cache, **body.tail)
        doc._body = body
        return doc

    def for_job(self, job_id: str, cache: str) -> "ResultDocument":
        """The same result as another job's document."""
        return ResultDocument.build(self._body, job_id, cache)

    def json_bytes(self) -> bytes:
        """``json.dumps(self, separators=(",", ":"))``, byte for byte."""
        return b"".join((
            b'{"schema":', _compact(self["schema"]),
            b',"id":', _compact(self["id"]),
            b',"kind":"partition",', self._body.head_json,
            b',"cache":', _compact(self["cache"]),
            b",", self._body.tail_json, b"}",
        ))


class ServiceEngine:
    """Asynchronous partitioning service (see module docstring).

    Create and :meth:`start` inside a running event loop; the queue
    and worker tasks bind to it.
    """

    def __init__(self, config: Optional[EngineConfig] = None) -> None:
        self.config = config or EngineConfig()
        self.cache = ResultCache(
            capacity=self.config.cache_capacity,
            disk_dir=self.config.cache_dir,
        )
        self.queue = JobQueue(
            maxsize=self.config.queue_maxsize,
            keep_records=self.config.job_history,
        )
        self.started_s = time.time()
        #: engine counters (exposed on /metrics and in run_report)
        self.fits_total = 0
        self.steps_total = 0
        self.coalesced_total = 0
        self.rate_limited_total = 0
        self._workers: List["asyncio.Task[None]"] = []
        self._buckets: Dict[str, _TokenBucket] = {}
        self._inflight: Dict[str, Job] = {}
        self._followers: Dict[str, List[Job]] = {}
        #: service-level span tree all job tracers merge into
        self._spans = Span("service")
        self._spans.n_calls = 1
        self._ledger = CommLedger()
        #: memoised snapshot sources (simulating a sequence dominates
        #: small fits; repeat requests against the same scene reuse it),
        #: each with the result cache keys computed against it, by
        #: canonical request text — hashing a scene costs most of a hit
        self._sources: "OrderedDict[str, _Source]" = OrderedDict()
        #: encoded result bodies, one per live cache entry
        self._bodies: "weakref.WeakKeyDictionary[PartitionResult, _Body]" = (
            weakref.WeakKeyDictionary()
        )
        self._body_lock = threading.Lock()
        #: the span trees of jobs answered at submission, folded into
        #: one tree under ``_edge_lock`` (held for one fold, never across
        #: a merge) and merged into ``_spans`` by the next merge: the
        #: loop never waits on ``_exec_lock``, and memory stays fixed
        self._edge_spans = Span("job")
        self._edge_lock = threading.Lock()
        self._exec_lock = threading.Lock()  # cache/counter/span merges
        self._source_lock = threading.Lock()
        self._backend_lock = threading.Lock()  # pooled backend is shared
        self._backend: Optional[Backend] = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Spawn the worker pool (idempotent)."""
        if self._workers:
            return
        loop = asyncio.get_event_loop()
        for _ in range(self.config.workers):
            self._workers.append(loop.create_task(self._worker()))

    async def stop(self) -> None:
        """Cancel the workers and release the pooled backend."""
        for task in self._workers:
            task.cancel()
        for task in self._workers:
            try:
                await task
            except asyncio.CancelledError:
                pass
        self._workers = []
        # the lock may be held by an executor worker mid-execution and
        # Backend.close() can block on pool teardown — neither belongs
        # on the event loop
        await asyncio.get_event_loop().run_in_executor(
            None, self._close_backend
        )

    def _close_backend(self) -> None:
        """Detach and close the pooled backend (executor context)."""
        with self._backend_lock:
            backend, self._backend = self._backend, None
        if backend is not None and not isinstance(
            self.config.backend, Backend
        ):
            backend.close()

    # ------------------------------------------------------------------
    # submission edge
    # ------------------------------------------------------------------
    def submit(self, document: object) -> Job:
        """Validate, rate-limit, coalesce, and answer from memory or
        enqueue one request.

        Returns the job: a follower, one already ``done`` (a memory
        hit, see :meth:`_answer_from_memory`), or a queued one.  Raises
        :class:`~repro.utils.schema.SchemaError`,
        :class:`RateLimitedError`, or
        :class:`~repro.service.queue.QueueFullError`.
        """
        request = validate_job_request(document)
        self._check_mesh_root(request["source"])
        self._check_rate(request["client"])
        key = canonical_request_text(request)
        leader = self._inflight.get(key)
        if leader is not None and not leader.terminal:
            follower = Job(
                id=f"job-c{self.queue.submitted:06d}",
                request=request,
                submitted_s=time.time(),
                deadline_s=(
                    None
                    if request["deadline_s"] is None
                    else time.monotonic() + request["deadline_s"]
                ),
                coalesced=True,
            )
            self.queue.register(follower)
            self._followers.setdefault(key, []).append(follower)
            self.coalesced_total += 1
            return follower
        job = self._answer_from_memory(request, key)
        if job is not None:
            return job
        job = self.queue.submit(request, deadline_s=request["deadline_s"])
        self._inflight[key] = job
        return job

    def _answer_from_memory(
        self, request: Dict[str, Any], text: str
    ) -> Optional[Job]:
        """A ``done`` job for a cacheable partition request whose scene
        and content key are memoised and whose result is in the memory
        tier; ``None`` sends the request to the queue.

        Runs on the event loop: no disk I/O, no scene hashing or
        simulation, and no ``_exec_lock`` — the job's spans are left
        for the next merge.  A memory miss here counts nothing in
        ``cache.stats``; the worker's lookup counts it.
        """
        if request["kind"] != "partition" or not request["cache"]:
            return None
        tracer = Tracer("job")
        with tracer.span("source"):
            entry = self._memoised_source(
                canonical_request_text(request["source"])
            )
            key = None if entry is None else entry[1].get(text)
        if key is None:
            return None
        with tracer.span("cache-lookup"):
            cached = self.cache.get_memory(key)
        if cached is None:
            return None
        tracer.count("cache_hits")
        job = self.queue.create(request, deadline_s=request["deadline_s"])
        self.queue.register(job)
        job.transition("running")
        job.cache = "hit"
        job.result = self._partition_payload(job, cached, key, "hit")
        job.transition("done")
        root = tracer.finish()
        with self._edge_lock:
            accumulate_span(self._edge_spans, root)
        return job

    def _check_mesh_root(self, source: Dict[str, Any]) -> None:
        """Reject mesh paths outside the configured allowlist root."""
        root = self.config.mesh_root
        if root is None or source["kind"] != "mesh":
            return
        # realpath here is bounded metadata-only symlink resolution on
        # an already-validated path; moving it to the executor would
        # make admission asynchronous and lose the synchronous 400 the
        # HTTP contract promises, for microseconds of loop time
        root_real = os.path.realpath(root)
        path_real = os.path.realpath(source["path"])
        try:
            inside = os.path.commonpath([root_real, path_real]) == root_real
        except ValueError:  # pragma: no cover - mixed drives on Windows
            inside = False
        if not inside:
            raise SchemaError(
                "$.source.path",
                f"must resolve under the configured mesh root {root!r}",
            )

    def _check_rate(self, client: str) -> None:
        if self.config.rate_per_s <= 0:
            return
        bucket = self._buckets.get(client)
        if bucket is None:
            if len(self._buckets) >= self.config.rate_clients_max:
                self._prune_buckets()
            bucket = self._buckets[client] = _TokenBucket(
                self.config.rate_per_s, self.config.rate_burst
            )
        ok, retry_after = bucket.take()
        if not ok:
            self.rate_limited_total += 1
            raise RateLimitedError(client, retry_after)

    def _prune_buckets(self) -> None:
        """Bound the per-client bucket map.  A bucket idle long enough
        to have refilled to ``burst`` behaves exactly like a fresh one,
        so dropping it is lossless; if every bucket is still active the
        stalest are dropped to enforce the hard cap."""
        now = time.monotonic()
        refilled = [
            client
            for client, bucket in self._buckets.items()
            if bucket.tokens + (now - bucket.stamp) * bucket.rate
            >= bucket.burst
        ]
        for client in refilled:
            del self._buckets[client]
        while len(self._buckets) >= self.config.rate_clients_max:
            stalest = min(
                self._buckets, key=lambda c: self._buckets[c].stamp
            )
            del self._buckets[stalest]

    # ------------------------------------------------------------------
    # lookup
    # ------------------------------------------------------------------
    def job(self, job_id: str) -> Job:
        """The job registered under ``job_id`` or
        :class:`UnknownJobError`."""
        job = self.queue.get(job_id)
        if job is None:
            raise UnknownJobError(job_id)
        return job

    def cancel(self, job_id: str) -> bool:
        """Cancel a job (see :meth:`JobQueue.cancel`).

        A cancelled in-flight leader is settled immediately so its
        coalesced followers resolve now rather than when the dead job
        eventually drains from the FIFO.
        """
        job = self.job(job_id)
        cancelled = self.queue.cancel(job_id)
        if cancelled:
            self._settle(job)
        return cancelled

    async def wait(
        self, job_id: str, timeout_s: Optional[float] = None
    ) -> Job:
        """Block until the job reaches a terminal state.

        A partition job's ``result`` is a :class:`ResultDocument` that
        shares its members with every job of the same cache entry:
        treat it as read-only.
        """
        job = self.job(job_id)
        if not job.terminal:
            await asyncio.wait_for(job.done_event.wait(), timeout_s)
        return job

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def counters(self) -> Dict[str, int]:
        """All engine/queue/cache counters as one flat mapping."""
        out: Dict[str, int] = {
            "fits_total": self.fits_total,
            "steps_total": self.steps_total,
            "coalesced_total": self.coalesced_total,
            "rate_limited_total": self.rate_limited_total,
            "queue_submitted": self.queue.submitted,
            "queue_rejected": self.queue.rejected,
            "queue_expired": self.queue.expired,
            "queue_cancelled": self.queue.cancelled,
            "queue_depth": len(self.queue),
        }
        for name, value in self.cache.stats.as_dict().items():
            out[f"cache_{name}"] = value
        return out

    def run_report(self) -> RunReport:
        """Snapshot the merged job spans, the service ledger, and every
        counter into a standard :class:`RunReport`."""
        with self._exec_lock:
            self._merge_edge_spans()
            root = Span("service")
            root.n_calls = 1
            accumulate_span(root, self._spans)
            root.n_calls = 1
            root.total_s = root.children_s
            comm = dict(self._ledger.summary())
            meta: Dict[str, Union[str, int, float, bool, None]] = {
                "service_schema": SCHEMA_VERSION,
                "uptime_s": time.time() - self.started_s,
            }
            meta.update(self.counters())
        return RunReport(spans=root, comm=comm, meta=meta)

    # ------------------------------------------------------------------
    # worker loop
    # ------------------------------------------------------------------
    async def _worker(self) -> None:
        while True:
            job = await self.queue.take()
            try:
                await self._run_job(job)
            except asyncio.CancelledError:
                raise
            except Exception as exc:  # last resort: fail the job, not the worker
                if not job.terminal:
                    job.error = f"internal error: {exc}"
                    job.transition("failed")
                self._settle(job)

    async def _run_job(self, job: Job) -> None:
        """One attempt: the job's work is deterministic, so an attempt
        that raised would raise again (a lost worker is recovered
        inside the execution backend's session)."""
        if not job.terminal:  # else cancelled/expired before a worker got it
            job.transition("running")
            try:
                payload = await asyncio.get_event_loop().run_in_executor(
                    None, self._execute, job
                )
            except Exception as exc:
                job.error = str(exc) or type(exc).__name__
                if not job.terminal:  # else cancelled mid-attempt
                    if job.expired():
                        self.queue.mark_expired(job)
                    else:
                        job.transition("failed")
            else:
                if not job.terminal:  # else cancelled mid-attempt: drop it
                    job.result = payload
                    job.transition("done")
        self._settle(job)

    def _settle(self, job: Job) -> None:
        """Fan the leader's outcome out to coalesced followers and
        retire the in-flight entry.

        Idempotent: runs from :meth:`cancel` as soon as a queued leader
        is cancelled *and* again when the dead job drains from the
        FIFO; whichever comes second is a no-op.  Followers whose own
        deadline has passed expire here instead of receiving the
        leader's outcome (they never pass through the queue, so this is
        where their ``deadline_s`` is enforced).
        """
        key = canonical_request_text(job.request)
        if self._inflight.get(key) is not job:
            return
        del self._inflight[key]
        followers = self._followers.pop(key, [])
        for follower in followers:
            if follower.terminal:
                continue
            if follower.expired():
                self.queue.mark_expired(follower)
                continue
            if job.state == "done":
                if isinstance(job.result, ResultDocument):
                    payload = job.result.for_job(follower.id, "coalesced")
                else:
                    payload = dict(job.result or {})
                    payload["id"] = follower.id
                follower.cache = "coalesced"
                follower.result = payload
                follower.transition("running")
                follower.transition("done")
            elif job.state in ("cancelled", "expired"):
                follower.error = f"coalesced leader {job.id} {job.state}"
                follower.transition(job.state)
            else:
                follower.error = (
                    f"coalesced leader {job.id} failed: {job.error}"
                )
                follower.transition("running")
                follower.transition("failed")

    # ------------------------------------------------------------------
    # blocking execution (runs in executor threads)
    # ------------------------------------------------------------------
    def _execute(self, job: Job) -> Dict[str, Any]:
        tracer = Tracer("job")
        try:
            if job.request["kind"] == "partition":
                return self._execute_partition(job, tracer)
            return self._execute_contact_step(job, tracer)
        finally:
            root = tracer.finish()
            with self._exec_lock:
                self._merge_edge_spans()
                self._merge_spans(job.request["kind"], root)

    def _merge_spans(self, kind_name: str, root: Span) -> None:
        """Fold a job's span tree in (call under ``_exec_lock``): the
        per-kind span's ``n_calls`` grows by the root's, one per
        executed attempt or per answered-at-submission hit folded into
        ``root``."""
        accumulate_span(self._spans.child(kind_name), root)

    def _merge_edge_spans(self) -> None:
        """Fold in the jobs answered at submission since the last merge
        (call under ``_exec_lock``)."""
        with self._edge_lock:
            root, self._edge_spans = self._edge_spans, Span("job")
        if root.n_calls:
            self._merge_spans("partition", root)

    def _execute_partition(
        self, job: Job, tracer: Tracer
    ) -> Dict[str, Any]:
        request = job.request
        with tracer.span("source"):
            seq, keys = self._sequence(request["source"])
            snapshot = seq[self._snapshot_index(request["source"])]
        text = canonical_request_text(request)
        key = keys.get(text)
        if key is None:
            # the scene's arrays are read-only, so the key stays valid
            # for as long as the entry lives
            key = keys[text] = result_cache_key(
                snapshot,
                request["partitioner"],
                request["k"],
                request["config"],
            )
        if request["cache"]:
            with tracer.span("cache-lookup"):
                cached = self.cache.get(key)
            if cached is not None:
                job.cache = "hit"
                tracer.count("cache_hits")
                return self._partition_payload(job, cached, key, "hit")
        job.cache = "miss"
        partitioner = self._make_partitioner(
            request["partitioner"], request["k"], request["config"]
        )
        ledger = CommLedger()
        result = partitioner.fit(snapshot, tracer=tracer, ledger=ledger)
        with self._exec_lock:
            self.fits_total += 1
            self._merge_comm(ledger.summary())
        if request["cache"]:
            result = self.cache.put(key, result)
        return self._partition_payload(job, result, key, "miss")

    def _partition_payload(
        self,
        job: Job,
        result: PartitionResult,
        key: str,
        cache_state: str,
    ) -> ResultDocument:
        """``job``'s document for ``result`` (stored under ``key``), on
        the body encoded once for that result object."""
        with self._body_lock:
            body = self._bodies.get(result)
        if body is None:
            body = _Body(result, key)
            with self._body_lock:
                body = self._bodies.setdefault(result, body)
        return ResultDocument.build(body, job.id, cache_state)

    def _execute_contact_step(
        self, job: Job, tracer: Tracer
    ) -> Dict[str, Any]:
        request = job.request
        steps = request["steps"]
        with tracer.span("source"):
            snapshots = self._step_snapshots(request["source"], steps)
        params = self._mcml_params(request["config"])
        # the pooled backend (and the sequence cache behind it) is not
        # reentrant — contact-step jobs serialise on it
        with self._backend_lock:
            driver = ContactStepDriver(
                request["k"],
                params,
                tracer=tracer,
                backend=self._backend_instance(),
            )
            driver.initialize(snapshots[0])
            n_candidates = 0
            for snap in snapshots:
                step_result = driver.step(snap)
                n_candidates += step_result.n_candidates
            part = driver.partitioner.part
            if part is None:  # pragma: no cover - initialize() sets it
                raise RuntimeError("driver finished without a partition")
            labels_digest = digest_arrays({"part": part})
            comm = dict(driver.ledger.summary())
        with self._exec_lock:
            self.fits_total += 1  # driver.initialize() fits once
            self.steps_total += steps
            self._merge_comm(comm)
        return {
            "schema": SCHEMA_VERSION,
            "id": job.id,
            "kind": "contact-step",
            "k": request["k"],
            "steps": steps,
            "n_candidates": n_candidates,
            "labels_digest": labels_digest,
            "comm": {
                phase: {"n_messages": msgs, "n_items": items}
                for phase, (msgs, items) in sorted(comm.items())
            },
        }

    def _merge_comm(self, comm: Dict[str, Tuple[int, int]]) -> None:
        """Fold one job's phase totals into the service ledger (call
        under ``_exec_lock``)."""
        for phase, (msgs, items) in comm.items():
            totals = self._ledger.phases.setdefault(phase, PhaseTotals())
            totals.n_messages += msgs
            totals.n_items += items

    # ------------------------------------------------------------------
    # job inputs
    # ------------------------------------------------------------------
    def _backend_instance(self) -> Backend:
        if self._backend is None:
            self._backend = build_backend(self.config.backend or "serial")
        return self._backend

    def _memoised_source(self, key: str) -> Optional[_Source]:
        """The memoised scene under canonical source text ``key``
        (refreshing its recency), or ``None``."""
        with self._source_lock:
            entry = self._sources.get(key)
            if entry is not None:
                self._sources.move_to_end(key)
            return entry

    def _sequence(self, source: Dict[str, Any]) -> _Source:
        """Memoised source materialisation (LRU of 4 scenes): the
        sequence, its arrays read-only, and its cache-key memo."""
        key = canonical_request_text(source)
        entry = self._memoised_source(key)
        if entry is not None:
            return entry
        if source["kind"] == "impact":
            config = ImpactConfig(
                n_steps=source["n_steps"], refine=source["refine"]
            )
            seq = simulate_impact(config)
        else:
            mesh = load_mesh(source["path"])
            faces, owner, cnodes = extract_contact_surface(
                mesh, source["capture_radius"]
            )
            seq = MeshSequence(
                snapshots=[
                    ContactSnapshot(
                        mesh=mesh,
                        contact_faces=faces,
                        contact_face_owner=owner,
                        contact_nodes=cnodes,
                        step=0,
                        time=0.0,
                        tip_z=0.0,
                    )
                ],
                config=ImpactConfig(n_steps=1),
            )
        # a job that writes into a served scene raises instead of
        # silently staling every later cache key and hit against it
        for snap in seq.snapshots:
            mesh = snap.mesh
            for array in (
                mesh.nodes, mesh.elements, mesh.body_id, snap.contact_faces,
                snap.contact_face_owner, snap.contact_nodes,
            ):
                if array is not None:
                    array.setflags(write=False)
        entry: _Source = (seq, {})
        with self._source_lock:
            self._sources[key] = entry
            self._sources.move_to_end(key)
            while len(self._sources) > 4:
                self._sources.popitem(last=False)
        return entry

    @staticmethod
    def _snapshot_index(source: Dict[str, Any]) -> int:
        return source["snapshot"] if source["kind"] == "impact" else 0

    def _step_snapshots(
        self, source: Dict[str, Any], steps: int
    ) -> List[ContactSnapshot]:
        seq, _ = self._sequence(source)
        if source["kind"] == "mesh":
            # a static scene: the driver re-steps the same snapshot
            return [seq[0]] * steps
        return list(seq.snapshots[:steps])

    # ------------------------------------------------------------------
    @staticmethod
    def _mcml_params(config: Dict[str, Any]) -> MCMLDTParams:
        params, options = _split_config(config)
        return MCMLDTParams(options=PartitionOptions(**options), **params)

    @staticmethod
    def _make_partitioner(
        name: str, k: int, config: Dict[str, Any]
    ) -> Partitioner:
        params, options = _split_config(config)
        opts = PartitionOptions(**options)
        if name == "mcml-dt":
            return MCMLDTPartitioner(
                k, MCMLDTParams(options=opts, **params)
            )
        if name == "ml-rcb":
            return MLRCBPartitioner(k, MLRCBParams(options=opts, **params))
        if name == "apriori":
            return AprioriPartitioner(
                k, AprioriParams(options=opts, **params)
            )
        raise ValueError(f"unknown partitioner {name!r}")  # unreachable


def _split_config(
    config: Dict[str, Any]
) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """Split a validated config into (params kwargs, options kwargs)."""
    params = {
        key: value
        for key, value in config.items()
        if key not in OPTIONS_KEYS
    }
    options = {
        key: value for key, value in config.items() if key in OPTIONS_KEYS
    }
    return params, options
