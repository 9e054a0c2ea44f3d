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

Every executed job records its spans into a per-job
:class:`~repro.obs.tracer.Tracer` (thread-confined, so concurrent
workers never share a span stack) which is merged into one
service-level span tree; :meth:`ServiceEngine.run_report` snapshots
that tree plus all cache/queue/engine counters into a standard
:class:`~repro.obs.report.RunReport`.
"""

from __future__ import annotations

import asyncio
import os
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
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
from repro.service.queue import Job, JobQueue, RetryPolicy
from repro.service.schemas import (
    OPTIONS_KEYS,
    SCHEMA_VERSION,
    ServiceSchemaError,
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

__all__ = [
    "EngineConfig",
    "RateLimitedError",
    "ServiceEngine",
    "UnknownJobError",
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
    ``retry``
        Bounded-backoff retry policy for failed job attempts
        (SupervisorConfig semantics).
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
    retry: RetryPolicy = field(default_factory=RetryPolicy)
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


def _json_safe(value: Any) -> Any:
    """Diagnostics value → JSON-document form."""
    if isinstance(value, np.ndarray):
        return [float(x) for x in value.ravel()]
    if isinstance(value, np.generic):
        return value.item()
    return value


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
        self.retries_total = 0
        self._workers: List["asyncio.Task[None]"] = []
        self._buckets: Dict[str, _TokenBucket] = {}
        self._inflight: Dict[str, Job] = {}
        self._followers: Dict[str, List[Job]] = {}
        #: service-level span tree all job tracers merge into
        self._spans = Span("service")
        self._spans.n_calls = 1
        self._ledger = CommLedger()
        #: memoised snapshot sources (simulating a sequence dominates
        #: small fits; repeat requests against the same scene reuse it)
        self._sources: "OrderedDict[str, MeshSequence]" = OrderedDict()
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
        """Validate, rate-limit, coalesce, and enqueue one request.

        Returns the (possibly follower) job.  Raises
        :class:`~repro.service.schemas.ServiceSchemaError`,
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
        job = self.queue.submit(request, deadline_s=request["deadline_s"])
        self._inflight[key] = job
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
            raise ServiceSchemaError(
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
        """Block until the job reaches a terminal state."""
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
            "retries_total": self.retries_total,
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
                    if job.state == "queued":  # raised during a retry's backoff
                        job.transition("running")
                    job.transition("failed")
                self._settle(job)

    async def _run_job(self, job: Job) -> None:
        loop = asyncio.get_event_loop()
        policy = self.config.retry
        while True:
            if job.terminal:  # cancelled/expired before a worker got it
                break
            if job.expired():
                self.queue.mark_expired(job)
                break
            job.transition("running")
            try:
                payload = await loop.run_in_executor(
                    None, self._execute, job
                )
            except Exception as exc:
                job.error = str(exc) or type(exc).__name__
                if job.terminal:  # cancelled mid-attempt
                    break
                if job.expired():
                    self.queue.mark_expired(job)
                    break
                if job.retries >= policy.max_retries:
                    job.transition("failed")
                    break
                delay = policy.delay(job.retries)
                job.retries += 1
                self.retries_total += 1
                job.transition("queued")
                await asyncio.sleep(delay)
                continue
            if job.terminal:  # cancelled mid-attempt; drop the payload
                break
            job.result = payload
            job.error = None
            job.transition("done")
            break
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
                payload = dict(job.result or {})
                payload["id"] = follower.id
                if payload.get("kind") == "partition":
                    payload["cache"] = "coalesced"
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
                follower.retries = job.retries
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
                kind = self._spans.child(job.request["kind"])
                accumulate_span(kind, root)
                # the per-job root counts one call per *attempt*
                kind.n_calls = max(kind.n_calls - 1, 1)

    def _execute_partition(
        self, job: Job, tracer: Tracer
    ) -> Dict[str, Any]:
        request = job.request
        with tracer.span("source"):
            snapshot = self._snapshot(request["source"])
        key = result_cache_key(
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
    ) -> Dict[str, Any]:
        return {
            "schema": SCHEMA_VERSION,
            "id": job.id,
            "kind": "partition",
            "method": result.method,
            "k": result.k,
            "cache": cache_state,
            "content_key": key,
            "labels": result.labels.tolist(),
            "diagnostics": {
                name: _json_safe(value)
                for name, value in result.diagnostics.items()
            },
        }

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

    def _sequence(self, source: Dict[str, Any]) -> MeshSequence:
        """Memoised source materialisation (LRU of 4 scenes)."""
        key = canonical_request_text(source)
        with self._source_lock:
            seq = self._sources.get(key)
            if seq is not None:
                self._sources.move_to_end(key)
                return seq
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
        with self._source_lock:
            self._sources[key] = seq
            self._sources.move_to_end(key)
            while len(self._sources) > 4:
                self._sources.popitem(last=False)
        return seq

    def _snapshot(self, source: Dict[str, Any]) -> ContactSnapshot:
        seq = self._sequence(source)
        index = source["snapshot"] if source["kind"] == "impact" else 0
        return seq[index]

    def _step_snapshots(
        self, source: Dict[str, Any], steps: int
    ) -> List[ContactSnapshot]:
        seq = self._sequence(source)
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
