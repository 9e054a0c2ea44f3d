"""Partitioning-as-a-service: async job engine + content-addressed cache.

The serving layer over the unified
:class:`~repro.core.partitioner.Partitioner` protocol (ROADMAP item 3).
A :class:`~repro.service.engine.ServiceEngine` accepts versioned JSON
job requests (``repro.service-job/3`` — :mod:`repro.service.schemas`),
queues them on a bounded async queue with per-job deadlines
(:mod:`repro.service.queue`), executes each once on
one resolved execution backend with single-flight coalescing and
per-client token-bucket rate limiting (:mod:`repro.service.engine`),
and caches every ``PartitionResult`` in a content-addressed LRU+disk
store keyed by the canonical graph digest
(:mod:`repro.service.cache`, :mod:`repro.graph.digest`) so repeat
traffic is an O(1) hit instead of a recomputation.

:mod:`repro.service.http` serves the engine over a stdlib-only
HTTP/1.1 JSON API (submit / poll / fetch / health / Prometheus
metrics); :mod:`repro.service.client` is the matching programmatic
client and ``repro-serve`` (:mod:`repro.service.cli`) the launcher.
See ``docs/SERVICE.md``.
"""

from repro.service.cache import CacheStats, ResultCache, result_cache_key
from repro.service.engine import (
    EngineConfig,
    RateLimitedError,
    ServiceEngine,
    UnknownJobError,
)
from repro.service.queue import (
    Job,
    JobQueue,
    QueueFullError,
)
from repro.service.schemas import (
    JOB_KINDS,
    JOB_STATES,
    SCHEMA_VERSION,
    validate_job_record,
    validate_job_request,
    validate_result,
)

__all__ = [
    "CacheStats",
    "EngineConfig",
    "JOB_KINDS",
    "JOB_STATES",
    "Job",
    "JobQueue",
    "QueueFullError",
    "RateLimitedError",
    "ResultCache",
    "SCHEMA_VERSION",
    "ServiceEngine",
    "UnknownJobError",
    "result_cache_key",
    "validate_job_record",
    "validate_job_request",
    "validate_result",
]
