"""Service-layer latency and throughput over real HTTP.

Boots the full stack — engine, workers, asyncio HTTP server on an
ephemeral port — and measures what a client actually experiences:

* ``cold_vs_cached``: wall time of the first partition request (fit +
  serialisation + transport) against the identical repeat served from
  the content-addressed cache.  The acceptance bar is cache-hit
  latency **< 10% of cold** — asserted here, not just reported.
* ``coalesced_throughput``: N identical requests fired concurrently
  through a thread pool; single-flight must collapse them onto ONE
  partitioner fit, and the report records achieved requests/second.

Registered measurements are summarised into ``BENCH_service.json`` at
session end (``benchmarks/conftest.py``; uploaded from CI).
"""

from __future__ import annotations

import concurrent.futures
import time

import pytest

from repro.service.client import ServiceClient
from repro.service.engine import EngineConfig
from repro.service.http import ServerThread

from .conftest import record, register_result

#: a mid-size scene: big enough that a fit dominates transport, small
#: enough to keep the bench quick
SOURCE = {"kind": "impact", "n_steps": 3, "refine": 1.0}
K = 8
COALESCED_CLIENTS = 12


@pytest.fixture(scope="module")
def server():
    with ServerThread(EngineConfig(workers=4)) as srv:
        yield srv


def test_cold_vs_cached_latency(benchmark, server):
    client = ServiceClient(server.address)

    t0 = time.perf_counter()
    cold = client.partition(K, SOURCE, wait_s=600)
    cold_s = time.perf_counter() - t0
    assert cold["cache"] == "miss"
    fits_after_cold = server.engine.fits_total

    # repeat the identical request a few times; report the best, the
    # regime a steady client sees
    cached_s = None
    for _ in range(5):
        t0 = time.perf_counter()
        cached = client.partition(K, SOURCE, wait_s=600)
        dt = time.perf_counter() - t0
        cached_s = dt if cached_s is None else min(cached_s, dt)
        assert cached["cache"] == "hit"
        assert cached["labels"] == cold["labels"]  # bit-identical

    # the partitioner never ran again
    assert server.engine.fits_total == fits_after_cold

    ratio = cached_s / cold_s
    assert ratio < 0.10, (
        f"cache-hit latency {cached_s * 1e3:.1f}ms is "
        f"{ratio:.1%} of cold {cold_s * 1e3:.1f}ms (must be < 10%)"
    )

    register_result(
        "service",
        "cold_vs_cached",
        cold_s=round(cold_s, 6),
        cached_s=round(cached_s, 6),
        ratio=round(ratio, 5),
        nodes=len(cold["labels"]),
        k=K,
    )
    record(
        benchmark,
        cold_s=round(cold_s, 6),
        cached_s=round(cached_s, 6),
        ratio=round(ratio, 5),
    )
    benchmark.pedantic(
        lambda: client.partition(K, SOURCE, wait_s=600),
        rounds=1,
        iterations=1,
    )


def test_coalesced_throughput(benchmark, server):
    client = ServiceClient(server.address)
    # a distinct scene so this test starts cold and cannot hit the
    # cache entry the latency test created
    source = {"kind": "impact", "n_steps": 3, "refine": 0.9}
    fits_before = server.engine.fits_total

    def one_request(_):
        rec = client.submit("partition", K, source)
        return client.result(rec["id"], wait_s=600)

    t0 = time.perf_counter()
    with concurrent.futures.ThreadPoolExecutor(COALESCED_CLIENTS) as pool:
        results = list(pool.map(one_request, range(COALESCED_CLIENTS)))
    wall_s = time.perf_counter() - t0

    fits = server.engine.fits_total - fits_before
    assert fits == 1, f"single-flight failed: {fits} fits for identical load"
    baseline = results[0]["labels"]
    assert all(r["labels"] == baseline for r in results)

    throughput = COALESCED_CLIENTS / wall_s
    register_result(
        "service",
        "coalesced_throughput",
        clients=COALESCED_CLIENTS,
        wall_s=round(wall_s, 6),
        requests_per_s=round(throughput, 3),
        fits_executed=fits,
        coalesced=server.engine.coalesced_total,
    )
    record(
        benchmark,
        clients=COALESCED_CLIENTS,
        wall_s=round(wall_s, 6),
        requests_per_s=round(throughput, 3),
    )
    benchmark.pedantic(
        lambda: client.partition(K, source, wait_s=600),
        rounds=1,
        iterations=1,
    )
