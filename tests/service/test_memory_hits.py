"""Memory cache hits answered at submission.

A cacheable partition request whose scene and content key are memoised
and whose result is in the memory tier is ``done`` when ``submit``
returns: it never takes the queue or an executor thread, its ``POST``
carries the result document, and that document is spliced from a body
encoded once per cache entry.  Everything else still runs through a
worker.
"""

import asyncio
import json
import sys
import threading

import pytest

from repro.service.client import STORED_RESULTS, ServiceClient
from repro.service.engine import EngineConfig, ResultDocument, ServiceEngine
from repro.service.http import ServerThread
from repro.service.queue import LATENCY_BUCKETS_S
from repro.service.schemas import (
    SCHEMA_VERSION,
    validate_job_record,
)
from repro.utils.schema import SchemaError

SOURCE = {"kind": "impact", "n_steps": 2, "refine": 0.5}

#: record members that differ between two runs of the same job
_TIMES = ("id", "submitted_s", "started_s", "finished_s")


def request(**overrides):
    doc = {
        "schema": SCHEMA_VERSION,
        "kind": "partition",
        "k": 4,
        "source": dict(SOURCE),
    }
    doc.update(overrides)
    return doc


def run(coro):
    return asyncio.run(coro)


def job_free(document):
    """A result document without its job's own members, as plain JSON."""
    doc = json.loads(json.dumps(document))
    del doc["id"], doc["cache"]
    return doc


def span_shape(span):
    """Names, call counts and counters of a span tree (no times)."""
    return {
        path: (node.n_calls, dict(node.counters))
        for path, node in span.walk()
    }


def report_shape(engine):
    report = engine.run_report()
    meta = {k: v for k, v in report.meta.items() if k != "uptime_s"}
    return meta, span_shape(report.spans)


def hits_and_report(edge, n_hits=3):
    """A cold job then ``n_hits`` repeats, on an engine that answers
    memory hits at submission (``edge``) or one that sends them to the
    workers; the jobs, whether each hit was done at submission, and the
    report's counters and span shape."""

    async def scenario():
        engine = ServiceEngine(EngineConfig(workers=2))
        if not edge:
            engine._answer_from_memory = lambda *args: None
        await engine.start()
        try:
            jobs = [await engine.wait(engine.submit(request()).id, 120)]
            at_submission = []
            for _ in range(n_hits):
                job = engine.submit(request())
                at_submission.append(job.state)
                jobs.append(await engine.wait(job.id, 120))
            return engine, jobs, at_submission
        finally:
            await engine.stop()

    engine, jobs, at_submission = run(scenario())
    return jobs, at_submission, report_shape(engine)


class TestEdgeEqualsWorkerPath:
    def test_record_document_counters_and_spans(self):
        edge_jobs, edge_states, edge_report = hits_and_report(edge=True)
        work_jobs, work_states, work_report = hits_and_report(edge=False)
        assert edge_states == ["done"] * 3
        assert work_states == ["queued"] * 3
        for edge, work in zip(edge_jobs, work_jobs):
            assert edge.id == work.id
            assert {
                k: v for k, v in edge.record().items() if k not in _TIMES
            } == {
                k: v for k, v in work.record().items() if k not in _TIMES
            }
            assert json.loads(json.dumps(edge.result)) == json.loads(
                json.dumps(work.result)
            )
        assert [job.cache for job in edge_jobs] == ["miss", "hit", "hit", "hit"]
        assert edge_report == work_report
        meta, spans = edge_report
        assert (meta["cache_hits"], meta["cache_misses"]) == (3, 1)
        assert meta["queue_submitted"] == 4
        assert spans["service/partition"] == (4, {"cache_hits": 3})
        assert spans["service/partition/cache-lookup"][0] == 4

    def test_document_bytes_are_the_compact_encoding(self):
        jobs, _, _ = hits_and_report(edge=True, n_hits=1)
        for job in jobs:
            assert isinstance(job.result, ResultDocument)
            assert job.result.json_bytes() == json.dumps(
                job.result, separators=(",", ":")
            ).encode("utf-8")

    def test_hits_alone_keep_one_pending_span_tree(self):
        # with no worker job and no report to merge them, the span trees
        # of hits answered at submission fold into one tree whose size
        # does not grow with the number of hits
        async def scenario():
            engine = ServiceEngine(EngineConfig(workers=2))
            await engine.start()
            try:
                await engine.wait(engine.submit(request()).id, 120)
                while True:  # the cold job's worker has merged its spans
                    with engine._exec_lock:
                        if "partition" in engine._spans.children:
                            break
                    await asyncio.sleep(0.01)
                pending = []
                for n_hits in (5, 50):
                    for _ in range(n_hits):
                        assert engine.submit(request()).state == "done"
                    tree = engine._edge_spans
                    pending.append((tree.n_calls, len(list(tree.walk()))))
                return engine, pending
            finally:
                await engine.stop()

        engine, pending = run(scenario())
        assert pending == [(5, 3), (55, 3)]
        meta, spans = report_shape(engine)
        assert meta["cache_hits"] == 55
        assert spans["service/partition"] == (56, {"cache_hits": 55})
        assert spans["service/partition/cache-lookup"][0] == 56
        assert engine._edge_spans.n_calls == 0

    def test_kind_span_counts_every_job(self):
        # five cold jobs through the workers, then three hits answered
        # at submission: the per-kind span is entered once per job
        async def scenario():
            engine = ServiceEngine(EngineConfig(workers=2))
            await engine.start()
            try:
                for k in range(2, 7):
                    await engine.wait(engine.submit(request(k=k)).id, 120)
                for _ in range(3):
                    assert engine.submit(request(k=4)).state == "done"
                return engine
            finally:
                await engine.stop()

        meta, spans = report_shape(run(scenario()))
        assert (meta["cache_misses"], meta["cache_hits"]) == (5, 3)
        assert spans["service/partition"] == (8, {"cache_hits": 3})
        assert spans["service/partition/fit"][0] == 5

    def test_hits_share_one_encoded_body(self):
        jobs, _, _ = hits_and_report(edge=True, n_hits=2)
        bodies = {id(job.result._body) for job in jobs}
        assert len(bodies) == 1  # the cold miss built it, the hits reuse it


class TestQueueBoundCases:
    """Each of these still runs through a worker: ``submit`` returns a
    job that is not done yet."""

    @staticmethod
    def scenario(prepare, probe, config=None):
        async def body():
            engine = ServiceEngine(config or EngineConfig(workers=1))
            await engine.start()
            try:
                for doc in prepare:
                    await engine.wait(engine.submit(doc).id, 120)
                stats = dict(engine.cache.stats.as_dict())
                fits = engine.fits_total
                jobs = [engine.submit(doc) for doc in probe]
                states = [job.state for job in jobs]
                jobs = [await engine.wait(job.id, 120) for job in jobs]
                delta = {
                    name: value - stats[name]
                    for name, value in engine.cache.stats.as_dict().items()
                }
                return states, jobs, delta, engine.fits_total - fits
            finally:
                await engine.stop()

        return run(body())

    def test_unmemoised_scene(self):
        states, (job,), delta, fits = self.scenario([], [request()])
        assert states == ["queued"]
        assert (job.cache, delta["misses"], fits) == ("miss", 1, 1)

    def test_unmemoised_key(self):
        states, (job,), delta, fits = self.scenario(
            [request()], [request(k=5)]
        )
        assert states == ["queued"]
        assert (job.cache, delta["misses"], fits) == ("miss", 1, 1)

    def test_cache_opt_out(self):
        states, (job,), delta, fits = self.scenario(
            [request()], [request(cache=False)]
        )
        assert states == ["queued"]
        assert (job.cache, fits) == ("miss", 1)
        assert delta["hits"] == delta["misses"] == 0

    def test_disk_tier_only_hit_counts_once(self, tmp_path):
        # capacity 1: the k=5 fit evicts k=4 from memory, not from disk
        config = EngineConfig(
            workers=1, cache_capacity=1, cache_dir=str(tmp_path)
        )
        states, (job,), delta, fits = self.scenario(
            [request(), request(k=5)], [request()], config
        )
        assert states == ["queued"]
        assert (job.cache, fits) == ("hit", 0)
        assert delta == {
            "hits": 1, "misses": 0, "puts": 0, "evictions": 1,
            "disk_hits": 1, "disk_corrupt": 0, "disk_write_errors": 0,
        }

    def test_identical_request_in_flight_coalesces(self):
        # memory holds the result, but a ``cache: false`` leader of the
        # same work is in flight: the repeat follows it
        states, (leader, follower), delta, fits = self.scenario(
            [request()], [request(cache=False), request()]
        )
        assert states == ["queued", "queued"]
        assert follower.coalesced and follower.cache == "coalesced"
        assert fits == 1
        assert delta["hits"] == delta["misses"] == 0
        assert follower.result["labels"] == leader.result["labels"]
        assert isinstance(follower.result, ResultDocument)
        assert follower.result["id"] == follower.id


@pytest.fixture(scope="module")
def server():
    with ServerThread(EngineConfig(workers=2)) as srv:
        yield srv


@pytest.fixture(scope="module")
def warm(server):
    """The cold job's result document (the scene and key are memoised
    and the result is in memory from here on)."""
    with ServiceClient(server.address) as client:
        return client.partition(4, SOURCE, wait_s=120)


def requests_total(client):
    return client.metrics()["repro_service_requests_total"]


class TestOverHttp:
    def test_post_carries_the_result(self, server, warm):
        with ServiceClient(server.address) as client:
            record = client.request("POST", "/v1/jobs", request())
            assert record["state"] == "done"
            assert record["cache"] == "hit"
            assert record["result"]["id"] == record["id"]
            assert validate_job_record(record) is record
            via_get = client.request(
                "GET", f"/v1/jobs/{record['id']}/result"
            )
        assert via_get == record["result"]
        assert job_free(via_get) == job_free(warm)
        assert warm["cache"] == "miss" and via_get["cache"] == "hit"

    def test_n_hits_are_n_requests(self, server, warm):
        n = 25
        with ServiceClient(server.address) as client:
            before = requests_total(client)
            for _ in range(n):
                record = client.submit("partition", 4, SOURCE)
                assert "result" not in record  # kept by the client
                result = client.result(record["id"], wait_s=60)
                assert result["id"] == record["id"]
                assert job_free(result) == job_free(warm)
            # the first metrics call counts itself once it is answered
            assert requests_total(client) == before + 1 + n

    def test_hit_answered_while_exec_lock_is_held(self, server, warm):
        lock = server.engine._exec_lock
        with ServiceClient(server.address, timeout_s=10.0) as client:
            assert lock.acquire(timeout=30)
            try:
                record = client.request("POST", "/v1/jobs", request())
            finally:
                lock.release()
        assert record["state"] == "done"
        assert job_free(record["result"]) == job_free(warm)

    def test_without_a_stored_result_the_client_long_polls(self, server):
        source = dict(SOURCE, refine=0.55)
        with ServiceClient(server.address) as client:
            record = client.submit("partition", 3, source)
            assert record["state"] != "done"
            before = requests_total(client)
            cold = client.result(record["id"], wait_s=120)
            assert requests_total(client) == before + 2  # GET + metrics
            hit = client.submit("partition", 3, source)
            first = client.result(hit["id"])
            # popped on first read: the second read asks the server
            again = client.result(hit["id"])
            assert requests_total(client) == before + 5
        assert first == again
        assert job_free(first) == job_free(cold)

    def test_stored_results_are_bounded_and_cleared(self, server, warm):
        with ServiceClient(server.address) as client:
            ids = [
                client.submit("partition", 4, SOURCE)["id"]
                for _ in range(STORED_RESULTS + 1)
            ]
            assert list(client._results) == ids[1:]
            before = requests_total(client)
            client.result(ids[0])  # dropped: fetched over GET
            client.result(ids[-1])  # stored: no request
            assert requests_total(client) == before + 2
            client.close()
            assert not client._results

    def test_threads_sharing_a_client_read_their_own_results(
        self, server, warm
    ):
        """Four threads (more than the cores) on one client, with a
        short switch interval: every stored result reaches the thread
        that submitted its job, once."""
        results = {}
        interval = sys.getswitchinterval()
        with ServiceClient(server.address) as client:
            def worker(name):
                out = results[name] = []
                for _ in range(15):
                    record = client.submit("partition", 4, SOURCE)
                    out.append((record["id"], client.result(record["id"])))

            threads = [
                threading.Thread(target=worker, args=(n,)) for n in range(4)
            ]
            sys.setswitchinterval(1e-6)
            try:
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(120)
            finally:
                sys.setswitchinterval(interval)
            assert not any(thread.is_alive() for thread in threads)
            assert not client._results  # every stored result was read
        pairs = [pair for out in results.values() for pair in out]
        assert len(pairs) == 60
        assert len({job_id for job_id, _ in pairs}) == 60
        for job_id, document in pairs:
            assert document["id"] == job_id
            assert job_free(document) == job_free(warm)


class TestLatencyHistogram:
    def test_hits_counted_in_lower_buckets_than_the_miss(self):
        n = 12
        with ServerThread(EngineConfig(workers=1)) as srv:
            with ServiceClient(srv.address) as client:
                client.partition(4, SOURCE, wait_s=120)
                for _ in range(n):
                    client.partition(4, SOURCE, wait_s=60)
                metrics = client.metrics()
        name = "repro_service_job_seconds"

        def series(cache):
            labels = f'kind="partition",cache="{cache}"'
            buckets = [
                metrics[f'{name}_bucket{{{labels},le="{b:g}"}}']
                for b in LATENCY_BUCKETS_S
            ] + [metrics[f'{name}_bucket{{{labels},le="+Inf"}}']]
            return (
                buckets,
                metrics[f"{name}_count{{{labels}}}"],
                metrics[f"{name}_sum{{{labels}}}"],
            )

        hit_buckets, hit_count, hit_sum = series("hit")
        miss_buckets, miss_count, miss_sum = series("miss")
        assert (hit_count, miss_count) == (n, 1)
        assert hit_buckets[-1] == n and miss_buckets[-1] == 1
        assert hit_buckets == sorted(hit_buckets)  # cumulative
        # the bucket that holds every hit is below the miss's bucket
        assert hit_buckets.index(n) < miss_buckets.index(1)
        assert 0 < hit_sum < miss_sum


class TestRecordSchema:
    @staticmethod
    def record_with(result, **overrides):
        record = {
            "schema": SCHEMA_VERSION, "id": "job-000001", "state": "done",
            "kind": "partition", "client": "anonymous", "cache": "hit",
            "coalesced": False, "error": None,
            "submitted_s": 1.0, "started_s": 1.0, "finished_s": 1.0,
            "request": request(), "result": result,
        }
        record.update(overrides)
        return record

    @staticmethod
    def result(**overrides):
        doc = {
            "schema": SCHEMA_VERSION, "id": "job-000001",
            "kind": "partition", "method": "mcml-dt", "k": 4,
            "cache": "hit", "content_key": "ab" * 32, "labels": [0, 1],
            "diagnostics": {},
        }
        doc.update(overrides)
        return doc

    def test_a_done_record_may_carry_its_result(self):
        record = self.record_with(self.result())
        assert validate_job_record(record) is record

    def test_the_result_is_checked_at_its_own_path(self):
        with pytest.raises(SchemaError) as info:
            validate_job_record(self.record_with(self.result(labels=[0.5])))
        assert info.value.path == "$.result.labels[0]"

    @pytest.mark.parametrize(
        "record",
        [
            pytest.param({"state": "running"}, id="not-done"),
            pytest.param({"id": "job-000002"}, id="another-job"),
        ],
    )
    def test_only_a_done_job_carries_its_own_result(self, record):
        with pytest.raises(SchemaError) as info:
            validate_job_record(self.record_with(self.result(), **record))
        assert info.value.path == "$.result"
