"""Tests for the service engine: caching, single-flight, rate limits,
deadlines, retries."""

import asyncio
from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.partitioner import make_result
from repro.service.cache import ResultCache, result_cache_key
from repro.service.engine import (
    EngineConfig,
    RateLimitedError,
    ServiceEngine,
    UnknownJobError,
)
from repro.service.queue import QueueFullError, RetryPolicy
from repro.service.schemas import SCHEMA_VERSION, validate_result
from repro.sim.projectile import ImpactConfig
from repro.sim.sequence import simulate_impact

SOURCE = {"kind": "impact", "n_steps": 2, "refine": 0.5}


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


class TestPartitionJobs:
    def test_cached_repeat_skips_the_partitioner(self):
        """The acceptance property: a repeat request returns a
        bit-identical result without invoking any partitioner."""

        async def scenario():
            engine = ServiceEngine(EngineConfig(workers=2))
            await engine.start()
            try:
                first = await engine.wait(
                    engine.submit(request()).id, 120
                )
                fits_after_cold = engine.fits_total
                second = await engine.wait(
                    engine.submit(request()).id, 120
                )
                return first, second, fits_after_cold, engine.fits_total
            finally:
                await engine.stop()

        first, second, cold_fits, warm_fits = run(scenario())
        assert first.state == "done" and first.cache == "miss"
        assert second.state == "done" and second.cache == "hit"
        assert cold_fits == 1
        assert warm_fits == 1  # the fit count did not move
        assert second.result["labels"] == first.result["labels"]
        assert second.result["content_key"] == first.result["content_key"]
        assert second.result["diagnostics"] == first.result["diagnostics"]

    def test_cache_opt_out_recomputes(self):
        async def scenario():
            engine = ServiceEngine(EngineConfig(workers=1))
            await engine.start()
            try:
                await engine.wait(
                    engine.submit(request(cache=False)).id, 120
                )
                second = await engine.wait(
                    engine.submit(request(cache=False)).id, 120
                )
                return second, engine.fits_total
            finally:
                await engine.stop()

        second, fits = run(scenario())
        assert second.cache == "miss"
        assert fits == 2

    def test_all_partitioners_runnable(self):
        async def scenario():
            engine = ServiceEngine(EngineConfig(workers=1))
            await engine.start()
            try:
                jobs = [
                    engine.submit(request(partitioner=name))
                    for name in ("mcml-dt", "ml-rcb", "apriori")
                ]
                return [
                    await engine.wait(job.id, 240) for job in jobs
                ]
            finally:
                await engine.stop()

        for job in run(scenario()):
            assert job.state == "done", job.error
            assert job.result["method"] == job.request["partitioner"]

    def test_failed_source_retries_then_fails(self):
        async def scenario():
            engine = ServiceEngine(
                EngineConfig(
                    workers=1,
                    retry=RetryPolicy(
                        max_retries=2, backoff_base_s=0.001
                    ),
                )
            )
            await engine.start()
            try:
                job = engine.submit(
                    request(
                        source={"kind": "mesh", "path": "/nope/missing.npz"}
                    )
                )
                job = await engine.wait(job.id, 60)
                return job, engine.retries_total
            finally:
                await engine.stop()

        job, retries_total = run(scenario())
        assert job.state == "failed"
        assert job.retries == 2  # exhausted the budget
        assert retries_total == 2
        # the attempt's own error, not the last-resort handler's
        assert "/nope/missing.npz" in job.error
        assert not job.error.startswith("internal error")

    def test_bad_config_value_fails_the_job(self):
        async def scenario():
            engine = ServiceEngine(
                EngineConfig(workers=1, retry=RetryPolicy(max_retries=0))
            )
            await engine.start()
            try:
                job = engine.submit(request(config={"fm_neg_moves": 0}))
                return await engine.wait(job.id, 60)
            finally:
                await engine.stop()

        job = run(scenario())
        assert job.state == "failed"
        assert "fm_neg_moves must be >= 1" in job.error


class TestPartitionPayload:
    """``_partition_payload`` hands the labels over as exact Python
    ints, whatever integer array the fit or the cache holds."""

    @staticmethod
    def payload(result):
        async def build():
            engine = ServiceEngine(EngineConfig(workers=1))
            job = SimpleNamespace(id="job-000001")
            return engine._partition_payload(job, result, "ab" * 32, "hit")

        return run(build())

    @staticmethod
    def result(labels):
        return make_result("mcml-dt", 7, labels, {"edge_cut_final": 3},
                           None, None)

    @pytest.mark.parametrize("dtype", [np.int64, np.int32])
    def test_labels_are_exact_ints(self, dtype):
        labels = np.random.default_rng(0).integers(0, 7, 500).astype(dtype)
        document = self.payload(self.result(labels))
        assert document["labels"] == [int(x) for x in labels]
        assert {type(x) for x in document["labels"]} == {int}
        assert validate_result(document) is document

    def test_read_only_labels_from_the_disk_tier(self, tmp_path):
        labels = np.arange(300, dtype=np.int64) % 7
        ResultCache(capacity=1, disk_dir=str(tmp_path)).put(
            "k", self.result(labels)
        )
        cached = ResultCache(capacity=1, disk_dir=str(tmp_path)).get("k")
        assert not cached.labels.flags.writeable
        document = self.payload(cached)
        assert document["labels"] == [int(x) for x in labels]
        assert {type(x) for x in document["labels"]} == {int}


class TestCacheKeys:
    """Keys are computed once per request text against a read-only
    scene, and stay the bytes earlier releases wrote to disk."""

    #: ``content_key`` of ``request()`` as released before the key memo
    #: (hashing the snapshot on every job); a disk tier written then
    #: holds its entry under this name
    RELEASED_KEY = (
        "cb28f057d3c640cb3307ef1631ec4b438e49adfc9ece6e1a11944089f603b173"
    )

    def test_key_is_the_released_one_and_computed_once(self, monkeypatch):
        from repro.service import engine as engine_module

        calls = []

        def counted(*args):
            calls.append(args[1:])
            return result_cache_key(*args)

        monkeypatch.setattr(engine_module, "result_cache_key", counted)

        async def scenario():
            engine = ServiceEngine(EngineConfig(workers=1))
            await engine.start()
            try:
                return [
                    await engine.wait(engine.submit(request()).id, 120)
                    for _ in range(3)
                ]
            finally:
                await engine.stop()

        jobs = run(scenario())
        assert [job.cache for job in jobs] == ["miss", "hit", "hit"]
        assert {job.result["content_key"] for job in jobs} == {
            self.RELEASED_KEY
        }
        assert calls == [("mcml-dt", 4, {})]
        snapshot = simulate_impact(ImpactConfig(n_steps=2, refine=0.5))[0]
        assert result_cache_key(snapshot, "mcml-dt", 4, {}) == (
            self.RELEASED_KEY
        )

    def test_disk_cache_written_under_released_keys_is_hit(self, tmp_path):
        labels = np.arange(2000, dtype=np.int64) % 4
        ResultCache(capacity=1, disk_dir=str(tmp_path)).put(
            self.RELEASED_KEY,
            make_result("mcml-dt", 4, labels, {"edge_cut_final": 9}, None,
                        None),
        )

        async def scenario():
            engine = ServiceEngine(
                EngineConfig(workers=1, cache_dir=str(tmp_path))
            )
            await engine.start()
            try:
                job = await engine.wait(engine.submit(request()).id, 120)
                return job, engine.fits_total, engine.cache.stats.disk_hits
            finally:
                await engine.stop()

        job, fits, disk_hits = run(scenario())
        assert (job.state, job.cache, fits, disk_hits) == ("done", "hit", 0, 1)
        assert job.result["content_key"] == self.RELEASED_KEY
        assert job.result["labels"] == labels.tolist()

    def test_a_job_writing_into_a_served_scene_raises(self):
        """Every array of a memoised scene is read-only: a partitioner
        that writes into its snapshot fails the job, and the scene, its
        memoised key and the next hit stay what a fresh scene gives."""

        class Vandal:
            def fit(self, snapshot, tracer=None, ledger=None):
                snapshot.mesh.nodes[0, 0] += 1.0

        async def scenario():
            engine = ServiceEngine(
                EngineConfig(workers=1, retry=RetryPolicy(max_retries=0))
            )
            real = engine._make_partitioner
            engine._make_partitioner = lambda *args: Vandal()
            await engine.start()
            try:
                vandal = await engine.wait(engine.submit(request()).id, 120)
                engine._make_partitioner = real
                jobs = [
                    await engine.wait(engine.submit(request()).id, 120)
                    for _ in range(2)
                ]
                seq, keys = engine._sequence(jobs[0].request["source"])
                return vandal, jobs, seq, keys
            finally:
                await engine.stop()

        vandal, (miss, hit), seq, keys = run(scenario())
        assert vandal.state == "failed"
        assert "read-only" in vandal.error
        assert (miss.cache, hit.cache) == ("miss", "hit")
        assert hit.result["labels"] == miss.result["labels"]
        fresh = simulate_impact(ImpactConfig(n_steps=2, refine=0.5))
        for served, clean in zip(seq.snapshots, fresh.snapshots):
            for name in ("nodes", "elements", "body_id"):
                array = getattr(served.mesh, name)
                assert not array.flags.writeable, name
                assert np.array_equal(array, getattr(clean.mesh, name))
            for name in ("contact_faces", "contact_face_owner",
                         "contact_nodes"):
                array = getattr(served, name)
                assert not array.flags.writeable, name
                assert np.array_equal(array, getattr(clean, name))
        assert list(keys.values()) == [hit.result["content_key"]]
        assert hit.result["content_key"] == result_cache_key(
            fresh[0], "mcml-dt", 4, {}
        )


class _RaisingDelay(RetryPolicy):
    """Backoff that raises while the job is still ``running``."""

    def delay(self, retry):
        raise RuntimeError("backoff policy broke")


class _NonNumericDelay(RetryPolicy):
    """Backoff that ``asyncio.sleep`` rejects — after the job has been
    re-queued for its retry."""

    def delay(self, retry):
        return "x"


class TestLastResortHandler:
    """``_worker``'s handler for an exception ``_run_job`` did not
    expect: the job fails, whoever waits on it wakes, and the worker
    lives on to run the next job."""

    @pytest.mark.parametrize(
        "policy, retries",
        [
            pytest.param(_RaisingDelay(max_retries=1), 0, id="running"),
            pytest.param(_NonNumericDelay(max_retries=1), 1, id="queued"),
        ],
    )
    def test_job_fails_and_the_worker_runs_the_next_job(
        self, policy, retries
    ):
        async def scenario():
            engine = ServiceEngine(EngineConfig(workers=1, retry=policy))
            bad = request(
                source={"kind": "mesh", "path": "/nope/missing.npz"}
            )
            job = engine.submit(bad)
            follower = engine.submit(bad)
            waiter = asyncio.ensure_future(engine.wait(job.id, 60))
            await engine.start()
            try:
                job = await waiter
                follower = await engine.wait(follower.id, 60)
                nxt = await engine.wait(engine.submit(request()).id, 120)
                return job, follower, nxt
            finally:
                await engine.stop()

        job, follower, nxt = run(scenario())
        assert job.state == "failed"
        assert job.error.startswith("internal error: ")
        assert job.retries == retries  # 1: it had been re-queued
        assert follower.state == "failed"
        assert job.id in follower.error
        assert nxt.state == "done"  # the single worker survived


class TestSingleFlight:
    def test_identical_concurrent_submissions_fit_once(self):
        """N identical submissions execute the partition exactly once;
        the coalesced counter proves the other N-1 never ran."""
        n = 6

        async def scenario():
            engine = ServiceEngine(EngineConfig(workers=4))
            # submit all N before any worker runs: every submission is
            # concurrent with the first one
            jobs = [engine.submit(request()) for _ in range(n)]
            await engine.start()
            try:
                jobs = [await engine.wait(job.id, 120) for job in jobs]
                return jobs, engine.fits_total, engine.coalesced_total
            finally:
                await engine.stop()

        jobs, fits, coalesced = run(scenario())
        assert fits == 1
        assert coalesced == n - 1
        assert all(job.state == "done" for job in jobs)
        leader, followers = jobs[0], jobs[1:]
        assert leader.cache == "miss" and not leader.coalesced
        for job in followers:
            assert job.coalesced
            assert job.cache == "coalesced"
            assert job.result["cache"] == "coalesced"
            assert job.result["id"] == job.id  # own id, shared payload
            assert job.result["labels"] == leader.result["labels"]

    def test_different_requests_do_not_coalesce(self):
        async def scenario():
            engine = ServiceEngine(EngineConfig(workers=2))
            a = engine.submit(request(k=4))
            b = engine.submit(request(k=5))
            await engine.start()
            try:
                await engine.wait(a.id, 120)
                await engine.wait(b.id, 120)
                return engine.fits_total, engine.coalesced_total
            finally:
                await engine.stop()

        fits, coalesced = run(scenario())
        assert fits == 2
        assert coalesced == 0

    def test_followers_settle_when_queued_leader_is_cancelled(self):
        """Regression: cancelling a still-queued leader must settle its
        coalesced followers (previously they were stranded forever —
        the dead leader was silently dropped on its way out of the
        queue and never fanned out)."""

        async def scenario():
            engine = ServiceEngine(EngineConfig(workers=1))
            leader = engine.submit(request())
            followers = [engine.submit(request()) for _ in range(3)]
            assert all(f.coalesced for f in followers)
            assert engine.cancel(leader.id)
            # settled eagerly: no worker has even started yet
            assert all(f.terminal for f in followers)
            await engine.start()
            try:
                # the dead leader still drains through a worker; the
                # second settle is a no-op and nothing resurrects
                jobs = [
                    await engine.wait(f.id, 60) for f in followers
                ]
                jobs.append(await engine.wait(leader.id, 60))
                return jobs, engine.fits_total
            finally:
                await engine.stop()

        jobs, fits = run(scenario())
        *followers, leader = jobs
        assert leader.state == "cancelled"
        assert fits == 0  # nothing ever executed
        for follower in followers:
            assert follower.state == "cancelled"
            assert leader.id in (follower.error or "")

    def test_followers_settle_when_queued_leader_expires(self):
        """Regression: a leader whose deadline passes while queued is
        marked expired by take(); its followers must expire with it
        instead of hanging."""

        async def scenario():
            engine = ServiceEngine(EngineConfig(workers=1))
            leader = engine.submit(request(deadline_s=0.005))
            follower = engine.submit(request(deadline_s=0.005))
            assert follower.coalesced
            await asyncio.sleep(0.05)  # both deadlines pass unserved
            await engine.start()
            try:
                leader = await engine.wait(leader.id, 60)
                follower = await engine.wait(follower.id, 60)
                return leader, follower, engine.fits_total
            finally:
                await engine.stop()

        leader, follower, fits = run(scenario())
        assert leader.state == "expired"
        assert follower.state == "expired"
        assert fits == 0

    def test_follower_own_deadline_enforced_at_settle(self):
        """A follower with a tighter deadline than its leader expires
        instead of receiving the late result."""

        async def scenario():
            engine = ServiceEngine(EngineConfig(workers=1))
            leader = engine.submit(request())
            stale = engine.submit(request(deadline_s=0.001))
            fresh = engine.submit(request())
            await asyncio.sleep(0.01)  # only stale's deadline passes
            await engine.start()
            try:
                leader = await engine.wait(leader.id, 120)
                stale = await engine.wait(stale.id, 60)
                fresh = await engine.wait(fresh.id, 60)
                return leader, stale, fresh
            finally:
                await engine.stop()

        leader, stale, fresh = run(scenario())
        assert leader.state == "done"
        assert stale.state == "expired"
        assert "deadline" in (stale.error or "")
        assert fresh.state == "done"
        assert fresh.result["labels"] == leader.result["labels"]

    def test_follower_mirrors_leader_failure(self):
        async def scenario():
            engine = ServiceEngine(
                EngineConfig(
                    workers=1,
                    retry=RetryPolicy(max_retries=0),
                )
            )
            bad = request(
                source={"kind": "mesh", "path": "/nope/missing.npz"}
            )
            leader = engine.submit(bad)
            follower = engine.submit(bad)
            await engine.start()
            try:
                leader = await engine.wait(leader.id, 60)
                follower = await engine.wait(follower.id, 60)
                return leader, follower
            finally:
                await engine.stop()

        leader, follower = run(scenario())
        assert leader.state == "failed"
        assert follower.state == "failed"
        assert leader.id in (follower.error or "")


class TestAdmission:
    def test_rate_limit(self):
        async def scenario():
            engine = ServiceEngine(
                EngineConfig(workers=1, rate_per_s=0.001, rate_burst=2)
            )
            engine.submit(request(k=2, client="alice"))
            engine.submit(request(k=3, client="alice"))
            with pytest.raises(RateLimitedError) as info:
                engine.submit(request(k=5, client="alice"))
            # other clients have their own bucket
            engine.submit(request(k=6, client="bob"))
            return engine, info.value

        engine, exc = run(scenario())
        assert exc.client == "alice"
        assert exc.retry_after_s > 0
        assert engine.rate_limited_total == 1

    def test_rate_bucket_map_is_bounded(self):
        """Arbitrary client strings cannot grow the bucket map past
        ``rate_clients_max`` (idle/refilled buckets are pruned)."""

        async def scenario():
            engine = ServiceEngine(
                EngineConfig(
                    workers=1,
                    queue_maxsize=64,
                    rate_per_s=1000.0,  # buckets refill immediately
                    rate_burst=4,
                    rate_clients_max=5,
                )
            )
            for i in range(20):
                engine.submit(request(k=2 + (i % 3), client=f"c{i}"))
            return len(engine._buckets)

        assert run(scenario()) <= 5

    def test_mesh_root_restricts_source_paths(self, tmp_path):
        """With ``mesh_root`` set, mesh sources outside it are rejected
        at submission (HTTP 400), including traversal attempts."""
        from repro.service.schemas import ServiceSchemaError

        async def scenario():
            root = tmp_path / "meshes"
            root.mkdir()
            engine = ServiceEngine(
                EngineConfig(workers=1, mesh_root=str(root))
            )
            for path in (
                "/etc/passwd",
                str(root / ".." / "secret.npz"),
            ):
                with pytest.raises(ServiceSchemaError, match="mesh root"):
                    engine.submit(
                        request(source={"kind": "mesh", "path": path})
                    )
            # a path under the root passes admission (it fails later at
            # load time, as an executed-job error, not a schema error)
            job = engine.submit(
                request(
                    source={"kind": "mesh", "path": str(root / "m.npz")}
                )
            )
            assert engine.queue.submitted == 1
            return job

        assert run(scenario()).state == "queued"
        async def scenario():
            engine = ServiceEngine(
                EngineConfig(workers=1, queue_maxsize=2)
            )
            engine.submit(request(k=2))
            engine.submit(request(k=3))
            with pytest.raises(QueueFullError):
                engine.submit(request(k=4))

        run(scenario())

    def test_deadline_expired_job_surfaces_counters(self):
        """A job whose deadline passes while queued ends 'expired' and
        the record carries the accounting."""

        async def scenario():
            engine = ServiceEngine(EngineConfig(workers=1))
            job = engine.submit(request(deadline_s=0.005))
            await asyncio.sleep(0.05)  # deadline passes before workers
            await engine.start()
            try:
                job = await engine.wait(job.id, 60)
                return job, engine.queue.expired
            finally:
                await engine.stop()

        job, expired = run(scenario())
        assert job.state == "expired"
        assert "deadline" in (job.error or "")
        assert expired == 1
        record = job.record()
        assert record["state"] == "expired"
        assert record["retries"] == 0

    def test_cancel_queued_job(self):
        async def scenario():
            engine = ServiceEngine(EngineConfig(workers=1))
            job = engine.submit(request())
            assert engine.cancel(job.id)
            with pytest.raises(UnknownJobError):
                engine.cancel("job-999999")
            await engine.start()
            try:
                job = await engine.wait(job.id, 60)
                return job, engine.fits_total
            finally:
                await engine.stop()

        job, fits = run(scenario())
        assert job.state == "cancelled"
        assert fits == 0  # never executed


class TestContactStepJobs:
    def test_contact_step_runs_driver(self):
        async def scenario():
            engine = ServiceEngine(EngineConfig(workers=1))
            await engine.start()
            try:
                job = engine.submit(
                    request(kind="contact-step", steps=2)
                )
                return await engine.wait(job.id, 240), engine.steps_total
            finally:
                await engine.stop()

        job, steps_total = run(scenario())
        assert job.state == "done", job.error
        payload = job.result
        assert payload["kind"] == "contact-step"
        assert payload["steps"] == 2
        assert len(payload["labels_digest"]) == 64
        assert payload["comm"]  # the driver moved data
        assert steps_total == 2


class TestReporting:
    def test_run_report_carries_counters_and_validates(self):
        async def scenario():
            engine = ServiceEngine(EngineConfig(workers=1))
            await engine.start()
            try:
                await engine.wait(engine.submit(request()).id, 120)
                await engine.wait(engine.submit(request()).id, 120)
            finally:
                await engine.stop()
            return engine

        # run_report takes the execution lock, so build it off-loop —
        # exactly what the /v1/report route does
        # (test_async_regressions.py::TestReportOffLoop)
        report = run(scenario()).run_report()
        assert report.meta["fits_total"] == 1
        assert report.meta["cache_hits"] == 1
        assert report.meta["queue_submitted"] == 2
        # job spans were merged under the service root
        assert report.spans.find("partition/fit") is not None
        assert report.spans.find("partition/cache-lookup") is not None
        # and the document round-trips through the strict report schema
        report.to_json()

    def test_counters_flat_mapping(self):
        async def scenario():
            return ServiceEngine(EngineConfig(workers=1)).counters()

        counters = run(scenario())
        assert counters["fits_total"] == 0
        assert counters["cache_hits"] == 0
        assert all(isinstance(v, int) for v in counters.values())
