"""The service's blocking work runs off the event loop.

Every blocking step of a job — the run report (it takes the engine's
execution lock), closing the pooled backend, building a source (a
simulation or a mesh file), reading and writing the result cache (its
disk tier) and the fit itself — runs in an executor thread, so one
slow request never stalls the others.  (A memory hit answered at
submission reads only the cache's memory tier on the loop;
``test_memory_hits.py`` holds it to that.)  Each test spies
on one of those steps and asserts the thread it ran on is not the
loop's.  (The first two hops were found by the ASYNC001 lint code,
which these tests replaced.)
"""

import asyncio
import threading

from repro.service.engine import EngineConfig, ServiceEngine
from repro.service.http import ServerThread
from repro.service.schemas import SCHEMA_VERSION
from repro.service.client import ServiceClient

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


class TestReportOffLoop:
    def test_v1_report_runs_off_the_event_loop_thread(self):
        with ServerThread(EngineConfig(workers=1)) as srv:
            client = ServiceClient(srv.address)
            client.partition(4, SOURCE, wait_s=120)

            seen = {}
            engine = srv.engine
            original = engine.run_report

            def spy():
                seen["thread"] = threading.get_ident()
                return original()

            engine.run_report = spy
            try:
                document = client.report()
            finally:
                engine.run_report = original

        assert document["meta"]["fits_total"] >= 1
        assert seen["thread"] != srv._thread.ident


class TestBackendCloseOffLoop:
    def test_stop_detaches_and_closes_backend_off_loop(self):
        seen = {}

        async def scenario():
            engine = ServiceEngine(EngineConfig(workers=1))
            await engine.start()
            # contact-step jobs are the ones that materialise the
            # pooled backend
            job = await engine.wait(
                engine.submit(request(kind="contact-step", steps=1)).id,
                120,
            )
            assert job.state == "done"
            assert engine._backend is not None  # pool materialised

            original = engine._close_backend

            def spy():
                seen["thread"] = threading.get_ident()
                original()

            engine._close_backend = spy
            loop_thread = threading.get_ident()
            await engine.stop()
            return loop_thread, engine

        loop_thread, engine = asyncio.run(scenario())
        assert engine._backend is None  # detached and closed
        assert seen["thread"] != loop_thread

    def test_stop_without_backend_is_a_no_op(self):
        async def scenario():
            engine = ServiceEngine(EngineConfig(workers=1))
            await engine.start()
            await engine.stop()
            return engine

        engine = asyncio.run(scenario())
        assert engine._backend is None


class TestSourceAndCacheOffLoop:
    def test_source_build_and_cache_io_run_off_the_event_loop(
        self, tmp_path
    ):
        """A miss, then a hit read back from the disk tier: neither the
        source build nor a cache read or write may run on the loop (a
        hit only the disk tier has takes the queue, not the memory-hit
        answer in ``submit``)."""
        seen = []

        def spy(owner, name):
            original = getattr(owner, name)

            def call(*args):
                seen.append((name, threading.get_ident()))
                return original(*args)

            setattr(owner, name, call)

        async def scenario():
            engine = ServiceEngine(
                EngineConfig(workers=1, cache_dir=str(tmp_path))
            )
            spy(engine, "_sequence")
            spy(engine.cache, "get")
            spy(engine.cache, "put")
            await engine.start()
            miss = await engine.wait(engine.submit(request()).id, 120)
            engine.cache.clear()  # the next hit comes from disk
            hit = await engine.wait(engine.submit(request()).id, 120)
            await engine.stop()
            return threading.get_ident(), engine, miss, hit

        loop_thread, engine, miss, hit = asyncio.run(scenario())
        assert (miss.cache, hit.cache) == ("miss", "hit")
        assert engine.cache.stats.disk_hits == 1
        assert {name for name, _ in seen} == {"_sequence", "get", "put"}
        assert loop_thread not in {thread for _, thread in seen}
