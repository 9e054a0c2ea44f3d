"""Tests for the bounded job queue and job records."""

import asyncio
import time

import pytest

from repro.service.queue import (
    _TERMINAL,
    _TRANSITIONS,
    Job,
    JobQueue,
    QueueFullError,
)
from repro.service.schemas import (
    JOB_STATES,
    SCHEMA_VERSION,
    validate_job_record,
    validate_job_request,
)


def request(**overrides):
    doc = {
        "schema": SCHEMA_VERSION,
        "kind": "partition",
        "k": 2,
        "source": {"kind": "impact", "n_steps": 2},
    }
    doc.update(overrides)
    return validate_job_request(doc)


def run(coro):
    return asyncio.run(coro)


class TestJobStateMachine:
    def job(self):
        async def make():
            return Job(id="job-000000", request=request(), submitted_s=1.0)

        return run(make())

    def test_happy_path(self):
        job = self.job()
        job.transition("running")
        assert job.started_s is not None
        job.transition("done")
        assert job.terminal
        assert job.finished_s is not None
        assert job.done_event.is_set()

    def test_resurrection_forbidden(self):
        job = self.job()
        job.transition("running")
        job.transition("done")
        with pytest.raises(ValueError, match="illegal transition"):
            job.transition("running")

    def test_running_never_returns_to_queued(self):
        """A job runs once: there is no re-queue edge for a retry."""
        job = self.job()
        job.transition("running")
        with pytest.raises(ValueError, match="illegal transition"):
            job.transition("queued")
        job.transition("failed")
        assert job.terminal

    def test_unknown_state_rejected(self):
        with pytest.raises(ValueError, match="unknown job state"):
            self.job().transition("paused")

    def test_table_is_well_formed(self):
        states = set(_TRANSITIONS)
        assert states == set(JOB_STATES)
        for src, dsts in _TRANSITIONS.items():
            assert set(dsts) <= states, f"{src!r} has an undeclared target"
        reached, frontier = {"queued"}, ["queued"]
        while frontier:
            for dst in _TRANSITIONS[frontier.pop()]:
                if dst not in reached:
                    reached.add(dst)
                    frontier.append(dst)
        assert reached == states
        assert set(_TERMINAL) == {
            src for src, dsts in _TRANSITIONS.items() if not dsts
        }

    def test_transition_accepts_exactly_the_table_edges(self):
        for src in JOB_STATES:
            for dst in JOB_STATES:
                job = self.job()
                job.state = src
                if dst in _TRANSITIONS[src]:
                    job.transition(dst)
                    assert job.state == dst
                else:
                    with pytest.raises(ValueError, match="illegal transition"):
                        job.transition(dst)
                    assert job.state == src

    def test_deadline(self):
        job = self.job()
        assert not job.expired()  # no deadline
        job.deadline_s = time.monotonic() - 0.001
        assert job.expired()

    def test_record_validates(self):
        job = self.job()
        assert validate_job_record(job.record())["state"] == "queued"
        job.transition("running")
        job.transition("done")
        assert validate_job_record(job.record())["state"] == "done"


class TestJobQueue:
    def test_submit_take_fifo(self):
        async def scenario():
            queue = JobQueue(maxsize=4)
            a = queue.submit(request(k=2))
            b = queue.submit(request(k=3))
            assert len(queue) == 2
            assert a.id != b.id
            assert await queue.take() is a
            assert await queue.take() is b

        run(scenario())

    def test_backpressure(self):
        async def scenario():
            queue = JobQueue(maxsize=2)
            queue.submit(request(k=2))
            queue.submit(request(k=3))
            with pytest.raises(QueueFullError, match="queue full"):
                queue.submit(request(k=4))
            assert queue.rejected == 1
            # rejected submissions are not registered
            assert queue.submitted == 2

        run(scenario())

    def test_cancelled_jobs_still_returned_by_take(self):
        """A cancelled job is handed to the worker terminal (not
        silently dropped) so the engine can settle its coalesced
        followers."""

        async def scenario():
            queue = JobQueue(maxsize=4)
            a = queue.submit(request(k=2))
            b = queue.submit(request(k=3))
            assert queue.cancel(a.id)
            assert not queue.cancel(a.id)  # already terminal
            assert not queue.cancel("job-999999")  # unknown
            assert await queue.take() is a
            assert a.state == "cancelled"
            assert await queue.take() is b
            assert queue.cancelled == 1

        run(scenario())

    def test_expired_jobs_marked_and_returned_by_take(self):
        async def scenario():
            queue = JobQueue(maxsize=4)
            stale = queue.submit(request(k=2), deadline_s=0.001)
            fresh = queue.submit(request(k=3))
            await asyncio.sleep(0.01)
            assert await queue.take() is stale
            assert stale.state == "expired"
            assert "deadline" in (stale.error or "")
            assert await queue.take() is fresh
            assert queue.expired == 1

        run(scenario())

    def test_terminal_records_evicted_beyond_keep_records(self):
        """The registry is bounded: oldest finished records fall out,
        live jobs are never evicted."""

        async def scenario():
            queue = JobQueue(maxsize=16, keep_records=3)
            live = queue.submit(request(k=2))
            done = []
            for i in range(5):
                job = queue.submit(request(k=3 + i))
                job.transition("running")
                job.transition("done")
                done.append(job)
            # 6 records, bound 3: the 3 oldest *terminal* ones are gone
            assert live.id in queue  # still queued, never evicted
            assert all(job.id not in queue for job in done[:3])
            assert all(job.id in queue for job in done[3:])

        run(scenario())

    def test_keep_records_validated(self):
        with pytest.raises(ValueError, match="keep_records"):
            JobQueue(maxsize=4, keep_records=0)

    def test_states_and_lookup(self):
        async def scenario():
            queue = JobQueue(maxsize=4)
            job = queue.submit(request())
            assert job.id in queue
            assert queue.get(job.id) is job
            assert queue.get("nope") is None
            counts = queue.states()
            assert counts["queued"] == 1
            assert sum(counts.values()) == 1

        run(scenario())

    def test_maxsize_validated(self):
        with pytest.raises(ValueError, match="maxsize"):
            JobQueue(maxsize=0)
