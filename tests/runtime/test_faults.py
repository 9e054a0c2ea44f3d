"""Tests for deterministic fault injection (a pool's ``faults=``).

The contract under test: a faulted run — any plan, on a supervised
worker pool — produces results, ledgers, and per-rank state
bit-identical to an uninjected serial run. Faults change *how long* a
run takes, never *what it computes*; the pool's supervised session is
what recovers a killed worker.
"""

import time
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.tracer import Tracer
from repro.runtime.backends import (
    ProcessBackend,
    SerialBackend,
    SupervisorConfig,
    build_backend,
)
from repro.runtime.faults import ChaosStep, FaultPlan, FaultSpec
from repro.runtime.ledger import CommLedger
from tests.runtime.spmd import run_supersteps


# ----------------------------------------------------------------------
# module-level supersteps (picklable, usable on the process pool)
# ----------------------------------------------------------------------


def _seed_state(ctx):
    ctx.state["acc"] = ctx.rank + 1
    ctx.send((ctx.rank + 1) % ctx.size, ctx.rank, phase="ring", items=1)


def _fold_inbox(ctx):
    for _src, payload in ctx.inbox():
        ctx.state["acc"] += payload * 10
    ctx.send((ctx.rank + 2) % ctx.size, ctx.state["acc"], phase="ring",
             items=1)


def _collect(ctx):
    extras = sorted(p for _s, p in ctx.inbox())
    return (ctx.rank, ctx.state["acc"], extras)


PIPELINE = (_seed_state, _fold_inbox, _collect)


def _run_pipeline(backend, tracer=None, pipeline=PIPELINE):
    ledger = CommLedger()
    results = run_supersteps(
        3, pipeline, ledger=ledger, backend=backend, tracer=tracer
    )
    return results, ledger


def faulted_pool(faults, **supervisor):
    """A two-worker process pool injecting ``faults`` (its superstep
    count starts at 0), with fast retries."""
    supervisor.setdefault("backoff_base_s", 0.01)
    return ProcessBackend(
        workers=2, supervisor=SupervisorConfig(**supervisor), faults=faults
    )


# ----------------------------------------------------------------------
# plan grammar
# ----------------------------------------------------------------------


class TestFaultPlan:
    def test_parse_entry_defaults(self):
        plan = FaultPlan.parse("kill@2.1")
        assert plan.faults == (FaultSpec("kill", 2, 1, 0.0),)

    def test_parse_multiple_with_seconds(self):
        plan = FaultPlan.parse("kill@2.1, slow@5.0:0.02 ,hang@7.1:12")
        assert [f.kind for f in plan.faults] == ["kill", "slow", "hang"]
        assert plan.faults[1].seconds == pytest.approx(0.02)
        assert plan.faults[2].seconds == pytest.approx(12.0)

    def test_roundtrip(self):
        text = "kill@2.1,slow@5.0:0.02,hang@7.1:12"
        assert FaultPlan.parse(text).to_text() == text

    def test_default_seconds_omitted_from_text(self):
        assert FaultPlan.parse("hang@1.0:30").to_text() == "hang@1.0"

    @pytest.mark.parametrize(
        "bad",
        ["boom@1.0", "kill@1", "kill@x.y", "kill@1.0:soon", "kill1.0"],
    )
    def test_parse_errors(self, bad):
        with pytest.raises(ValueError, match="invalid fault entry|unknown"):
            FaultPlan.parse(bad)

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="kind"):
            FaultSpec("explode", 0, 0, 0.0)
        with pytest.raises(ValueError, match=">= 0"):
            FaultSpec("kill", -1, 0, 0.0)
        with pytest.raises(ValueError, match="seconds"):
            FaultSpec("hang", 0, 0, -1.0)

    def test_bool(self):
        assert not FaultPlan()
        assert FaultPlan.parse("slow@0.0")


class TestPoolFaults:
    @pytest.mark.parametrize(
        "spec",
        ["serial://?faults=kill@0.0", "thread://?workers=2&faults=kill@0.0"],
        ids=["serial", "thread:2"],
    )
    def test_in_process_backends_refuse_faults(self, spec):
        """Only a pool has a worker to kill and a session to recover
        it; an in-process backend refuses ``faults=`` as an unknown
        option."""
        with pytest.raises(ValueError, match="does not accept option"):
            build_backend(spec)

    def test_spec_builds_a_faulted_pool(self):
        be = build_backend("process://?workers=2&faults=kill@3.0")
        assert isinstance(be, ProcessBackend)
        assert be.workers == 2
        assert be.faults.to_text() == "kill@3.0"
        be.close()

    def test_fault_outside_session_not_consumed(self):
        be = faulted_pool("kill@0.5")
        assert be._arm(0, 2) == {}  # rank 5 doesn't exist at size 2
        assert be._arm(0, 8) == {5: ("kill", 0.0)}


# ----------------------------------------------------------------------
# equivalence: a faulted pool == clean serial
# ----------------------------------------------------------------------


REFERENCE = _run_pipeline(SerialBackend())


def test_chaos_kill_on_process_pool_is_bit_identical():
    """A pool-worker kill exercises the supervised respawn path and
    still matches serial."""
    tracer = Tracer()
    with faulted_pool("kill@1.0") as pool:
        results, ledger = _run_pipeline(pool, tracer=tracer)
    ref_results, ref_ledger = REFERENCE
    assert results == ref_results
    assert ledger.phases == ref_ledger.phases
    counters = _counter_totals(tracer)
    assert counters.get("faults_injected") == 1
    assert counters.get("worker_deaths", 0) >= 1
    assert counters.get("worker_respawns", 0) >= 1


def test_local_kill_is_a_no_op():
    """A session that fell back to in-process execution (its first
    superstep is a closure, which does not pickle) runs the kill's
    rank in the calling process: the fault is counted as injected and
    does nothing, and no worker dies."""
    tracer = Tracer()
    closures = [lambda ctx, f=f: f(ctx) for f in PIPELINE]
    with faulted_pool("kill@1.1") as pool:
        with pytest.warns(RuntimeWarning, match="not picklable"):
            results, ledger = _run_pipeline(pool, tracer, closures)
    assert results == REFERENCE[0]
    assert ledger.phases == REFERENCE[1].phases
    assert ledger.sent_by_rank == REFERENCE[1].sent_by_rank
    counters = _counter_totals(tracer)
    assert counters.get("faults_injected") == 1
    assert "worker_deaths" not in counters
    assert "step_retries" not in counters  # nothing to roll back


def test_degraded_step_runs_without_the_fault():
    """A hang blows the deadline of a pool with no retry budget: the
    session degrades and finishes the step in-process with the fault
    disarmed — it fired once already — so nothing sleeps out the
    hang's 60 s."""
    start = time.monotonic()
    with faulted_pool(
        "hang@1.0:60", step_deadline_s=1.0, max_retries=0
    ) as pool:
        with pytest.warns(RuntimeWarning, match="degrades"):
            results, ledger = _run_pipeline(pool)
    assert time.monotonic() - start < 30.0
    assert results == REFERENCE[0]
    assert ledger.phases == REFERENCE[1].phases


def test_chaos_slow_is_bit_identical():
    with faulted_pool("slow@0.0:0.001,slow@2.2:0.001") as pool:
        results, ledger = _run_pipeline(pool)
    assert (results, ledger.phases) == (REFERENCE[0], REFERENCE[1].phases)


def test_empty_plan_is_passthrough():
    with faulted_pool("") as pool:
        results, ledger = _run_pipeline(pool)
    assert results == REFERENCE[0]


def test_kill_in_the_calling_process_is_a_no_op():
    """A ChaosStep fired outside any worker (here on the serial
    backend) runs the plain superstep: there is no worker to lose."""
    step = ChaosStep(lambda ctx, _: _collect(ctx), {0: ("kill", 0.0)})
    out = run_supersteps(
        2, [_seed_state, lambda ctx: step(ctx, None)], backend="serial"
    )
    assert out[-1] == [(0, 1, [1]), (1, 2, [0])]


def test_chaos_step_is_transparent():
    """A rank with no fault armed runs the plain step."""
    step = ChaosStep(lambda ctx, arg: (ctx.rank, arg), {1: ("kill", 0.0)})
    assert step(SimpleNamespace(rank=0), "x") == (0, "x")


# ----------------------------------------------------------------------
# property: no single-rank fault plan changes the answer
# ----------------------------------------------------------------------


@given(
    kind=st.sampled_from(["kill", "slow"]),
    step=st.integers(0, 3),
    rank=st.integers(0, 3),
)
@settings(max_examples=25, deadline=None)
def test_property_single_fault_never_changes_results(kind, step, rank):
    """For ANY single fault (any kind, any step — including past the
    end of the run — any rank, including absent ranks) the faulted
    run's results and ledger equal the clean serial run's."""
    plan = FaultPlan((FaultSpec(kind, step, rank, 0.0),))
    with faulted_pool(plan.to_text()) as pool:
        results, ledger = _run_pipeline(pool)
    assert results == REFERENCE[0]
    assert ledger.phases == REFERENCE[1].phases
    assert ledger.received_by_rank == REFERENCE[1].received_by_rank


# ----------------------------------------------------------------------


def _counter_totals(tracer):
    totals = {}
    for _path, span in tracer.finish().walk():
        for name, value in span.counters.items():
            totals[name] = totals.get(name, 0) + value
    return totals
