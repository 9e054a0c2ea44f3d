"""Tests for the deterministic fault-injection harness (`chaos`).

The contract under test: a chaos run — any plan, any inner backend —
produces results, ledgers, and per-rank state bit-identical to an
uninjected serial run. Faults change *how long* a run takes, never
*what it computes*.
"""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.tracer import Tracer
from repro.runtime.backends import (
    CHAOS_INNER_ENV,
    FAULT_PLAN_ENV,
    ProcessBackend,
    SerialBackend,
    SupervisorConfig,
    build_backend,
)
from repro.runtime.executor import spmd_run
from repro.runtime.faults import (
    ChaosBackend,
    ChaosStep,
    FaultPlan,
    FaultSpec,
    InjectedFault,
)
from repro.runtime.ledger import CommLedger


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


def _run_pipeline(backend, tracer=None):
    ledger = CommLedger()
    results = spmd_run(
        3, PIPELINE, ledger=ledger, backend=backend, tracer=tracer
    )
    return results, ledger


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

    def test_from_env(self, monkeypatch):
        monkeypatch.setenv(FAULT_PLAN_ENV, "kill@0.0")
        assert FaultPlan.from_env().faults[0].kind == "kill"
        monkeypatch.delenv(FAULT_PLAN_ENV)
        assert not FaultPlan.from_env()

    def test_bool(self):
        assert not FaultPlan()
        assert FaultPlan.parse("slow@0.0")


class TestChaosBackendConstruction:
    def test_refuses_to_wrap_itself(self):
        with pytest.raises(ValueError, match="wrap itself"):
            ChaosBackend(plan="", inner="chaos")
        inner = ChaosBackend(plan="", inner="serial")
        with pytest.raises(ValueError, match="wrap itself"):
            ChaosBackend(plan="", inner=inner)

    def test_env_defaults(self, monkeypatch):
        monkeypatch.setenv(FAULT_PLAN_ENV, "kill@3.0")
        monkeypatch.setenv(CHAOS_INNER_ENV, "serial")
        be = ChaosBackend()
        assert isinstance(be.inner, SerialBackend)
        assert be.plan.to_text() == "kill@3.0"

    def test_make_backend_chaos(self, monkeypatch):
        monkeypatch.setenv(CHAOS_INNER_ENV, "serial")
        monkeypatch.delenv(FAULT_PLAN_ENV, raising=False)
        be = build_backend("chaos")
        assert isinstance(be, ChaosBackend)
        be.close()

    def test_reset_rearms(self):
        be = ChaosBackend(plan="kill@0.0", inner="serial")
        assert be._arm(0, 3)
        assert not be._arm(0, 3)  # one-shot
        be.reset()
        assert be._arm(0, 3)

    def test_fault_outside_session_not_consumed(self):
        be = ChaosBackend(plan="kill@0.5", inner="serial")
        assert be._arm(0, 2) == {}  # rank 5 doesn't exist at size 2
        assert be._arm(0, 8)  # still armed for a big enough session


# ----------------------------------------------------------------------
# equivalence: chaos == clean serial, on every inner backend
# ----------------------------------------------------------------------


REFERENCE = _run_pipeline(SerialBackend())


@pytest.mark.parametrize("inner", ["serial", "thread"])
def test_chaos_kill_is_bit_identical(inner):
    """An in-process kill rolls back and retries; results and ledger
    match the clean serial run exactly."""
    tracer = Tracer()
    chaos = ChaosBackend(plan="kill@1.1", inner=inner, workers=2)
    try:
        results, ledger = _run_pipeline(chaos, tracer=tracer)
    finally:
        chaos.close()
    ref_results, ref_ledger = REFERENCE
    assert results == ref_results
    assert ledger.phases == ref_ledger.phases
    assert ledger.sent_by_rank == ref_ledger.sent_by_rank
    counters = _counter_totals(tracer)
    assert counters.get("faults_injected") == 1
    assert counters.get("step_retries") == 1


def test_chaos_kill_on_process_pool_is_bit_identical():
    """A pool-worker kill exercises the supervised respawn path and
    still matches serial."""
    tracer = Tracer()
    inner = ProcessBackend(
        workers=2,
        supervisor=SupervisorConfig(max_retries=2, backoff_base_s=0.01),
    )
    chaos = ChaosBackend(plan="kill@1.0", inner=inner)
    try:
        results, ledger = _run_pipeline(chaos, tracer=tracer)
    finally:
        chaos.close()
    ref_results, ref_ledger = REFERENCE
    assert results == ref_results
    assert ledger.phases == ref_ledger.phases
    counters = _counter_totals(tracer)
    assert counters.get("worker_deaths", 0) >= 1
    assert counters.get("worker_respawns", 0) >= 1


def test_chaos_slow_is_bit_identical():
    chaos = ChaosBackend(plan="slow@0.0:0.001,slow@2.2:0.001",
                         inner="serial")
    try:
        results, ledger = _run_pipeline(chaos)
    finally:
        chaos.close()
    assert (results, ledger.phases) == (REFERENCE[0], REFERENCE[1].phases)


def test_empty_plan_is_passthrough():
    chaos = ChaosBackend(plan="", inner="serial")
    try:
        results, ledger = _run_pipeline(chaos)
    finally:
        chaos.close()
    assert results == REFERENCE[0]


def test_injected_fault_raises_without_chaos_session():
    """A ChaosStep fired outside a chaos session (no rollback layer)
    surfaces the InjectedFault to the caller."""
    step = ChaosStep(_collect, 0, {0: ("kill", 0.0)})
    with pytest.raises(InjectedFault, match="rank 0"):
        spmd_run(2, [lambda ctx: step(ctx, None)])


def test_chaos_step_is_transparent():
    step = ChaosStep(_seed_state, 4, {})
    assert step.__name__ == "_seed_state"
    assert step.disarm() is _seed_state


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
    end of the run — any rank, including absent ranks) the chaos run's
    results and ledger equal the clean serial run's."""
    plan = FaultPlan((FaultSpec(kind, step, rank, 0.0),))
    chaos = ChaosBackend(plan=plan, inner="serial")
    try:
        results, ledger = _run_pipeline(chaos)
    finally:
        chaos.close()
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
