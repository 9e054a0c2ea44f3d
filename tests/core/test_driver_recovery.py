"""Step-level recovery in the ContactStepDriver (the acceptance test).

The contract under test: a chaos run that kills a rank — once per
phase, or enough to defeat the runtime's own recovery — completes with
partition labels, ledger, history, and final checkpoint bit-identical
to an uninjected serial run, with the retries visible in the trace.
"""

import io

import numpy as np
import pytest

from repro.core import ContactStepDriver, RecoveryPolicy
from repro.core.checkpoint import (
    dump_driver_bytes,
    load_driver,
    restore_driver_state,
    _read_checkpoint,
)
from repro.obs.report import RunReport
from repro.obs.tracer import Tracer
from repro.runtime.backends import BackendError, SupervisorConfig
from repro.runtime.backends.process import ProcessBackend
from repro.runtime.faults import ChaosBackend

K = 4
N_STEPS = 4


@pytest.fixture(scope="module")
def snaps(small_sequence):
    return list(small_sequence)[:N_STEPS]


@pytest.fixture(scope="module")
def reference(snaps):
    """The uninjected serial run every faulted run must match."""
    driver = ContactStepDriver(K, backend="serial")
    driver.run(snaps)
    return driver


def _assert_equivalent(driver, reference):
    assert np.array_equal(driver.partitioner.part,
                          reference.partitioner.part)
    assert driver.ledger.phases == reference.ledger.phases
    assert driver.ledger.sent_by_rank == reference.ledger.sent_by_rank
    assert [r.candidates for r in driver.history] == [
        r.candidates for r in reference.history
    ]
    # final checkpoints agree except for backend provenance
    meta_a, part_a = _read_checkpoint(io.BytesIO(dump_driver_bytes(driver)))
    meta_b, part_b = _read_checkpoint(
        io.BytesIO(dump_driver_bytes(reference))
    )
    meta_a["backend"] = meta_b["backend"] = None
    assert np.array_equal(part_a, part_b)
    assert meta_a == meta_b


def _counter_totals(tracer):
    totals = {}
    for _path, span in tracer.finish().walk():
        for name, value in span.counters.items():
            totals[name] = totals.get(name, 0) + value
    return totals


class TestChaosAcceptance:
    def test_kill_once_per_phase_is_bit_identical(self, snaps, reference):
        """One injected kill in each early superstep window; the chaos
        harness rolls back and retries, and the full driver run matches
        the clean serial run bit for bit."""
        tracer = Tracer()
        chaos = ChaosBackend(
            plan="kill@0.1,kill@1.0,kill@2.1,kill@3.0",
            inner="serial",
        )
        driver = ContactStepDriver(K, backend=chaos, tracer=tracer)
        try:
            driver.run(snaps)
        finally:
            chaos.close()
        _assert_equivalent(driver, reference)
        counters = _counter_totals(tracer)
        assert counters.get("faults_injected", 0) == 4
        assert counters.get("step_retries", 0) == 4

    def test_recovery_visible_in_run_report(self, snaps, reference):
        tracer = Tracer()
        chaos = ChaosBackend(plan="kill@1.0", inner="serial")
        driver = ContactStepDriver(K, backend=chaos, tracer=tracer)
        try:
            driver.run(snaps)
        finally:
            chaos.close()
        report = RunReport.from_run(tracer, driver.ledger)
        totals = report.recovery_totals()
        assert totals.get("faults_injected") == 1
        assert totals.get("step_retries") == 1
        assert report.recovery_seconds() >= 0.0
        assert "Fault recovery" in report.render()
        # and the counters survive the JSON round-trip
        reloaded = RunReport.from_dict(report.to_dict())
        assert reloaded.recovery_totals() == totals


class TestDriverCheckpointRecovery:
    def test_backend_loss_restores_and_reruns(self, snaps, reference):
        """An unsupervised pool (no retries, no degradation) loses its
        workers to an injected kill; the BackendError reaches the
        driver, which restores its recovery point and re-executes —
        ending bit-identical to serial."""
        tracer = Tracer()
        inner = ProcessBackend(
            workers=2,
            supervisor=SupervisorConfig(max_retries=0, degrade=False),
        )
        chaos = ChaosBackend(plan="kill@1.0", inner=inner)
        driver = ContactStepDriver(K, backend=chaos, tracer=tracer)
        try:
            driver.run(snaps)
        finally:
            chaos.close()
        _assert_equivalent(driver, reference)
        counters = _counter_totals(tracer)
        assert counters.get("step_recoveries", 0) >= 1
        assert counters.get("worker_deaths", 0) >= 1

    def test_recovery_point_is_isolated_from_live_state(
        self, snaps, reference
    ):
        """The in-memory recovery point is a copy: after step 0 the
        live partition vector is mutated in place and the live ledger
        records a message, then step 1 loses a worker. The restore
        brings back the values saved after step 0, not the mutated
        ones, so the run still ends bit-identical to serial."""
        tracer = Tracer()
        inner = ProcessBackend(
            workers=2,
            supervisor=SupervisorConfig(max_retries=0, degrade=False),
        )
        # supersteps 0 and 1 are step 0's exchange and search
        chaos = ChaosBackend(plan="kill@2.0", inner=inner)
        driver = ContactStepDriver(K, backend=chaos, tracer=tracer)
        try:
            driver.initialize(snaps[0])
            driver.step(snaps[0])
            part = driver.partitioner.part
            part[: len(part) // 2] = 0
            driver.ledger.record("contact-exchange", 0, 1, 999)
            for snap in snaps[1:]:
                driver.step(snap)
        finally:
            chaos.close()
        assert _counter_totals(tracer).get("step_recoveries") == 1
        _assert_equivalent(driver, reference)

    def test_loaded_driver_recovers_its_first_step(self, snaps, reference):
        """``load_driver`` makes the loaded state the first recovery
        point, so a worker lost in the restarted run's first step is
        recovered rather than propagated."""
        first = ContactStepDriver(K, backend="serial")
        first.initialize(snaps[0])
        first.step(snaps[0])
        inner = ProcessBackend(
            workers=2,
            supervisor=SupervisorConfig(max_retries=0, degrade=False),
        )
        chaos = ChaosBackend(plan="kill@0.0", inner=inner)
        driver = load_driver(
            io.BytesIO(dump_driver_bytes(first)), backend=chaos
        )
        try:
            history = [driver.step(snap) for snap in snaps[1:]]
        finally:
            chaos.close()
        assert [r.candidates for r in history] == [
            r.candidates for r in reference.history[1:]
        ]
        assert np.array_equal(driver.partitioner.part,
                              reference.partitioner.part)
        assert driver.ledger.phases == reference.ledger.phases

    def test_recovery_disabled_propagates(self, snaps):
        inner = ProcessBackend(
            workers=2,
            supervisor=SupervisorConfig(max_retries=0, degrade=False),
        )
        chaos = ChaosBackend(plan="kill@1.0", inner=inner)
        driver = ContactStepDriver(
            K, backend=chaos, recovery=RecoveryPolicy(max_step_retries=0)
        )
        try:
            with pytest.raises(BackendError):
                driver.run(snaps)
        finally:
            chaos.close()

    def test_on_disk_recovery_point(self, snaps, tmp_path, reference):
        """With a checkpoint path the last good state is also left on
        disk, loadable for a whole-process restart."""
        path = tmp_path / "recovery.npz"
        chaos = ChaosBackend(plan="kill@2.0", inner="serial")
        driver = ContactStepDriver(
            K, backend=chaos,
            recovery=RecoveryPolicy(checkpoint_path=path),
        )
        try:
            driver.run(snaps)
        finally:
            chaos.close()
        _assert_equivalent(driver, reference)
        restarted = load_driver(path, backend="serial")
        assert np.array_equal(restarted.partitioner.part,
                              driver.partitioner.part)
        assert restarted.ledger.phases == driver.ledger.phases

    def test_rollback_is_the_in_memory_point_only(self, snaps, tmp_path):
        """Rolling a live driver back to an older checkpoint leaves the
        newer last-good file on disk alone, and a worker lost in the
        next step re-executes from the rolled-back state: the run ends
        where a fault-free run of the same calls ends."""
        path = tmp_path / "recovery.npz"

        tracer = Tracer()

        def run(backend, recovery=None):
            driver = ContactStepDriver(
                K, backend=backend, recovery=recovery,
                tracer=tracer if recovery else None,
            )
            driver.initialize(snaps[0])
            older = dump_driver_bytes(driver)
            driver.step(snaps[0])
            newest = path.read_bytes() if recovery else None
            restore_driver_state(driver, io.BytesIO(older))
            if recovery:
                assert path.read_bytes() == newest
            driver.step(snaps[1])
            return driver

        clean = run("serial")
        inner = ProcessBackend(
            workers=2,
            supervisor=SupervisorConfig(max_retries=0, degrade=False),
        )
        # supersteps 0 and 1 are step 0's exchange and search
        chaos = ChaosBackend(plan="kill@2.0", inner=inner)
        try:
            faulted = run(chaos, RecoveryPolicy(checkpoint_path=path))
        finally:
            chaos.close()
        assert _counter_totals(tracer).get("step_recoveries") == 1
        assert np.array_equal(faulted.partitioner.part,
                              clean.partitioner.part)
        assert faulted.ledger.phases == clean.ledger.phases
        assert faulted.ledger.sent_by_rank == clean.ledger.sent_by_rank
        assert [r.candidates for r in faulted.history] == [
            r.candidates for r in clean.history
        ]

    def test_restore_rejects_k_mismatch(self, snaps):
        driver = ContactStepDriver(K, backend="serial")
        driver.initialize(snaps[0])
        blob = dump_driver_bytes(driver)
        other = ContactStepDriver(K + 1, backend="serial")
        with pytest.raises(ValueError, match="k="):
            restore_driver_state(other, io.BytesIO(blob))

    def test_policy_validation(self):
        with pytest.raises(ValueError, match="max_step_retries"):
            RecoveryPolicy(max_step_retries=-1)
