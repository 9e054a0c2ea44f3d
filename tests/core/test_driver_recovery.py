"""Fault recovery under the ContactStepDriver (the acceptance test).

The contract under test: a run on a pool whose fault plan kills a
worker — once per phase, or often enough to spend the pool's retry
budget —
completes with partition labels, ledger, history, and final checkpoint
bit-identical to an uninjected serial run. The pool's supervised
session is the only layer that recovers; the driver steps once, and a
:class:`BackendError` reaches its caller with ``history`` untouched.
"""

import io

import numpy as np
import pytest

from repro.core import ContactStepDriver
from repro.core.checkpoint import (
    dump_driver_bytes,
    load_driver,
    restore_driver_state,
    _read_checkpoint,
)
from repro.obs.report import RunReport
from repro.obs.tracer import Tracer
from repro.runtime.backends import (
    BackendError,
    SerialBackend,
    SupervisorConfig,
)
from repro.runtime.backends.process import ProcessBackend

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


def _pool(faults):
    """A two-worker pool injecting ``faults`` (the default retry
    budget)."""
    return ProcessBackend(
        workers=2, supervisor=SupervisorConfig(backoff_base_s=0.01),
        faults=faults,
    )


def _exhausted_pool(faults):
    """A pool injecting ``faults`` whose first lost worker spends its
    whole retry budget."""
    return ProcessBackend(
        workers=2, supervisor=SupervisorConfig(max_retries=0),
        faults=faults,
    )


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
        """One injected worker kill in each early superstep window; the
        pool's session respawns, replays and retries, and the full
        driver run matches the clean serial run bit for bit."""
        tracer = Tracer()
        with _pool("kill@0.1,kill@1.0,kill@2.1,kill@3.0") as pool:
            driver = ContactStepDriver(K, backend=pool, tracer=tracer)
            driver.run(snaps)
        _assert_equivalent(driver, reference)
        counters = _counter_totals(tracer)
        assert counters.get("faults_injected", 0) == 4
        assert counters.get("step_retries", 0) == 4
        assert counters.get("worker_deaths", 0) == 4

    def test_recovery_visible_in_run_report(self, snaps, reference):
        tracer = Tracer()
        with _pool("kill@1.0") as pool:
            driver = ContactStepDriver(K, backend=pool, tracer=tracer)
            driver.run(snaps)
        report = RunReport.from_run(tracer, driver.ledger)
        totals = report.recovery_totals()
        assert totals.get("faults_injected") == 1
        assert totals.get("step_retries") == 1
        assert totals.get("worker_deaths") == 1
        assert report.recovery_seconds() >= 0.0
        assert "Fault recovery" in report.render()
        # and the counters survive the JSON round-trip
        reloaded = RunReport.from_dict(report.to_dict())
        assert reloaded.recovery_totals() == totals

    def test_exhausted_pool_degrades_bit_identical(self, snaps, reference):
        """A pool with no retry budget loses a worker; its session
        finishes in-process with a RuntimeWarning, and the run still
        ends bit-identical to serial: the session alone recovered it."""
        tracer = Tracer()
        with _exhausted_pool("kill@1.0") as pool:
            driver = ContactStepDriver(K, backend=pool, tracer=tracer)
            with pytest.warns(RuntimeWarning, match="degrades"):
                driver.run(snaps)
        _assert_equivalent(driver, reference)
        counters = _counter_totals(tracer)
        assert counters.get("ranks_degraded", 0) > 0
        assert counters.get("worker_deaths", 0) >= 1


class _LostBackend(SerialBackend):
    """A backend whose every session fails as a lost pool would."""

    def open_session(self, size, ledger=None, tracer=None, shared=None):
        raise BackendError("pool lost")


class TestDriverCheckpointRecovery:
    def test_backend_error_propagates(self, snaps):
        """The driver steps once: a BackendError reaches the caller and
        the failed step appends nothing to ``history``."""
        driver = ContactStepDriver(K, backend="serial")
        driver.initialize(snaps[0])
        driver.step(snaps[0])
        driver.backend = _LostBackend()
        with pytest.raises(BackendError, match="pool lost"):
            driver.step(snaps[1])
        assert len(driver.history) == 1

    def test_loaded_driver_recovers_its_first_step(self, snaps, reference):
        """A driver restarted with ``load_driver`` loses a worker in its
        first step; the pool's session degrades and the run continues
        where a clean one does."""
        first = ContactStepDriver(K, backend="serial")
        first.initialize(snaps[0])
        first.step(snaps[0])
        with _exhausted_pool("kill@0.0") as pool:
            driver = load_driver(
                io.BytesIO(dump_driver_bytes(first)), backend=pool
            )
            with pytest.warns(RuntimeWarning, match="degrades"):
                history = [driver.step(snap) for snap in snaps[1:]]
        assert [r.candidates for r in history] == [
            r.candidates for r in reference.history[1:]
        ]
        assert np.array_equal(driver.partitioner.part,
                              reference.partitioner.part)
        assert driver.ledger.phases == reference.ledger.phases

    def test_restore_rejects_k_mismatch(self, snaps):
        driver = ContactStepDriver(K, backend="serial")
        driver.initialize(snaps[0])
        blob = dump_driver_bytes(driver)
        other = ContactStepDriver(K + 1, backend="serial")
        with pytest.raises(ValueError, match="k="):
            restore_driver_state(other, io.BytesIO(blob))
