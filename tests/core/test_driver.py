"""Tests for the time-stepping driver."""

import copy
import dataclasses

import numpy as np
import pytest

from repro.core.driver import ContactStepDriver, StepResult
from repro.core.mcml_dt import MCMLDTParams
from repro.core.update import UpdateStrategy
from repro.partition.config import PartitionOptions

K = 4


def params(pad=0.2):
    return MCMLDTParams(pad=pad, options=PartitionOptions(seed=0))


class TestDriverBasics:
    def test_run_produces_one_result_per_snapshot(self, small_sequence):
        driver = ContactStepDriver(K, params())
        results = driver.run(small_sequence)
        assert len(results) == len(small_sequence)
        assert [r.step for r in results] == list(range(len(small_sequence)))

    def test_step_without_initialize_raises(self, small_sequence):
        driver = ContactStepDriver(K, params())
        with pytest.raises(RuntimeError, match="initialize"):
            driver.step(small_sequence[0])

    def test_metrics_populated(self, small_sequence):
        driver = ContactStepDriver(K, params())
        results = driver.run(small_sequence)
        for r in results:
            assert r.nt_nodes >= 1
            assert r.n_remote >= 0
            assert r.fe_comm > 0
            assert len(r.imbalance) == 2

    def test_local_search_attached(self, small_sequence):
        driver = ContactStepDriver(K, params())
        results = driver.run(small_sequence)
        # once penetration starts, candidates resolve to finite gaps
        touched = [r for r in results if r.n_candidates > 0]
        assert touched, "the scene must produce contacts"
        for r in touched:
            assert r.resolution is not None
            assert np.isfinite(r.resolution.gap).all()

    def test_resolve_local_off(self, small_sequence):
        driver = ContactStepDriver(K, params(), resolve_local=False)
        result = driver.initialize(small_sequence[0]).step(small_sequence[0])
        assert result.resolution is None

    def test_ledger_accumulates(self, small_sequence):
        driver = ContactStepDriver(K, params())
        driver.run(small_sequence)
        total = driver.total_exchanged()
        assert total == sum(r.n_remote for r in driver.history)

    def test_empty_run_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            ContactStepDriver(K, params()).run([])

    def test_validation(self):
        with pytest.raises(ValueError, match="k must be"):
            ContactStepDriver(0)
        with pytest.raises(ValueError, match="repartition_period"):
            ContactStepDriver(2, repartition_period=0)

    def test_non_finite_snapshot_books_nothing(self, small_sequence):
        """A NaN contact-node coordinate is refused at the top of the
        step: no exchange reaches the ledger, no repartition moves the
        labels and no history entry is added."""
        driver = ContactStepDriver(
            K, params(), strategy=UpdateStrategy.HYBRID,
            repartition_period=1,
        )
        driver.initialize(small_sequence[0]).step(small_sequence[0])
        snap = small_sequence[1]
        nodes = snap.mesh.nodes.copy()
        nodes[snap.contact_nodes[3], 1] = np.nan
        bad = dataclasses.replace(
            snap, mesh=dataclasses.replace(snap.mesh, nodes=nodes)
        )
        ledger = copy.deepcopy(driver.ledger)
        part = driver.partitioner.part.copy()
        with pytest.raises(
            ValueError, match="contact-node coordinates must be finite"
        ):
            driver.step(bad)
        assert driver.ledger == ledger
        assert driver.ledger.items("contact-exchange") == (
            driver.history[0].n_remote
        )
        assert np.array_equal(driver.partitioner.part, part)
        assert len(driver.history) == 1
        # the driver is still usable: the good snapshot steps as before
        assert driver.step(snap).repartitioned


class TestDriverStrategies:
    def test_descriptor_only_never_repartitions(self, small_sequence):
        driver = ContactStepDriver(
            K, params(), strategy=UpdateStrategy.DESCRIPTOR_ONLY
        )
        results = driver.run(small_sequence)
        assert not any(r.repartitioned for r in results)
        assert driver.ledger.items("repartition") == 0

    def test_hybrid_repartitions_on_period(self, small_sequence):
        driver = ContactStepDriver(
            K, params(), strategy=UpdateStrategy.HYBRID,
            repartition_period=4,
        )
        results = driver.run(small_sequence)
        flags = [r.repartitioned for r in results]
        assert not flags[0]  # first step never repartitions
        assert any(flags)
        # repartitions happen at most every `period` steps
        last = -10
        for i, f in enumerate(flags):
            if f:
                assert i - last >= 4
                last = i

    def test_repartition_every_step(self, small_sequence):
        driver = ContactStepDriver(
            K, params(), strategy=UpdateStrategy.REPARTITION
        )
        results = driver.run(small_sequence)
        assert all(r.repartitioned for r in results[1:])
