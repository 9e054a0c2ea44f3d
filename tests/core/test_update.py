"""Tests for the §4.3 update strategies."""

import numpy as np
import pytest

from repro.core.driver import ContactStepDriver
from repro.core.mcml_dt import MCMLDTParams
from repro.core.update import (
    ReplayResult,
    UpdateStrategy,
    repartition_due,
    replay_sequence,
)
from repro.obs.tracer import Tracer
from repro.partition.config import PartitionOptions

K = 4


def params():
    return MCMLDTParams(options=PartitionOptions(seed=0))


class TestReplaySequence:
    def test_descriptor_only_never_moves_vertices(self, small_sequence):
        r = replay_sequence(
            small_sequence, K, UpdateStrategy.DESCRIPTOR_ONLY,
            params=params(),
        )
        assert r.total_moved() == 0
        assert len(r.steps) == len(small_sequence)

    def test_repartition_moves_when_drift(self, small_sequence):
        r = replay_sequence(
            small_sequence, K, UpdateStrategy.REPARTITION, params=params()
        )
        # moves may be zero if the scene barely drifts, but the field
        # must be populated per step and non-negative
        assert all(s.n_moved >= 0 for s in r.steps)
        assert r.steps[0].n_moved == 0  # never repartition the first step

    def test_hybrid_moves_only_on_period(self, small_sequence):
        r = replay_sequence(
            small_sequence, K, UpdateStrategy.HYBRID, period=5,
            params=params(),
        )
        # the fifth step after the fit / the last repartition: 4, 9
        for s in r.steps:
            if (s.step + 1) % 5 != 0:
                assert s.n_moved == 0

    def test_trees_track_every_step(self, small_sequence):
        r = replay_sequence(
            small_sequence, K, UpdateStrategy.DESCRIPTOR_ONLY,
            params=params(),
        )
        assert all(s.nt_nodes >= 1 for s in r.steps)

    def test_repartition_keeps_balance_tighter(self, small_sequence):
        """Repartitioning bounds imbalance drift at least as well as
        never repartitioning."""
        fixed = replay_sequence(
            small_sequence, K, UpdateStrategy.DESCRIPTOR_ONLY,
            params=params(),
        )
        repart = replay_sequence(
            small_sequence, K, UpdateStrategy.REPARTITION, params=params()
        )
        assert repart.max_imbalance() <= fixed.max_imbalance() + 0.05

    def test_invalid_period(self, small_sequence):
        with pytest.raises(ValueError, match="period"):
            replay_sequence(
                small_sequence, K, UpdateStrategy.HYBRID, period=0
            )


class TestOneSchedule:
    """The §4.3 policy is one predicate; the driver and the replay used
    to carry their own and disagreed by one step under HYBRID."""

    def test_predicate(self):
        hybrid = UpdateStrategy.HYBRID
        assert not repartition_due(hybrid, 9, 10)
        assert repartition_due(hybrid, 10, 10)
        assert repartition_due(UpdateStrategy.REPARTITION, 1, 10)
        assert not repartition_due(UpdateStrategy.DESCRIPTOR_ONLY, 99, 10)

    @pytest.mark.parametrize("strategy", list(UpdateStrategy))
    def test_replay_follows_the_driver(self, mid_sequence, strategy):
        driver = ContactStepDriver(
            K, params(), strategy=strategy, repartition_period=10,
            resolve_local=False, backend="serial",
        )
        steps = driver.run(mid_sequence)
        tracer = Tracer()
        replay = replay_sequence(
            mid_sequence, K, strategy, period=10, params=params(),
            tracer=tracer,
        )
        repartitioned = [r.step for r in steps if r.repartitioned]
        expected = {
            UpdateStrategy.DESCRIPTOR_ONLY: [],
            UpdateStrategy.REPARTITION: list(range(1, len(mid_sequence))),
            UpdateStrategy.HYBRID: [9, 19, 29],
        }[strategy]
        assert repartitioned == expected
        span = tracer.finish().find("repartition")
        assert (span.n_calls if span else 0) == len(expected)
        assert [s.n_moved for s in replay.steps] == [
            r.n_moved for r in steps
        ]
        assert [s.nt_nodes for s in replay.steps] == [
            r.nt_nodes for r in steps
        ]
        if strategy is UpdateStrategy.HYBRID:
            assert sum(r.n_moved for r in steps) > 0


class TestReplayResult:
    def test_aggregates(self):
        from repro.core.update import ReplayStep

        r = ReplayResult(strategy=UpdateStrategy.HYBRID, k=2)
        r.steps = [
            ReplayStep(0, nt_nodes=10, imbalance_fe=1.1,
                       imbalance_search=1.0, n_moved=0),
            ReplayStep(1, nt_nodes=20, imbalance_fe=1.0,
                       imbalance_search=1.3, n_moved=5),
        ]
        assert r.mean_nt_nodes() == 15.0
        assert r.max_imbalance() == 1.3
        assert r.total_moved() == 5
