"""Tests for the §4.3 update strategies."""

import pytest

from repro.core.mcml_dt import MCMLDTParams
from repro.core.pipeline import evaluate_mcml_dt
from repro.core.update import UpdateStrategy, repartition_due
from repro.obs.tracer import Tracer
from repro.partition.config import PartitionOptions
from tests.core import reference_sequence as ref

K = 4


def params():
    return MCMLDTParams(options=PartitionOptions(seed=0))


def columns(steps, names):
    return [[getattr(s, n) for n in names] for s in steps]


def worst_imbalance(result):
    return max(max(s.imbalance_fe, s.imbalance_search) for s in result.steps)


class TestReplaySequence:
    """A sequence replayed through ``evaluate_mcml_dt`` under each
    strategy."""

    def test_descriptor_only_never_moves_vertices(self, small_sequence):
        r = evaluate_mcml_dt(small_sequence, K, params())
        assert sum(s.n_moved for s in r.steps) == 0
        assert len(r.steps) == len(small_sequence)

    def test_repartition_moves_when_drift(self, small_sequence):
        r = evaluate_mcml_dt(
            small_sequence, K, params(),
            strategy=UpdateStrategy.REPARTITION,
        )
        # moves may be zero if the scene barely drifts, but the field
        # must be populated per step and non-negative
        assert all(s.n_moved >= 0 for s in r.steps)
        assert r.steps[0].n_moved == 0  # never repartition the first step

    def test_hybrid_moves_only_on_period(self, small_sequence):
        r = evaluate_mcml_dt(
            small_sequence, K, params(),
            strategy=UpdateStrategy.HYBRID, period=5,
        )
        # the fifth step after the fit / the last repartition: 4, 9
        for s in r.steps:
            if (s.step + 1) % 5 != 0:
                assert s.n_moved == 0

    def test_trees_track_every_step(self, small_sequence):
        r = evaluate_mcml_dt(small_sequence, K, params())
        assert all(s.nt_nodes >= 1 for s in r.steps)

    def test_repartition_keeps_balance_tighter(self, small_sequence):
        """Repartitioning bounds imbalance drift at least as well as
        never repartitioning."""
        fixed = evaluate_mcml_dt(small_sequence, K, params())
        repart = evaluate_mcml_dt(
            small_sequence, K, params(),
            strategy=UpdateStrategy.REPARTITION,
        )
        assert worst_imbalance(repart) <= worst_imbalance(fixed) + 0.05

    def test_invalid_period(self, small_sequence):
        with pytest.raises(ValueError, match="repartition_period"):
            evaluate_mcml_dt(
                small_sequence, K, strategy=UpdateStrategy.HYBRID, period=0
            )


class TestOneSchedule:
    """The §4.3 policy is one predicate applied by one loop, the
    driver's. The two loops it replaced — Table 1's fixed-partition
    evaluation and the update-strategy replay, which once repartitioned
    one step later than the driver — survive verbatim in
    ``reference_sequence`` as oracles."""

    def test_predicate(self):
        hybrid = UpdateStrategy.HYBRID
        assert not repartition_due(hybrid, 9, 10)
        assert repartition_due(hybrid, 10, 10)
        assert repartition_due(UpdateStrategy.REPARTITION, 1, 10)
        assert not repartition_due(UpdateStrategy.DESCRIPTOR_ONLY, 99, 10)

    @pytest.mark.parametrize("strategy", list(UpdateStrategy))
    def test_replay_follows_the_driver(self, mid_sequence, strategy):
        tracer = Tracer()
        new = evaluate_mcml_dt(
            mid_sequence, K, params(), tracer,
            strategy=strategy, period=10,
        ).steps
        replay = ref.replay_sequence(
            mid_sequence, K, strategy, period=10, params=params()
        ).steps
        expected = {
            UpdateStrategy.DESCRIPTOR_ONLY: [],
            UpdateStrategy.REPARTITION: list(range(1, len(mid_sequence))),
            UpdateStrategy.HYBRID: [9, 19, 29],
        }[strategy]
        span = tracer.finish().find("step/repartition")
        assert (span.n_calls if span else 0) == len(expected)
        assert {s.step for s in new if s.n_moved} <= set(expected)
        if strategy is UpdateStrategy.HYBRID:
            assert sum(s.n_moved for s in new) > 0

        both = ("step", "nt_nodes", "imbalance_fe", "imbalance_search")
        assert columns(new, both + ("n_moved",)) == columns(
            replay, both + ("n_moved",))
        if strategy is UpdateStrategy.DESCRIPTOR_ONLY:
            # the old Table 1 loop knew only the fixed partition
            old = ref.evaluate_mcml_dt(mid_sequence, K, params()).steps
            assert columns(new, both + ("fe_comm", "n_remote")) == columns(
                old, both + ("fe_comm", "n_remote"))
