"""Tests for the sequence-evaluation pipeline (Table-1 engine)."""

import numpy as np
import pytest

from repro.core.mcml_dt import MCMLDTParams
from repro.core.ml_rcb import MLRCBParams
from repro.core.pipeline import (
    SequenceResult,
    StepMetrics,
    Table1,
    evaluate_mcml_dt,
    evaluate_ml_rcb,
    table1,
)
from repro.partition.config import PartitionOptions
from repro.sim.projectile import ImpactConfig
from repro.sim.sequence import simulate_impact
from tests.core import reference_sequence

K = 4


@pytest.fixture(scope="module")
def results(small_sequence):
    mc = evaluate_mcml_dt(
        small_sequence, K, MCMLDTParams(options=PartitionOptions(seed=0))
    )
    ml = evaluate_ml_rcb(
        small_sequence, K, MLRCBParams(options=PartitionOptions(seed=0))
    )
    return mc, ml


class TestEvaluateMcmlDt:
    def test_one_step_per_snapshot(self, results, small_sequence):
        mc, _ = results
        assert len(mc.steps) == len(small_sequence)
        assert [s.step for s in mc.steps] == list(range(len(small_sequence)))

    def test_metrics_populated(self, results):
        mc, _ = results
        assert mc.mean("fe_comm") > 0
        assert mc.mean("nt_nodes") >= 1
        assert mc.mean("n_remote") >= 0
        # MCML+DT has no mesh-to-mesh or RCB update costs
        assert mc.mean("m2m_comm") == 0
        assert mc.mean("upd_comm") == 0

    def test_balanced_throughout(self, results):
        mc, _ = results
        for s in mc.steps:
            assert s.imbalance_fe <= 1.30
            assert s.imbalance_search <= 1.40


class TestEvaluateMlRcb:
    def test_metrics_populated(self, results):
        _, ml = results
        assert ml.mean("fe_comm") > 0
        assert ml.mean("m2m_comm") > 0
        assert ml.mean("nt_nodes") == 0  # no decision tree in ML+RCB
        assert ml.steps[0].upd_comm == 0  # first step has no update

    def test_fe_comm_lower_than_mcml(self, results):
        """The paper's trade-off: single-constraint partitioning gives
        ML+RCB the lower raw FEComm..."""
        mc, ml = results
        assert ml.mean("fe_comm") <= mc.mean("fe_comm")

    def test_but_total_fe_side_cost_higher(self, results):
        """...while 2×M2MComm pushes its total FE-side communication
        above MCML+DT's (the paper's headline claim)."""
        mc, ml = results
        assert ml.total_fe_side_comm() > mc.total_fe_side_comm() * 0.8
        # strict inequality is scene-dependent at tiny scale; the
        # benchmark asserts it at evaluation scale


def test_ml_rcb_matches_the_from_scratch_loop(mid_sequence):
    """The carried contact graph measures what a graph built from
    scratch every step measured, through erosion."""
    params = MLRCBParams(options=PartitionOptions(seed=0))
    new = evaluate_ml_rcb(mid_sequence, K, params)
    old = reference_sequence.evaluate_ml_rcb(mid_sequence, K, params)
    assert new.steps == old.steps


class TestTable1:
    def test_renders_all_rows(self, small_sequence):
        t = table1(
            small_sequence, ks=(2, 4),
            mcml_params=MCMLDTParams(options=PartitionOptions(seed=0)),
            ml_params=MLRCBParams(options=PartitionOptions(seed=0)),
        )
        out = t.render()
        for row in (
            "2-way MCML+DT", "2-way ML+RCB",
            "4-way MCML+DT", "4-way ML+RCB",
        ):
            assert row in out
        assert "FE-side total" in out and "w1 imb mean" in out
        assert list(t.results) == [
            ("MCML+DT", 2), ("ML+RCB", 2), ("MCML+DT", 4), ("ML+RCB", 4),
        ]


def _run(algorithm, k, **means):
    """A one-step SequenceResult whose means are ``means``."""
    return SequenceResult(
        algorithm=algorithm, k=k, steps=[StepMetrics(step=0, **means)]
    )


def _hand_table(ml_m2m):
    """One k = 8 pair: MCML+DT FEComm 1000; ML+RCB FEComm 600, so its
    FE-side total is 600 + 2 × ``ml_m2m``."""
    return Table1({
        ("MCML+DT", 8): _run(
            "MCML+DT", 8, fe_comm=1000, nt_nodes=50, n_remote=200,
            imbalance_fe=1.04, imbalance_search=1.2,
        ),
        ("ML+RCB", 8): _run(
            "ML+RCB", 8, fe_comm=600, n_remote=100, m2m_comm=ml_m2m,
            upd_comm=10, imbalance_fe=1.05,
        ),
    })


class TestClaims:
    def test_all_held(self):
        claims = _hand_table(ml_m2m=300).claims()
        assert len(claims) == 4  # one k: no trend claim
        assert all(c.held for c in claims)
        fe_side = claims[1]
        assert "FE-side total" in fe_side.text
        assert fe_side.margin == pytest.approx(0.2)  # 1200 vs 1000
        assert "held" in str(fe_side) and "+20.0%" in str(fe_side)

    def test_total_not_above_is_not_held(self):
        """ML+RCB's FE-side total equal to MCML+DT's (600 + 2 × 200 =
        1000): the headline claim is not held, at margin 0."""
        claims = _hand_table(ml_m2m=200).claims()
        verdicts = {c.text: c.held for c in claims}
        assert verdicts == {
            "8-way raw FEComm: ML+RCB <= 1.10 x MCML+DT": True,
            "8-way FE-side total: ML+RCB > MCML+DT": False,
            "8-way NRemote: MCML+DT <= 2.5 x max(ML+RCB, 1)": True,
            "8-way NTNodes < FEComm and UpdComm < FEComm": True,
        }
        assert claims[1].margin == 0.0
        assert "NOT HELD" in str(claims[1])

    def test_trend_claim_over_several_k(self):
        t = _hand_table(ml_m2m=300)
        wide = _hand_table(ml_m2m=400)  # ratio 1.40 > 1.20 × 1.10
        t.results.update({
            (alg, 16): SequenceResult(alg, 16, r.steps)
            for (alg, _), r in wide.results.items()
        })
        trend = t.claims()[-1]
        assert "non-increasing" in trend.text
        assert not trend.held
        assert trend.margin == pytest.approx(1 - 1.40 / (1.20 * 1.10))

    def test_render_imbalance_columns(self):
        out = _hand_table(ml_m2m=300).render()
        assert "averages over 1 snapshots" in out
        assert "1.040" in out and "1.200" in out and "1.050" in out


@pytest.fixture(scope="module")
def claims_scene():
    return simulate_impact(ImpactConfig(n_steps=10))


@pytest.mark.parametrize(
    "seed, fe_side_margins", [(0, (0.042, 0.006)), (1, (0.235, 0.076))]
)
def test_claims_pinned_on_two_seeds(claims_scene, seed, fe_side_margins):
    """§5.2 verdicts on a scene that runs in about two seconds per seed
    (strong options, k = 4 and 8). Every claim holds today; the 8-way
    headline margin at seed 0 is +0.6 %, so a change that costs
    MCML+DT a little FE-side communication flips this test."""
    strong = PartitionOptions.strong(seed)
    claims = table1(
        claims_scene, ks=(4, 8),
        mcml_params=MCMLDTParams(options=strong),
        ml_params=MLRCBParams(options=strong),
    ).claims()
    assert [c.held for c in claims] == [True] * 9
    fe_side = [c.margin for c in claims if "FE-side total" in c.text]
    assert fe_side == pytest.approx(fe_side_margins, abs=0.001)


class TestSequenceResult:
    def test_mean(self):
        r = SequenceResult(algorithm="x", k=2)
        r.steps = [
            StepMetrics(step=0, fe_comm=10, m2m_comm=2),
            StepMetrics(step=1, fe_comm=30, m2m_comm=4),
        ]
        assert r.mean("fe_comm") == 20.0
        assert r.total_fe_side_comm() == 20.0 + 2 * 3.0

    def test_csv_roundtrip(self, tmp_path):
        r = SequenceResult(algorithm="x", k=2)
        r.steps = [
            StepMetrics(step=0, fe_comm=10, nt_nodes=5),
            StepMetrics(step=1, fe_comm=30, nt_nodes=7),
        ]
        text = r.to_csv()
        lines = text.strip().splitlines()
        assert lines[0].startswith("step,fe_comm")
        assert len(lines) == 3
        assert lines[1].split(",")[1] == "10"
        path = tmp_path / "metrics.csv"
        r.save_csv(path)
        assert path.read_text() == text
