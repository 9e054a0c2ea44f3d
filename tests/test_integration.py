"""Cross-subsystem integration and property tests.

These tie the whole pipeline together: random scene/parameter draws
must always yield valid partitions, exact descriptor classification,
self-send-free search plans, and a communication ledger that conserves
items. Failures here localise to interface contracts rather than any
single module.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.contact_search import parallel_contact_search
from repro.core.mcml_dt import MCMLDTParams, MCMLDTPartitioner
from repro.core.weights import build_contact_graph
from repro.dtree.query import predict_partition
from repro.geometry.bbox import element_bboxes
from repro.graph.metrics import load_imbalance
from repro.partition.config import PartitionOptions
from repro.sim.projectile import ImpactConfig
from repro.sim.sequence import simulate_impact


@settings(max_examples=6, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    k=st.integers(2, 6),
    step=st.integers(0, 7),
)
def test_property_pipeline_contracts(seed, k, step):
    """For arbitrary (seed, k, snapshot): the fitted partition is a
    valid labelling balanced within a generous bound, the descriptor
    tree classifies the contact points exactly, and the plan never
    self-sends."""
    seq = simulate_impact(ImpactConfig(n_steps=8, refine=0.5))
    snap = seq[step]
    pt = MCMLDTPartitioner(
        k, MCMLDTParams(options=PartitionOptions(seed=seed))
    )
    result = pt.fit(snap)

    # partition contract
    assert result.labels is pt.part
    assert len(pt.part) == snap.mesh.num_nodes
    assert pt.part.min() >= 0 and pt.part.max() < k
    g = build_contact_graph(snap)
    assert load_imbalance(g, pt.part, k).max() <= 1.6

    # descriptor contract: exact classification
    tree, _ = pt.build_descriptors(snap)
    coords = snap.mesh.nodes[snap.contact_nodes]
    assert np.array_equal(
        predict_partition(tree, coords), pt.part[snap.contact_nodes]
    )

    # search-plan contract: no self sends
    plan = pt.search_plan(snap, tree)
    owners = plan.owner
    assert not plan.send_matrix[np.arange(len(owners)), owners].any()


class TestLedgerConservation:
    def test_parallel_search_conserves_items(self, small_sequence):
        """Every item sent is received: per-phase totals match across
        the rank ledgers."""
        snap = small_sequence[6]
        k = 4
        pt = MCMLDTPartitioner(
            k, MCMLDTParams(pad=0.2, options=PartitionOptions(seed=0))
        )
        pt.fit(snap)
        plan = pt.search_plan(snap)
        boxes = element_bboxes(snap.mesh.nodes, snap.contact_faces)
        boxes[:, 0] -= 0.2
        boxes[:, 1] += 0.2
        coords = snap.mesh.nodes[snap.contact_nodes]
        _, ledger = parallel_contact_search(
            plan, boxes, snap.contact_faces, coords,
            snap.contact_nodes, pt.part[snap.contact_nodes], k,
        )
        sent = sum(
            ledger.sent_by_rank[("contact-exchange", r)] for r in range(k)
        )
        recv = sum(
            ledger.received_by_rank[("contact-exchange", r)]
            for r in range(k)
        )
        assert sent == recv == ledger.items("contact-exchange")


class TestDeterminism:
    def test_full_evaluation_deterministic(self):
        """Identical seeds ⇒ identical metrics, end to end."""
        from repro.core.pipeline import evaluate_mcml_dt

        def run():
            seq = simulate_impact(ImpactConfig(n_steps=4, refine=0.5))
            res = evaluate_mcml_dt(
                seq, 3,
                MCMLDTParams(options=PartitionOptions(seed=7)),
            )
            return [
                (s.fe_comm, s.nt_nodes, s.n_remote) for s in res.steps
            ]

        assert run() == run()


class TestDriver2D:
    def test_driver_runs_on_2d_scene(self):
        """The production driver is dimension-agnostic."""
        from repro.core.driver import ContactStepDriver
        from repro.sim.impact2d import Impact2DConfig, simulate_impact_2d

        seq = simulate_impact_2d(Impact2DConfig(n_steps=8))
        driver = ContactStepDriver(
            3, MCMLDTParams(pad=0.2, options=PartitionOptions(seed=0))
        )
        results = driver.run(seq)
        assert len(results) == 8
        assert all(r.nt_nodes >= 1 for r in results)
        touched = [r for r in results if r.n_candidates]
        for r in touched:
            assert np.isfinite(r.resolution.gap).all()
