"""Ablation: a-priori (§3 first-class) vs prediction-free partitioning.

When contacting surfaces are predictable, virtual edges between the
predicted pairs pull them into the same partition. The bench prints
the pair-colocation fraction, FEComm, balance and NRemote of the
a-priori partitioner against MCML+DT on a snapshot where the
projectile has engaged the upper plate.
"""

from __future__ import annotations

from repro.core.apriori import AprioriParams, AprioriPartitioner
from repro.core.mcml_dt import MCMLDTParams, MCMLDTPartitioner
from repro.core.weights import build_contact_graph
from repro.graph.metrics import load_imbalance
from repro.metrics.comm import fe_comm
from repro.metrics.report import format_table

from .conftest import show, strong_options

K = 8


def engaged_snapshot(seq):
    for snap in seq:
        if snap.tip_z < 0.1:
            return snap
    return seq[-1]


def test_apriori_vs_mcml_colocation(short_sequence, capsys):
    """Virtual edges must colocate predicted pairs better than the
    prediction-free MCML+DT partition does."""
    snap = engaged_snapshot(short_sequence)
    graph = build_contact_graph(snap)
    ap = AprioriPartitioner(K, AprioriParams(options=strong_options()))
    mc = MCMLDTPartitioner(K, MCMLDTParams(options=strong_options()))
    ap.fit(snap)
    mc.fit(snap)
    pairs = ap.predicted_pairs
    colocated = {
        "a-priori": ap.colocation_fraction(),
        "MCML+DT": float(
            (mc.part[pairs[:, 0]] == mc.part[pairs[:, 1]]).mean()
        ) if len(pairs) else 1.0,
    }
    rows = {
        name: [
            f"{colocated[name]:.2f}", fe_comm(graph, pt.part),
            f"{load_imbalance(graph, pt.part, K).max():.3f}",
            pt.search_plan(snap).n_remote,
        ]
        for name, pt in (("a-priori", ap), ("MCML+DT", mc))
    }
    show(capsys, format_table(
        f"§3 a-priori baseline — k = {K}, step {snap.step}, "
        f"{len(pairs)} predicted pairs",
        ["colocation", "FEComm", "imbalance", "NRemote"], rows,
    ))
    assert colocated["a-priori"] >= colocated["MCML+DT"]
