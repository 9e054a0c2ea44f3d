"""Ablation: the contact-contact edge weight (§5 set it to 5).

Cutting an edge between two contact points costs communication in both
computation phases, so the paper up-weights those edges. The sweep
prints, per weight: how many contact-contact edges the partition cuts
(should fall as the weight rises), the FE communication volume (should
rise — the partitioner sacrifices ordinary edges), and NRemote.
"""

from __future__ import annotations

import numpy as np

from repro.core.mcml_dt import MCMLDTParams, MCMLDTPartitioner
from repro.core.weights import build_contact_graph
from repro.metrics.comm import fe_comm
from repro.metrics.report import format_table

from .conftest import show, strong_options

K = 8
WEIGHTS = (1, 5, 10)


def cut_contact_edges(graph, snap, part):
    """Number of contact-contact edges cut by ``part``."""
    n = graph.num_vertices
    is_contact = np.zeros(n, dtype=bool)
    is_contact[snap.contact_nodes] = True
    src = np.repeat(np.arange(n), graph.degrees())
    both = is_contact[src] & is_contact[graph.adjncy]
    cut = part[src] != part[graph.adjncy]
    return int((both & cut).sum() // 2)


def test_edgeweight_sweep(short_sequence, capsys):
    """Weight 5 must cut fewer contact-contact edges than weight 1 in
    the multi-constraint partition itself (the mechanism the paper
    relies on). Asserted pre-reshape: the P→P'→P'' step optimises
    geometry, not the weighted cut, and can give some of the protection
    back — both values are printed."""
    snap = short_sequence[0]

    def fit(weight, reshape):
        pt = MCMLDTPartitioner(K, MCMLDTParams(
            contact_edge_weight=weight, reshape=reshape,
            options=strong_options(),
        ))
        pt.fit(snap)
        return pt

    rows, raw_cut = {}, {}
    for weight in WEIGHTS:
        graph = build_contact_graph(snap, weight)
        pt = fit(weight, reshape=True)
        raw_cut[weight] = cut_contact_edges(
            graph, snap, fit(weight, reshape=False).part)
        rows[f"weight {weight}"] = [
            cut_contact_edges(graph, snap, pt.part),
            raw_cut[weight],
            fe_comm(graph, pt.part),
            pt.search_plan(snap).n_remote,
        ]
    show(capsys, format_table(
        f"§5 contact-edge weight — k = {K}, step 0",
        ["cut contact edges", "pre-reshape", "FEComm", "NRemote"], rows,
    ))
    assert raw_cut[5] <= raw_cut[1]
