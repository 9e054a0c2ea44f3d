"""Extension (§6): margin-aware splitting hyperplanes.

The paper's future-work idea: prefer hyperplanes through sparsely
populated regions, far from their nearest points, since cuts hugging a
point generate boxes whose faces graze surface elements and cause
false-positive sends. The bench compares plain Eq.-1 trees against
margin-aware trees on NRemote and tree size across margin weights.
"""

from __future__ import annotations

import numpy as np

from repro.core.mcml_dt import MCMLDTParams, MCMLDTPartitioner
from repro.dtree.query import predict_partition
from repro.metrics.report import format_table

from .conftest import show, strong_options

K = 8
MARGIN_WEIGHTS = (0.0, 0.05, 0.2)


def test_margin_weight_sweep(short_sequence, capsys):
    """Margin-aware trees must still classify every contact point into
    its own partition (purity is unaffected by the tie-breaking)."""
    snap = short_sequence[10]
    coords = snap.mesh.nodes[snap.contact_nodes]
    rows = {}
    for margin in MARGIN_WEIGHTS:
        pt = MCMLDTPartitioner(K, MCMLDTParams(
            margin_weight=margin, pad=0.1, options=strong_options()
        ))
        pt.fit(snap)
        tree, _ = pt.build_descriptors(snap)
        rows[f"margin {margin:g}"] = [
            tree.n_nodes, pt.search_plan(snap, tree).n_remote
        ]
        assert np.array_equal(
            predict_partition(tree, coords), pt.part[snap.contact_nodes]
        )
    show(capsys, format_table(
        f"§6 margin-aware splitting — k = {K}, step 10",
        ["NTNodes", "NRemote"], rows,
    ))
