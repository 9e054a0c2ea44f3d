"""Ablation: sensitivity to the reshaping bounds max_p / max_i (§4.2).

The paper recommends ``n/k^1.5 <= max_p <= n/k`` and
``n/k^2.5 <= max_i <= n/k²``, arguing small values make post-refinement
easy (good cut/balance, bigger trees) while large values strand weight
in immovable regions (balance violations, worse cut). The bench sweeps
inside and outside those windows and prints cut, balance, and
descriptor-tree size per setting.
"""

from __future__ import annotations

from repro.core.mcml_dt import MCMLDTParams, MCMLDTPartitioner
from repro.core.weights import build_contact_graph
from repro.graph.metrics import load_imbalance
from repro.metrics.comm import fe_comm
from repro.metrics.report import format_table

from .conftest import show, strong_options

K = 8

# positions within (and beyond) the paper's windows, as exponents e in
# max_p = n/k^e: the window is e in [1, 1.5]; 0.5 is out-of-range high
SETTINGS = {
    "window low (n/k^1.5, n/k^2.5)": (1.5, 2.5),
    "window mid (n/k^1.25, n/k^2.25)": (1.25, 2.25),
    "window high (n/k, n/k^2)": (1.0, 2.0),
    "too high (n/k^0.5, n/k^1.5)": (0.5, 1.5),
}


def test_maxpi_sensitivity(short_sequence, capsys):
    """The paper's claim: bounds above the window hurt balance (heavy
    immovable regions)."""
    snap = short_sequence[0]
    n = len(snap.mesh.used_nodes())
    graph = build_contact_graph(snap)
    rows, worst = {}, {}
    for setting, (ep, ei) in SETTINGS.items():
        max_p, max_i = max(1, int(n / K**ep)), max(1, int(n / K**ei))
        pt = MCMLDTPartitioner(K, MCMLDTParams(
            max_p=max_p, max_i=max_i, options=strong_options()
        ))
        pt.fit(snap)
        imb = load_imbalance(graph, pt.part, K)
        worst[ep] = imb.max()
        rows[setting] = [
            max_p, max_i, fe_comm(graph, pt.part),
            f"{imb[0]:.3f}, {imb[1]:.3f}",
            pt.diagnostics.reshape_tree_nodes,
            pt.build_descriptors(snap)[0].n_nodes,
        ]
    show(capsys, format_table(
        f"§4.2 max_p / max_i — k = {K}, n = {n:,} used nodes",
        ["max_p", "max_i", "FEComm", "imbalance (FE, search)",
         "reshape tree", "descriptor tree"], rows,
    ))
    assert worst[1.25] <= worst[0.5] + 0.02  # window mid vs too high
