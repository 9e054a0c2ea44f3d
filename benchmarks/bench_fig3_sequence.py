"""Figure 3: stages of the penetration simulation.

The paper's Figure 3 shows mesh snapshots at several stages. The
synthetic analogue is characterised by its per-snapshot statistics:
projectile nose depth, live element count (erosion), and contact
face/node counts (the contact surface grows as the channel opens).
The bench asserts the arc and prints the stage table.
"""

from __future__ import annotations

import numpy as np

from repro.metrics.report import format_table

from .conftest import show


def test_fig3_stage_progression(bench_sequence, capsys):
    """Verify the penetration arc and print the stage table."""
    seq = bench_sequence

    tips = np.array([s.tip_z for s in seq])
    elems = np.array([s.mesh.num_elements for s in seq])
    cnodes = np.array([s.num_contact_nodes for s in seq])

    # monotone descent, monotone erosion
    assert (np.diff(tips) < 0).all()
    assert (np.diff(elems) <= 0).all()
    # the projectile actually penetrates: elements were eroded
    assert elems[-1] < elems[0]
    # the contact surface grows while the channel opens
    assert cnodes.max() > cnodes[0]
    # the nose traverses both plates during the run
    assert tips[0] > 0.0
    assert tips[-1] < -2.0

    rows = {}
    for s in seq:
        if s.step % 10 == 0 or s.step == len(seq) - 1:
            rows[f"step {s.step:3d}"] = [
                round(s.tip_z, 2), s.mesh.num_elements,
                s.num_contact_faces, s.num_contact_nodes,
            ]
    show(capsys, format_table(
        "Figure 3 (reproduction) — simulation stages",
        ["tip_z", "live elements", "contact faces", "contact nodes"],
        rows,
    ))
