#!/usr/bin/env python
"""2D punch-through-two-bars, with the decomposition drawn in the
terminal.

The paper's machinery is dimension-generic; this example runs the whole
MCML+DT pipeline on a 2D quad-mesh scene and *shows* the result — the
contact points coloured by partition and the axis-parallel descriptor
rectangles around them — at three stages of the punch's travel.

Run:  python examples/punch_2d.py
"""

from repro.core.mcml_dt import MCMLDTParams, MCMLDTPartitioner
from repro.dtree.render import render_descriptors
from repro.partition.config import PartitionOptions
from repro.sim.impact2d import Impact2DConfig, simulate_impact_2d

K = 4


def main() -> None:
    print("Simulating the 2D punch scene...")
    seq = simulate_impact_2d(Impact2DConfig(n_steps=60))
    snap0 = seq[0]
    print(
        f"  {snap0.mesh.num_nodes} nodes, {snap0.mesh.num_elements} "
        f"quads, {snap0.num_contact_nodes} contact nodes\n"
    )

    pt = MCMLDTPartitioner(
        K, MCMLDTParams(options=PartitionOptions(seed=0))
    )
    pt.fit(snap0)
    print(
        f"MCML+DT k={K}: imbalance "
        f"{pt.diagnostics.imbalance_final.round(3).tolist()}"
    )

    for step in (0, 30, 59):
        snap = seq[step]
        tree, _ = pt.build_descriptors(snap)
        plan = pt.search_plan(snap, tree)
        coords = snap.mesh.nodes[snap.contact_nodes]
        labels = pt.part[snap.contact_nodes]
        print(
            f"\n--- step {step}: punch tip y = {snap.tip_z:+.2f}, "
            f"NTNodes = {tree.n_nodes}, NRemote = {plan.n_remote} ---"
        )
        print(render_descriptors(tree, coords, labels,
                                 width=72, height=20))


if __name__ == "__main__":
    main()
