#!/usr/bin/env python
"""Quickstart: partition a contact/impact simulation with MCML+DT.

Runs a small synthetic projectile-impact scene, fits the paper's
multi-constraint + decision-tree partitioner, and walks through what
it produced: the balanced two-constraint partition, the subdomain
geometric descriptors (Figure 1 of the paper), and a global contact
search filtered through them.

Run:  python examples/quickstart.py
"""

from repro import (
    ImpactConfig,
    MCMLDTParams,
    MCMLDTPartitioner,
    PartitionOptions,
    build_contact_graph,
    simulate_impact,
)
from repro.dtree.descriptors import SubdomainDescriptors
from repro.geometry.bbox import bbox_of_points
from repro.graph.metrics import load_imbalance


def main() -> None:
    k = 4

    print("1. Simulating a projectile striking two plates...")
    seq = simulate_impact(ImpactConfig(n_steps=10, refine=0.8))
    snap = seq[0]
    print(
        f"   mesh: {snap.mesh.num_nodes} nodes, "
        f"{snap.mesh.num_elements} hex elements, "
        f"{snap.num_contact_nodes} contact nodes"
    )

    print(f"\n2. Fitting MCML+DT for k={k} partitions...")
    pt = MCMLDTPartitioner(
        k, MCMLDTParams(options=PartitionOptions(seed=0))
    )
    pt.fit(snap)
    graph = build_contact_graph(snap)
    imb = load_imbalance(graph, pt.part, k)
    print(
        f"   FE-work imbalance      : {imb[0]:.3f}  (target <= 1.05)\n"
        f"   search-work imbalance  : {imb[1]:.3f}\n"
        f"   edge cut               : {pt.diagnostics.edge_cut_final}\n"
        f"   reshaped vertices      : {pt.diagnostics.reshape_moved}"
    )

    print("\n3. Building the subdomain geometric descriptors (Fig. 1)...")
    tree, _ = pt.build_descriptors(snap)
    coords = snap.mesh.nodes[snap.contact_nodes]
    desc = SubdomainDescriptors.from_tree(tree, bbox_of_points(coords))
    print(
        f"   decision tree: {tree.n_nodes} nodes, "
        f"{tree.n_leaves} leaf boxes, depth {tree.depth()}"
    )
    for p in sorted(desc.regions_of):
        print(
            f"   subdomain {p}: {len(desc.regions_of[p])} boxes, "
            f"volume {desc.volume_of(p):.1f}"
        )
    print(
        f"   descriptor overlap volume: "
        f"{desc.total_overlap_volume():.4f}  (always exactly 0)"
    )

    print("\n4. Global contact search through the tree filter...")
    plan = pt.search_plan(snap, tree)
    print(
        f"   {len(snap.contact_faces)} surface elements; "
        f"{plan.n_remote} element-sends to remote partitions (NRemote)"
    )
    recv = plan.per_partition_receive_counts()
    for p in range(k):
        print(f"   partition {p} receives {recv[p]} remote elements")


if __name__ == "__main__":
    main()
