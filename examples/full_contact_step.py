#!/usr/bin/env python
"""A complete contact-detection time step, end to end.

Chains every stage a production contact/impact code runs per iteration:

  1. (once) MCML+DT decomposition of the mesh,
  2. descriptor update — re-induce the search tree on the moved
     contact points,
  3. global search — ship surface elements through the tree filter on
     the simulated parallel machine,
  4. local search — resolve every candidate to a closest-point
     projection and a signed gap,
  5. report — penetration statistics per snapshot.

Watching several snapshots shows the gap closing as the projectile
approaches and first penetrations appearing at impact.

Run:  python examples/full_contact_step.py
"""

from repro import ImpactConfig, simulate_impact
from repro.core.contact_search import parallel_contact_search
from repro.core.local_search import penetration_summary, resolve_candidates
from repro.core.mcml_dt import MCMLDTParams, MCMLDTPartitioner
from repro.geometry.bbox import element_bboxes
from repro.partition.config import PartitionOptions

K = 6
PAD = 0.25  # capture distance for candidate detection


def detection_step(pt, snap):
    """Stages 2-5 for one snapshot. Returns the report dict."""
    tree, _ = pt.build_descriptors(snap)                 # stage 2
    plan = pt.search_plan(snap, tree)                    # stage 3 filter
    boxes = element_bboxes(snap.mesh.nodes, snap.contact_faces)
    boxes[:, 0] -= PAD
    boxes[:, 1] += PAD
    coords = snap.mesh.nodes[snap.contact_nodes]
    pairs, ledger = parallel_contact_search(             # stage 3 exchange
        plan, boxes, snap.contact_faces, coords,
        snap.contact_nodes, pt.part[snap.contact_nodes], K,
    )
    resolution = resolve_candidates(                     # stage 4
        snap.mesh.nodes, snap.contact_faces, sorted(pairs)
    )
    report = penetration_summary(resolution)             # stage 5
    report["nt_nodes"] = tree.n_nodes
    report["n_remote"] = plan.n_remote
    report["exchanged"] = ledger.items("contact-exchange")
    return report


def main() -> None:
    print("Simulating impact scene...")
    seq = simulate_impact(ImpactConfig(n_steps=40))
    snap0 = seq[0]
    print(
        f"  {snap0.mesh.num_nodes} nodes, "
        f"{snap0.num_contact_nodes} contact nodes\n"
    )

    print(f"Stage 1: MCML+DT decomposition (k={K}, once per run)")
    pt = MCMLDTPartitioner(
        K, MCMLDTParams(pad=PAD, options=PartitionOptions(seed=0))
    )
    pt.fit(snap0)
    print(
        f"  imbalance {pt.diagnostics.imbalance_final.round(3).tolist()}\n"
    )

    header = (
        f"{'step':>4} {'tip_z':>7} {'NTNodes':>8} {'NRemote':>8} "
        f"{'candidates':>10} {'penetrating':>11} {'worst gap':>10}"
    )
    print(header)
    print("-" * len(header))
    for step in (0, 5, 10, 14, 18, 22, 26, 30, 35, 39):
        snap = seq[step]
        r = detection_step(pt, snap)
        print(
            f"{step:>4} {snap.tip_z:>7.2f} {r['nt_nodes']:>8.0f} "
            f"{r['n_remote']:>8.0f} {r['candidates']:>10.0f} "
            f"{r['penetrating']:>11.0f} {r['worst_penetration']:>10.3f}"
        )

    print(
        "\nThe candidate count rises as the projectile reaches the plate"
        "\n(tip_z < 0) and the worst signed gap goes negative exactly"
        "\nwhen surfaces start to interpenetrate."
    )


if __name__ == "__main__":
    main()
