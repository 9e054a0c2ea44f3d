#!/usr/bin/env python
"""The paper's evaluation (§5): projectile penetrating two plates.

Regenerates Table 1 — MCML+DT vs ML+RCB averaged over the snapshot
sequence — plus the Figure-3 stage statistics, at a configurable scale.

Run:
  python examples/projectile_impact.py                  # quick (k=4,8)
  python examples/projectile_impact.py --full           # paper-scale
  python examples/projectile_impact.py --stages         # Figure 3 only
"""

import argparse

import numpy as np

from repro import ImpactConfig, simulate_impact, table1
from repro.core.mcml_dt import MCMLDTParams
from repro.core.ml_rcb import MLRCBParams
from repro.metrics.report import format_table
from repro.partition.config import PartitionOptions


def stages_table(seq) -> str:
    rows = {}
    step_stride = max(1, len(seq) // 10)
    for s in seq:
        if s.step % step_stride == 0 or s.step == len(seq) - 1:
            rows[f"step {s.step:3d}"] = [
                round(s.tip_z, 2),
                s.mesh.num_elements,
                s.num_contact_faces,
                s.num_contact_nodes,
            ]
    return format_table(
        "Figure 3 (reproduction) — simulation stages",
        ["tip_z", "live elements", "contact faces", "contact nodes"],
        rows,
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--full", action="store_true",
        help="paper-scale mesh and k=(8, 25); takes several minutes",
    )
    parser.add_argument(
        "--epic", action="store_true",
        help="EPIC-size mesh (~155k nodes) and k=(25, 100); the whole "
        "Table 1 takes a few minutes",
    )
    parser.add_argument("--steps", type=int, default=None)
    parser.add_argument("--stages", action="store_true",
                        help="print only the Figure-3 stage table")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    if args.epic:
        config = ImpactConfig.epic_scale(n_steps=args.steps or 100)
        ks = (25, 100)
        options = PartitionOptions(
            seed=args.seed, n_init_trials=12, fm_passes=10,
            kway_passes=16, fm_neg_moves=120,
        )
    elif args.full:
        config = ImpactConfig.paper_scale(n_steps=args.steps or 100)
        ks = (8, 25)
        options = PartitionOptions(
            seed=args.seed, n_init_trials=12, fm_passes=10,
            kway_passes=16, fm_neg_moves=120,
        )
    else:
        config = ImpactConfig(n_steps=args.steps or 20)
        ks = (4, 8)
        options = PartitionOptions(seed=args.seed)

    print(
        f"Simulating {config.n_steps} snapshots "
        f"(refine={config.refine}, plates {config.plate_nxy}^2 x "
        f"{config.plate_nz})..."
    )
    seq = simulate_impact(config)
    snap = seq[0]
    print(
        f"Mesh: {snap.mesh.num_nodes} nodes, "
        f"{snap.mesh.num_elements} elements, "
        f"{snap.num_contact_nodes} contact nodes "
        f"({100 * snap.num_contact_nodes / snap.mesh.num_nodes:.0f}%)\n"
    )

    print(stages_table(seq))
    if args.stages:
        return

    print(f"\nEvaluating MCML+DT and ML+RCB at k={ks} "
          f"(this runs both algorithms over every snapshot)...")
    table = table1(
        seq,
        ks=ks,
        mcml_params=MCMLDTParams(options=options),
        ml_params=MLRCBParams(options=options),
    )
    print()
    print(table.render())
    print(
        "\nReading the table (paper §5.2): ML+RCB wins on raw FEComm\n"
        "but pays the mesh-to-mesh transfer twice per iteration. The\n"
        "paper reports ML+RCB's FE-side total (FEComm + 2*M2MComm)\n"
        "+72 % / +29 % above MCML+DT's at k = 25 / 100; at --epic scale\n"
        "this reproduction measures +1.7 % / -5.3 %, because its\n"
        "two-constraint cut costs more FEComm than the paper's (see\n"
        "ROADMAP.md). NTNodes and UpdComm are small next to the other\n"
        "overheads."
    )


if __name__ == "__main__":
    main()
