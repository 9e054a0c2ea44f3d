"""Installation self-check.

``repro-contact selfcheck`` (or ``python -m repro.selfcheck``) runs a
miniature end-to-end pipeline — simulate, partition, reshape, induce
descriptors, search in parallel, cross-check against the serial
reference, resolve locally — and reports each stage. A passing
self-check means the installation can reproduce the paper's pipeline;
it takes a few seconds.
"""

from __future__ import annotations

import sys
import time
from typing import Callable, List, Tuple

import numpy as np


def run_selfcheck(verbose: bool = True) -> bool:
    """Run all stages; returns True when everything passes."""
    checks: List[Tuple[str, Callable[[dict], None]]] = []
    state: dict = {}

    def stage(name: str):
        def wrap(fn):
            checks.append((name, fn))
            return fn
        return wrap

    @stage("static invariants (repro-lint) clean")
    def _lint(s):
        from pathlib import Path

        import repro
        from repro.analysis.engine import LintEngine

        diags = LintEngine().lint_paths([Path(repro.__file__).parent])
        if diags:
            preview = "; ".join(d.render() for d in diags[:3])
            raise RuntimeError(
                f"repro-lint found {len(diags)} issue(s): {preview}"
            )

    @stage("simulate impact scene")
    def _sim(s):
        from repro.sim.projectile import ImpactConfig
        from repro.sim.sequence import simulate_impact

        seq = simulate_impact(ImpactConfig(n_steps=6, refine=0.6))
        if seq[0].num_contact_nodes <= 0:
            raise RuntimeError("simulated scene has no contact nodes")
        s["seq"] = seq

    @stage("multi-constraint partition + reshape")
    def _fit(s):
        from repro.core.mcml_dt import MCMLDTParams, MCMLDTPartitioner
        from repro.core.weights import build_contact_graph
        from repro.graph.metrics import load_imbalance
        from repro.partition.config import PartitionOptions

        snap = s["seq"][0]
        pt = MCMLDTPartitioner(
            4, MCMLDTParams(pad=0.2, options=PartitionOptions(seed=0))
        )
        pt.fit(snap)
        g = build_contact_graph(snap)
        imb = load_imbalance(g, pt.part, 4)
        if imb.max() >= 1.6:
            raise RuntimeError(f"partition imbalance too high: {imb}")
        s["pt"] = pt

    @stage("descriptor tree classifies exactly")
    def _tree(s):
        from repro.dtree.query import predict_partition

        snap = s["seq"][0]
        pt = s["pt"]
        tree, _ = pt.build_descriptors(snap)
        coords = snap.mesh.nodes[snap.contact_nodes]
        if not np.array_equal(
            predict_partition(tree, coords),
            pt.part[snap.contact_nodes],
        ):
            raise RuntimeError(
                "descriptor tree misclassifies contact nodes"
            )
        s["tree"] = tree

    @stage("parallel search == serial search")
    def _search(s):
        from repro.core.contact_search import (
            parallel_contact_search,
            serial_candidate_pairs,
        )
        from repro.geometry.bbox import element_bboxes

        snap = s["seq"][5]
        pt = s["pt"]
        plan = pt.search_plan(snap)
        boxes = element_bboxes(snap.mesh.nodes, snap.contact_faces)
        boxes[:, 0] -= 0.2
        boxes[:, 1] += 0.2
        coords = snap.mesh.nodes[snap.contact_nodes]
        serial = serial_candidate_pairs(
            boxes, snap.contact_faces, coords, snap.contact_nodes
        )
        parallel, _ = parallel_contact_search(
            plan, boxes, snap.contact_faces, coords,
            snap.contact_nodes, pt.part[snap.contact_nodes], 4,
        )
        if parallel != serial:
            raise RuntimeError(
                f"search mismatch: {len(parallel)} parallel vs "
                f"{len(serial)} serial candidate pairs"
            )
        s["pairs"] = serial
        s["snap5"] = snap

    @stage("local search resolves gaps")
    def _local(s):
        from repro.core.local_search import resolve_candidates

        snap = s["snap5"]
        res = resolve_candidates(
            snap.mesh.nodes, snap.contact_faces, sorted(s["pairs"])
        )
        if not np.isfinite(res.gap).all():
            raise RuntimeError("local search produced non-finite gaps")

    all_ok = True
    for name, fn in checks:
        t0 = time.time()
        try:
            fn(state)
            status = "ok"
        except Exception as exc:  # pragma: no cover - failure path
            status = f"FAILED: {exc}"
            all_ok = False
        if verbose:
            print(f"  [{status:>6s}] {name} ({time.time() - t0:.1f}s)"
                  if status == "ok"
                  else f"  [FAIL ] {name}: {status}")
        if not all_ok:
            break
    if verbose:
        print(
            "self-check passed — the installation reproduces the "
            "paper's pipeline" if all_ok else "self-check FAILED"
        )
    return all_ok


def main() -> int:
    """CLI entry point."""
    print("repro self-check (miniature end-to-end pipeline):")
    return 0 if run_selfcheck() else 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
