#!/usr/bin/env python
"""Tour of the substrates as standalone tools.

The paper's pipeline is built from parts that are useful on their own:
a multilevel (multi-constraint) graph partitioner, a recursive
coordinate bisection with incremental updates, and a decision-tree
inducer over labelled point sets. This example exercises each directly.

Run:  python examples/partitioner_tour.py
"""

import numpy as np

from repro.dtree import induce_pure_tree
from repro.dtree.query import predict_partition
from repro.geometry.rcb import rcb_partition
from repro.graph import grid_graph
from repro.graph.build import grid_coords
from repro.graph.metrics import edge_cut, load_imbalance, total_comm_volume
from repro.partition import PartitionOptions, partition_kway
from repro.partition.repartition import diffusion_repartition


def tour_graph_partitioner() -> None:
    print("1. Multilevel graph partitioner")
    g = grid_graph(40, 40)
    for k in (4, 8, 16):
        part = partition_kway(g, k, PartitionOptions(seed=0))
        print(
            f"   40x40 grid, k={k:2d}: cut {edge_cut(g, part):4d}, "
            f"comm volume {total_comm_volume(g, part):4d}, "
            f"imbalance {load_imbalance(g, part, k).max():.3f}"
        )

    # multi-constraint: balance total work AND a sparse secondary load
    vw = np.ones((1600, 2), dtype=np.int64)
    vw[:, 1] = (np.arange(1600) % 11 == 0).astype(np.int64)
    g2 = g.with_vwgts(vw)
    part = partition_kway(g2, 8, PartitionOptions(seed=0))
    imb = load_imbalance(g2, part, 8)
    print(
        f"   two constraints, k=8: imbalance "
        f"(work={imb[0]:.3f}, secondary={imb[1]:.3f})"
    )


def tour_repartitioner() -> None:
    print("\n2. Diffusion repartitioning (adaptive load change)")
    g = grid_graph(30, 30)
    part = partition_kway(g, 6, PartitionOptions(seed=0))
    # a hot region triples its cost
    vw = np.ones((900, 1), dtype=np.int64)
    vw[:150, 0] = 3
    g_hot = g.with_vwgts(vw)
    before = load_imbalance(g_hot, part, 6).max()
    res = diffusion_repartition(g_hot, part, 6, PartitionOptions(seed=0))
    after = load_imbalance(g_hot, res.part, 6).max()
    print(
        f"   imbalance {before:.2f} -> {after:.2f} by moving "
        f"{res.n_moved}/900 vertices"
    )


def tour_rcb() -> None:
    print("\n3. Recursive coordinate bisection with incremental update")
    rng = np.random.default_rng(0)
    pts = rng.random((2000, 3))
    labels, tree = rcb_partition(pts, 12)
    counts = np.bincount(labels, minlength=12)
    print(f"   2000 points, k=12: counts {counts.min()}..{counts.max()}, "
          f"{tree.n_nodes} tree nodes")
    drifted = pts + 0.01 * rng.standard_normal((2000, 3))
    new_labels = tree.update(drifted)
    moved = int((new_labels != labels).sum())
    print(f"   after small drift: {moved} points migrated (UpdComm)")


def tour_decision_tree() -> None:
    print("\n4. Decision-tree induction (paper Eq. 1)")
    g_coords = grid_coords(40, 40)
    g = grid_graph(40, 40)
    part = partition_kway(g, 6, PartitionOptions(seed=0))
    tree, _ = induce_pure_tree(g_coords, part, 6)
    pred = predict_partition(tree, g_coords)
    print(
        f"   6-way grid partition -> pure tree with {tree.n_nodes} nodes, "
        f"depth {tree.depth()}; classifies all "
        f"{int((pred == part).sum())}/1600 vertices correctly"
    )


def main() -> None:
    tour_graph_partitioner()
    tour_repartitioner()
    tour_rcb()
    tour_decision_tree()


if __name__ == "__main__":
    main()
