"""Public-API surface tests: the README quickstart must work."""

import importlib
import pkgutil

import numpy as np

import repro


def packages_with_all():
    """``repro`` and every subpackage that declares ``__all__``."""
    found = [repro]
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        if info.ispkg:
            module = importlib.import_module(info.name)
            if hasattr(module, "__all__"):
                found.append(module)
    return found


class TestPublicApi:
    def test_version(self):
        assert repro.__version__

    def test_all_exports_resolve(self):
        packages = packages_with_all()
        # repro, its 13 subpackages and repro.runtime.backends
        assert len(packages) >= 15
        for package in packages:
            for name in package.__all__:
                assert hasattr(package, name), f"{package.__name__}.{name}"

    def test_quickstart_flow(self):
        """The exact flow the README shows."""
        seq = repro.simulate_impact(
            repro.ImpactConfig(n_steps=3, refine=0.5)
        )
        table = repro.table1(seq, ks=(2,))
        out = table.render()
        assert "MCML+DT" in out

    def test_partitioner_direct_use(self):
        """Using the partitioner as a standalone library."""
        from repro.graph import grid_graph
        from repro.graph.metrics import load_imbalance

        g = grid_graph(12, 12)
        part = repro.partition_kway(g, 4, repro.PartitionOptions(seed=0))
        assert load_imbalance(g, part, 4).max() <= 1.06

    def test_dtree_direct_use(self):
        rng = np.random.default_rng(0)
        pts = rng.random((30, 2))
        labels = (pts[:, 0] > 0.5).astype(int)
        tree, _ = repro.induce_pure_tree(pts, labels, 2)
        assert tree.n_nodes == 3

    def test_rcb_direct_use(self):
        rng = np.random.default_rng(0)
        pts = rng.random((64, 3))
        labels, tree = repro.rcb_partition(pts, 4)
        assert set(np.unique(labels)) == set(range(4))
