"""Tracing must be observation-only: identical results with it on or
off, and a no-op tracer on the hot path."""

import numpy as np

from repro.core.mcml_dt import MCMLDTParams, MCMLDTPartitioner
from repro.graph.build import grid_graph
from repro.obs import NullTracer, Tracer
from repro.partition.config import PartitionOptions
from repro.partition.kway import partition_kway


class TestTracingChangesNothing:
    def test_partition_kway_identical_with_and_without(self):
        g = grid_graph(12, 12)
        opts = PartitionOptions(seed=7)
        baseline = partition_kway(g, 4, opts)
        with_null = partition_kway(g, 4, opts, tracer=NullTracer())
        with_trace = partition_kway(g, 4, opts, tracer=Tracer())
        np.testing.assert_array_equal(baseline, with_null)
        np.testing.assert_array_equal(baseline, with_trace)

    def test_mcml_dt_fit_identical_with_and_without(self, small_sequence):
        snap = small_sequence[0]
        params = MCMLDTParams(options=PartitionOptions(seed=3))

        plain = MCMLDTPartitioner(5, params).fit(snap)
        traced = MCMLDTPartitioner(5, params).fit(snap, tracer=Tracer())
        nulled = MCMLDTPartitioner(5, params).fit(
            snap, tracer=NullTracer()
        )
        np.testing.assert_array_equal(plain.labels, traced.labels)
        np.testing.assert_array_equal(plain.labels, nulled.labels)

    def test_traced_fit_records_required_phases(self, small_sequence):
        tracer = Tracer()
        params = MCMLDTParams(options=PartitionOptions(seed=3))
        MCMLDTPartitioner(5, params).fit(small_sequence[0], tracer=tracer)
        root = tracer.finish()
        for path in (
            "fit/partition/coarsen",
            "fit/partition/initial",
            "fit/partition/refine",
            "fit/dtree-induce",
            "fit/collapse",
            "fit/refine-G'",
        ):
            span = root.find(path)
            assert span is not None and span.n_calls >= 1, path
        # wall-time consistency: no span outlives its parent
        for path, span in root.walk():
            assert span.total_s + 1e-9 >= span.children_s, path

    def test_traced_fit_splits_refine_into_stages(self, small_sequence):
        tracer = Tracer()
        params = MCMLDTParams(options=PartitionOptions(seed=3))
        MCMLDTPartitioner(5, params).fit(small_sequence[0], tracer=tracer)
        root = tracer.finish()
        refine = root.find("fit/partition/refine")
        assert list(refine.children) == ["absorb", "rebalance", "greedy", "fm"]
        # one absorb/rebalance/greedy per repair round, one FM polish
        rounds = refine.children["absorb"].n_calls
        assert 1 <= rounds <= 2
        assert refine.children["rebalance"].n_calls == rounds
        assert refine.children["greedy"].n_calls == rounds
        assert refine.children["fm"].n_calls == 1
        # the move counter stays on `refine`, where reports read it
        assert "rebalance_moves" in refine.counters
        gprime = root.find("fit/refine-G'")
        assert list(gprime.children) == ["rebalance", "greedy", "fm"]
