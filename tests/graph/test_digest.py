"""Canonical content digests (``repro.graph.digest``).

The service cache keys on these digests, so the properties proven here
are load-bearing: value-identical inputs must always collide, and any
change to the numbers (including a vertex relabelling) must not.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import grid_graph
from repro.graph.digest import (
    DIGEST_SCHEME,
    canonical_array,
    digest_arrays,
    digest_graph,
)
from repro.graph.ops import induced_subgraph


def _int_arrays():
    return st.lists(
        st.integers(min_value=-(2**40), max_value=2**40),
        min_size=0,
        max_size=40,
    )


class TestDigestArrays:
    def test_deterministic(self):
        arrays = {"a": np.arange(10), "b": np.linspace(0, 1, 5)}
        assert digest_arrays(arrays) == digest_arrays(arrays)

    def test_scheme_is_versioned(self):
        assert DIGEST_SCHEME == "repro.digest/1"

    @given(values=_int_arrays())
    @settings(max_examples=50, deadline=None)
    def test_dtype_width_invariant(self, values):
        """int32 and int64 carrying the same values digest equal."""
        small = [v for v in values if -(2**31) <= v < 2**31]
        a32 = np.array(small, dtype=np.int32)
        a64 = np.array(small, dtype=np.int64)
        assert digest_arrays({"x": a32}) == digest_arrays({"x": a64})

    @given(values=_int_arrays())
    @settings(max_examples=50, deadline=None)
    def test_endianness_invariant(self, values):
        native = np.array(values, dtype=np.int64)
        swapped = native.astype(">i8")
        assert digest_arrays({"x": native}) == digest_arrays({"x": swapped})

    def test_stride_invariant(self):
        base = np.arange(24, dtype=np.int64)
        view = base[::2]
        copy = view.copy()
        assert view.base is not None and not copy.flags["OWNDATA"] is False
        assert digest_arrays({"x": view}) == digest_arrays({"x": copy})

    def test_name_sensitivity(self):
        arr = np.arange(4)
        assert digest_arrays({"a": arr}) != digest_arrays({"b": arr})

    def test_name_order_irrelevant(self):
        a, b = np.arange(3), np.arange(5)
        assert digest_arrays({"a": a, "b": b}) == digest_arrays(
            {"b": b, "a": a}
        )

    def test_shape_sensitivity(self):
        flat = np.arange(6, dtype=np.int64)
        square = flat.reshape(2, 3)
        assert digest_arrays({"x": flat}) != digest_arrays({"x": square})

    @given(
        values=st.lists(
            st.integers(min_value=-1000, max_value=1000),
            min_size=1,
            max_size=30,
        ),
        index=st.integers(min_value=0, max_value=29),
        delta=st.integers(min_value=1, max_value=7),
    )
    @settings(max_examples=60, deadline=None)
    def test_value_sensitivity(self, values, index, delta):
        """Changing any single element changes the digest."""
        arr = np.array(values, dtype=np.int64)
        mutated = arr.copy()
        mutated[index % len(arr)] += delta
        assert digest_arrays({"x": arr}) != digest_arrays({"x": mutated})

    def test_bool_and_float_kinds(self):
        doc = {
            "flags": np.array([True, False, True]),
            "xs": np.array([0.5, 1.5], dtype=np.float32),
        }
        wide = {
            "flags": np.array([1, 0, 1], dtype=np.uint8),
            "xs": np.array([0.5, 1.5], dtype=np.float64),
        }
        assert digest_arrays(doc) == digest_arrays(wide)

    def test_float_bit_pattern_identity(self):
        # documented: -0.0 and 0.0 are different bit patterns
        assert digest_arrays({"x": np.array([0.0])}) != digest_arrays(
            {"x": np.array([-0.0])}
        )

    def test_rejects_object_dtype(self):
        with pytest.raises(TypeError, match="cannot digest"):
            digest_arrays({"x": np.array(["a", "b"])})

    def test_extra_scalars_bind(self):
        arr = {"x": np.arange(3)}
        one = digest_arrays(arr, extra={"k": 8, "method": "mcml-dt"})
        two = digest_arrays(arr, extra={"method": "mcml-dt", "k": 8})
        other = digest_arrays(arr, extra={"k": 9, "method": "mcml-dt"})
        assert one == two  # key order canonicalised
        assert one != other
        assert one != digest_arrays(arr)

    def test_canonical_array_layout(self):
        out = canonical_array(np.array([[1, 2], [3, 4]], dtype=np.int16))
        assert out.dtype == np.dtype("<i8")
        assert out.flags["C_CONTIGUOUS"]


class TestDigestGraph:
    def test_round_trip_copy(self, grid_16):
        assert digest_graph(grid_16) == digest_graph(grid_16.copy())

    def test_weight_change_detected(self, grid_16):
        reweighted = grid_16.with_vwgts(grid_16.vwgts + 1)
        assert digest_graph(grid_16) != digest_graph(reweighted)

    def test_edge_weight_change_detected(self, grid_16):
        adjwgt = grid_16.adjwgt.copy()
        adjwgt[0] += 1
        # keep symmetry irrelevant here: digest is over raw arrays
        assert digest_graph(grid_16) != digest_graph(
            grid_16.with_adjwgt(adjwgt)
        )

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_permutation_sensitivity(self, seed):
        """Relabelling the vertices of a grid changes the digest
        (a relabelled graph is a different partitioning input)."""
        graph = grid_graph(5, 5)
        rng = np.random.default_rng(seed)
        perm = rng.permutation(graph.num_vertices)
        relabelled, _ = induced_subgraph(graph, perm)
        if np.array_equal(perm, np.arange(graph.num_vertices)):
            assert digest_graph(relabelled) == digest_graph(graph)
        else:
            assert digest_graph(relabelled) != digest_graph(graph)
