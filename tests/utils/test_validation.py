"""Tests for repro.utils.validation."""

import types

import numpy as np
import pytest

from repro.utils.validation import (
    check_array,
    check_in_range,
    check_positive,
)


class TestCheckPositive:
    def test_strict_accepts_positive(self):
        check_positive("x", 0.5)

    def test_strict_rejects_zero(self):
        with pytest.raises(ValueError, match="x must be > 0"):
            check_positive("x", 0)

    def test_non_strict_accepts_zero(self):
        check_positive("x", 0, strict=False)

    def test_non_strict_rejects_negative(self):
        with pytest.raises(ValueError, match=">= 0"):
            check_positive("x", -1, strict=False)


class TestCheckInRange:
    def test_inclusive_bounds_accepted(self):
        check_in_range("f", 0.0, 0.0, 1.0)
        check_in_range("f", 1.0, 0.0, 1.0)

    def test_exclusive_bounds_rejected(self):
        with pytest.raises(ValueError):
            check_in_range("f", 0.0, 0.0, 1.0, inclusive=False)

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="f must satisfy"):
            check_in_range("f", 1.5, 0.0, 1.0)


class TestCheckArray:
    def test_ndim_mismatch(self):
        with pytest.raises(ValueError, match="ndim=2"):
            check_array("a", np.zeros(3), ndim=2)

    def test_shape_wildcards(self):
        out = check_array("a", np.zeros((4, 2)), shape=(None, 2))
        assert out.shape == (4, 2)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            check_array("a", np.zeros((4, 3)), shape=(None, 2))

    def test_shape_rank_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            check_array("a", np.zeros(4), shape=(None, 2))

    def test_dtype_kind(self):
        check_array("a", np.zeros(3, dtype=np.int64), dtype_kind="iu")
        with pytest.raises(ValueError, match="dtype kind"):
            check_array("a", np.zeros(3), dtype_kind="iu")

    def test_coerces_lists(self):
        out = check_array("a", [[1, 2], [3, 4]], ndim=2)
        assert isinstance(out, np.ndarray)


class TestCheckLabels:
    def test_accepts_valid_labels(self):
        from repro.utils.validation import check_labels

        out = check_labels("part", np.array([0, 2, 1]), 3)
        assert out.tolist() == [0, 2, 1]

    def test_rejects_out_of_range(self):
        from repro.utils.validation import check_labels

        with pytest.raises(ValueError, match="must lie in"):
            check_labels("part", np.array([0, 3]), 3)
        with pytest.raises(ValueError, match="must lie in"):
            check_labels("part", np.array([-1, 0]), 3)

    def test_rejects_wrong_size(self):
        from repro.utils.validation import check_labels

        with pytest.raises(ValueError, match="lengths differ"):
            check_labels("part", np.array([0, 1]), 2, size=3)

    def test_rejects_float_dtype(self):
        from repro.utils.validation import check_labels

        with pytest.raises(ValueError, match="dtype kind"):
            check_labels("part", np.array([0.0, 1.0]), 2)

    def test_accepts_empty(self):
        from repro.utils.validation import check_labels

        assert len(check_labels("part", np.empty(0, dtype=np.int64), 4)) == 0


class TestCheckCSRArrays:
    def _graph_arrays(self):
        xadj = np.array([0, 1, 2], dtype=np.int64)
        adjncy = np.array([1, 0], dtype=np.int64)
        adjwgt = np.ones(2, dtype=np.int64)
        vwgts = np.ones((2, 1), dtype=np.int64)
        return xadj, adjncy, adjwgt, vwgts

    def test_accepts_csr_graph(self):
        from repro.graph.csr import CSRGraph
        from repro.utils.validation import check_csr_arrays

        check_csr_arrays(CSRGraph(*self._graph_arrays()))

    def test_rejects_misaligned_xadj(self):
        from repro.utils.validation import check_csr_arrays

        xadj, adjncy, adjwgt, vwgts = self._graph_arrays()
        bad = types.SimpleNamespace(
            xadj=np.array([0, 1, 3], dtype=np.int64),
            adjncy=adjncy, adjwgt=adjwgt, vwgts=vwgts,
        )
        with pytest.raises(ValueError, match="xadj"):
            check_csr_arrays(bad)

    def test_rejects_negative_weights(self):
        from repro.utils.validation import check_csr_arrays

        xadj, adjncy, adjwgt, vwgts = self._graph_arrays()
        bad = types.SimpleNamespace(
            xadj=xadj, adjncy=adjncy, adjwgt=adjwgt,
            vwgts=np.array([[1], [-1]], dtype=np.int64),
        )
        with pytest.raises(ValueError, match="non-negative"):
            check_csr_arrays(bad)

    def test_rejects_non_contiguous(self):
        from repro.utils.validation import check_csr_arrays

        xadj, adjncy, adjwgt, vwgts = self._graph_arrays()
        bad = types.SimpleNamespace(
            xadj=xadj, adjncy=adjncy, adjwgt=adjwgt,
            vwgts=np.ones((2, 4), dtype=np.int64)[:, ::2],
        )
        with pytest.raises(ValueError, match="contiguous"):
            check_csr_arrays(bad)

    def test_rejects_float_adjacency(self):
        from repro.utils.validation import check_csr_arrays

        xadj, adjncy, adjwgt, vwgts = self._graph_arrays()
        bad = types.SimpleNamespace(
            xadj=xadj, adjncy=adjncy.astype(float),
            adjwgt=adjwgt, vwgts=vwgts,
        )
        with pytest.raises(ValueError, match="dtype kind"):
            check_csr_arrays(bad)
