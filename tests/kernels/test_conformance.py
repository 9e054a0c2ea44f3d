"""Differential conformance harness for the contact-search array routines.

Vectorised numerics are a classic source of silent divergence, so
"vectorised ≡ naive loop" is a machine-checked invariant here, not a
hope: for each of the five routines in ``KERNELS``,
hypothesis-generated inputs run through the vectorised NumPy body in
``src/`` and through its independent per-pair / per-row loop form in
``reference_loops.py``, and the results must be **bit-identical** —
exact ``np.array_equal`` with dtype and shape equality, never
``allclose`` (a routine whose pairs are a set, listed in ``UNORDERED``,
is compared with both sides in pair order).  The loop forms run as plain Python on every platform,
which proves the algorithm algebra, including stable-sort permutations
under heavy ties.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.contact_search import row_majority
from repro.dtree.splitter import index_curves
from repro.geometry.bbox import bboxes_intersect_matrix, bboxes_of_groups
from repro.geometry.boxsearch import candidate_pairs

from . import reference_loops

#: the routines under test, by dotted name (sorted, as the ids print)
KERNELS = {
    f"{fn.__module__}.{fn.__qualname__}": fn
    for fn in (
        row_majority,
        index_curves,
        bboxes_intersect_matrix,
        bboxes_of_groups,
        candidate_pairs,
    )
}

#: routines returning parallel index arrays in unspecified order
UNORDERED = {"repro.geometry.boxsearch.candidate_pairs"}

CONFORMANCE_SETTINGS = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

_coord = st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False)
#: coordinate pool with deliberate tie mass — stable-sort permutations
#: are part of the bit-identity contract
_tied_coord = st.one_of(
    st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0, 2.0]),
    st.floats(-5.0, 5.0, allow_nan=False, allow_infinity=False),
)


@st.composite
def _bbox_inputs(draw):
    d = draw(st.integers(1, 3))
    m_a = draw(st.integers(0, 5))
    m_b = draw(st.integers(0, 5))
    boxes_a = draw(hnp.arrays(np.float64, (m_a, 2, d), elements=_coord))
    boxes_b = draw(hnp.arrays(np.float64, (m_b, 2, d), elements=_coord))
    pad = draw(st.floats(0.0, 5.0, allow_nan=False))
    return (boxes_a, boxes_b), {"pad": pad}


@st.composite
def _groups_inputs(draw):
    """Points with tied coordinates, including ``±0.0``, and labels that
    leave some groups empty."""
    d = draw(st.integers(1, 3))
    n = draw(st.integers(0, 12))
    n_groups = draw(st.integers(0 if n == 0 else 1, 5))
    points = draw(
        hnp.arrays(
            np.float64, (n, d),
            elements=st.one_of(_tied_coord, st.just(-0.0)),
        )
    )
    labels = draw(
        hnp.arrays(
            np.int64, (n,), elements=st.integers(0, max(n_groups - 1, 0))
        )
    )
    return (points, labels, n_groups), {}


@st.composite
def _boxsearch_inputs(draw):
    """Boxes and points on tied coordinates (points on box faces), and
    distinct point ids."""
    d = draw(st.integers(1, 3))
    n_boxes = draw(st.integers(0, 5))
    n_points = draw(st.integers(0, 8))
    coord = st.one_of(_coord, _tied_coord)
    boxes = draw(hnp.arrays(np.float64, (n_boxes, 2, d), elements=coord))
    boxes.sort(axis=1)
    points = draw(hnp.arrays(np.float64, (n_points, d), elements=coord))
    point_ids = draw(
        hnp.arrays(
            np.int64, (n_points,), elements=st.integers(0, 999),
            unique=True,
        )
    )
    return (boxes, points, point_ids), {}


@st.composite
def _row_majority_inputs(draw):
    n = draw(st.integers(0, 8))
    w = draw(st.integers(1, 6))
    labels = draw(
        hnp.arrays(np.int64, (n, w), elements=st.integers(-3, 5))
    )
    return (labels,), {}


@st.composite
def _index_curves_inputs(draw):
    """A level of segments: narrow labels, row ``j`` of each segment a
    permutation of the segment's labels (its order along coordinate
    ``j``), and the segments' class counts."""
    d = draw(st.integers(1, 3))
    k = draw(st.integers(1, 4))
    sizes = draw(st.lists(st.integers(1, 6), min_size=1, max_size=4))
    rows = [[] for _ in range(d)]
    counts = np.zeros((len(sizes), k), dtype=np.int64)
    for s, size in enumerate(sizes):
        labels = draw(st.lists(st.integers(0, k - 1), min_size=size,
                               max_size=size))
        counts[s] = np.bincount(labels, minlength=k)
        for row in rows:
            row.extend(draw(st.permutations(labels)))
    size = np.array(sizes)
    start = np.cumsum(size) - size
    seg = np.repeat(np.arange(len(sizes)), size)
    return (np.array(rows, dtype=np.uint8), seg, start, counts), {}


INPUTS = {
    "repro.geometry.bbox.bboxes_intersect_matrix": _bbox_inputs,
    "repro.geometry.bbox.bboxes_of_groups": _groups_inputs,
    "repro.geometry.boxsearch.candidate_pairs": _boxsearch_inputs,
    "repro.core.contact_search.row_majority": _row_majority_inputs,
    "repro.dtree.splitter.index_curves": _index_curves_inputs,
}


def _as_tuple(out):
    return out if isinstance(out, tuple) else (out,)


def _in_pair_order(pairs):
    """Parallel index arrays sorted by (first, second)."""
    order = np.lexsort(pairs[::-1])
    return tuple(a[order] for a in pairs)


def _assert_bit_identical(name, want, got):
    want, got = _as_tuple(want), _as_tuple(got)
    assert len(want) == len(got), (
        f"{name}: pure returned {len(want)} array(s), "
        f"loop form returned {len(got)}"
    )
    for i, (w, g) in enumerate(zip(want, got)):
        assert isinstance(g, np.ndarray), (
            f"{name}[{i}]: loop form returned {type(g).__name__}"
        )
        assert g.dtype == w.dtype, (
            f"{name}[{i}]: dtype {g.dtype} != pure {w.dtype}"
        )
        assert g.shape == w.shape, (
            f"{name}[{i}]: shape {g.shape} != pure {w.shape}"
        )
        assert np.array_equal(w, g), (
            f"{name}[{i}]: values diverge\npure:     {w!r}\n"
            f"loop:     {g!r}"
        )


def test_every_declared_kernel_is_covered():
    """Adding a routine or an oracle without conformance inputs must
    fail loudly, not silently shrink coverage."""
    assert set(INPUTS) == set(KERNELS)
    short = {fn.__name__ for fn in KERNELS.values()}
    for prefix in ("_src_", "_prep_"):
        assert {
            n[len(prefix):]
            for n in vars(reference_loops)
            if n.startswith(prefix)
        } == short


@pytest.mark.parametrize("name", list(KERNELS))
@given(data=st.data())
@CONFORMANCE_SETTINGS
def test_interpreted_source_matches_pure(name, data):
    """The loop form, run as plain Python, is bit-identical to the
    vectorised body — platform-independent proof of the algorithm."""
    args, kwargs = data.draw(INPUTS[name]())
    pure = KERNELS[name]
    prepare = getattr(reference_loops, f"_prep_{pure.__name__}")
    source = getattr(reference_loops, f"_src_{pure.__name__}")
    want = pure(*args, **kwargs)
    got = source(*prepare(*args, **kwargs))
    if name in UNORDERED:
        want, got = _in_pair_order(want), _in_pair_order(got)
    _assert_bit_identical(name, want, got)
