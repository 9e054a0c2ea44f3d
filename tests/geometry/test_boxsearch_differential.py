"""Differential tests: the uniform-grid broad phase of
:func:`repro.geometry.boxsearch.candidate_pairs` must find the same
(box, point) pair *set* as the verbatim one-ball-query-per-box oracle
in :mod:`tests.geometry.reference_boxsearch` and as dense containment
over every (box, point) — on adversarial inputs (rounding lattices,
boxes on cell boundaries and outside the points' bounding box, zero
spans) and on every per-rank call of a driver pass."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.contact_search as contact_search
from repro.core import ContactStepDriver, MCMLDTParams, UpdateStrategy
from repro.geometry.boxsearch import candidate_pairs
from tests.geometry import reference_boxsearch as ref


def pair_set(arrays):
    b_idx, node_ids = arrays
    assert b_idx.dtype == np.int64 and node_ids.dtype == np.int64
    return set(zip(b_idx.tolist(), node_ids.tolist()))


def dense_pairs(boxes, points, ids):
    """Containment tested for every (box, point), no tree."""
    inside = (
        (points[None] >= boxes[:, None, 0])
        & (points[None] <= boxes[:, None, 1])
    ).all(axis=2)
    b, p = np.nonzero(inside)
    return set(zip(b.tolist(), ids[p].tolist()))


@st.composite
def scenes(draw):
    """Boxes and points on a lattice of step 1/8, 0.1 or 1/3 (the last
    two round in the grid's cell arithmetic), so points land exactly on
    box faces and corners. Optional cases: zero-extent boxes, boxes
    whose extent is the largest and whose corners sit on cell
    boundaries, one box 50x larger than the rest, boxes wholly outside
    the points' bounding box on either side of an axis, duplicated or
    all-coincident points, a single point and empty sides."""
    d = draw(st.sampled_from([2, 3]))
    step = draw(st.sampled_from([1 / 8, 0.1, 1 / 3]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = draw(st.integers(0, 12))
    n = draw(st.one_of(st.just(1), st.integers(0, 40)))
    lo = rng.integers(0, 16, (m, d)) * step
    extent = rng.integers(0, 4, (m, d)) * step
    if m and draw(st.booleans()):
        extent[: m // 2 + 1] = 0.0  # zero-extent boxes
    if m and draw(st.booleans()):
        # every extent the group's largest, every corner a multiple of
        # it: with a point at the origin, corners sit on cell faces
        cell = int(rng.integers(1, 4)) * step
        extent[:] = cell
        lo = rng.integers(0, 6, (m, d)) * cell
    boxes = np.stack((lo, lo + extent), axis=1)
    if m and draw(st.booleans()):
        centre = boxes[0].mean(axis=0)
        half = np.maximum(boxes[0, 1] - boxes[0, 0], step) * 25.0
        boxes[0] = (centre - half, centre + half)
    points = rng.integers(0, 20, (n, d)) * step
    if m and n and draw(st.booleans()):
        # box corners, and a point on the middle of a face
        b = rng.integers(0, m, n)
        corner = rng.integers(0, 2, (n, d))
        points = boxes[b[:, None], corner, np.arange(d)]
        points[0, 0] = boxes[b[0], :, 0].mean()
    if n and draw(st.booleans()):
        points[0] = 0.0  # the grid's origin on the lattice
    if n > 1 and draw(st.booleans()):
        points[1::2] = points[0]  # duplicated points
    if n > 1 and draw(st.booleans()):
        points[:] = points[-1]  # all coincident: zero span
    if m and n and draw(st.booleans()):
        # boxes wholly outside the points' bounding box, one per axis
        # and side, touching it up to a lattice step away
        for i in range(0, m, 2):
            axis, gap = int(rng.integers(0, d)), int(rng.integers(1, 3))
            width = boxes[i, 1, axis] - boxes[i, 0, axis]
            if i % 4:
                boxes[i, 0, axis] = points[:, axis].max() + gap * step
                boxes[i, 1, axis] = boxes[i, 0, axis] + width
            else:
                boxes[i, 1, axis] = points[:, axis].min() - gap * step
                boxes[i, 0, axis] = boxes[i, 1, axis] - width
    ids = rng.permutation(10 * n + 1)[:n].astype(np.int64)
    return boxes, points, ids


@given(scenes())
@settings(max_examples=400, deadline=None)
def test_pair_set_equals_the_oracle(scene):
    boxes, points, ids = scene
    got = pair_set(candidate_pairs(boxes, points, ids))
    assert got == pair_set(ref.candidate_pairs(boxes, points, ids))
    assert got == dense_pairs(boxes, points, ids)


def test_every_rank_call_of_a_driver_pass(small_sequence, monkeypatch):
    """Each rank's search in a quick-scale run, replayed through the
    oracle: the same pairs, call by call."""
    calls = []

    def spy(boxes, points, ids):
        out = candidate_pairs(boxes, points, ids)
        calls.append((boxes, points, ids, pair_set(out)))
        return out

    monkeypatch.setattr(contact_search, "candidate_pairs", spy)
    driver = ContactStepDriver(
        8, MCMLDTParams(pad=0.1), strategy=UpdateStrategy.HYBRID,
        backend="serial",
    )
    driver.run(small_sequence)
    assert len(calls) >= 8 * len(small_sequence)
    for boxes, points, ids, got in calls:
        assert got == pair_set(ref.candidate_pairs(boxes, points, ids))
        assert got == dense_pairs(boxes, points, ids)


def test_one_huge_box_leaves_the_other_queries_small():
    """One box covering the scene, 60x the others' extent. Each
    extent octave gets its own grid, so the small boxes never meet the
    points in cells the huge box's size: peak traced memory stays near
    the output size (~0.4 MB; 1,000 + ~1,650 candidates). One grid for
    every box would have a single cell, hand containment all 1M
    (box, point) pairs and trace 34 MB."""
    rng = np.random.default_rng(0)
    n = 1000
    lo = rng.random((n, 3)) * 10.0
    boxes = np.stack((lo, lo + 0.2), axis=1)
    boxes[0] = [[-1.0] * 3, [11.0] * 3]
    points = rng.random((n, 3)) * 10.0
    ids = np.arange(n, dtype=np.int64)
    tracemalloc.start()
    try:
        got = candidate_pairs(boxes, points, ids)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert pair_set(got) == dense_pairs(boxes, points, ids)
    assert peak < 2_000_000, peak


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("which", ["boxes", "points"])
def test_non_finite_input_is_named(which, bad):
    args = {
        "boxes": np.array([[[0.0, 0.0], [1.0, 1.0]]]),
        "points": np.array([[0.5, 0.5], [2.0, 2.0]]),
    }
    args[which].flat[1] = bad
    with pytest.raises(ValueError, match=f"^{which} must be finite"):
        candidate_pairs(args["boxes"], args["points"], np.array([1, 2]))
