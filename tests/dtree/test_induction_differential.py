"""Differential tests: the level pass against the verbatim recursive
engine in :mod:`tests.dtree.reference_induction`.

Trees must agree node for node (thresholds bit for bit), with the same
``leaf_of_point`` and — through a memo — the same ``n_grafted``, on
inputs built to hit the pass's corners: every dimension count the
pipeline uses, k from 1 to 100, tied, adjacent-float, sign-mirrored and
coincident coordinates (also with mixed labels), the ``max_depth``
cut-off, the §6 margin term, bounded trees with small ``max_p`` /
``max_i``, and memo sequences in which points move, swap and change
label. A pinned digest ties every tree of the default scene to the
trees the recursive engine built.
"""

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.mcml_dt import MCMLDTParams, MCMLDTPartitioner
from repro.dtree import induction
from repro.dtree.splitter import best_split, median_split
from repro.sim.projectile import ImpactConfig
from repro.sim.sequence import simulate_impact
from tests.dtree import reference_induction as ref

ONE = np.nextafter(1.0, 2.0)

#: coordinates with deliberate tie mass, one-ULP neighbours and signs
_coord = st.one_of(
    st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0, 2.0]),
    st.sampled_from(
        [1.0, ONE, np.nextafter(1.0, 0.0), np.nextafter(ONE, 2.0)]
    ),
    st.floats(-5.0, 5.0, allow_nan=False, allow_infinity=False),
)


@st.composite
def scenes(draw, max_n=60):
    d = draw(st.sampled_from([1, 2, 3]))
    k = draw(st.sampled_from([1, 2, 8, 25, 100]))
    n = draw(st.integers(1, max_n))
    points = draw(hnp.arrays(np.float64, (n, d), elements=_coord))
    if n > 1:
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if draw(st.booleans()):
            points[i] = points[j]  # coincident, labels drawn apart
        if draw(st.booleans()):
            points[i] = -points[j]  # mirrored
    labels = draw(
        hnp.arrays(np.int64, (n,), elements=st.integers(0, k - 1))
    )
    if draw(st.integers(0, 3)) == 0:
        # a cloud and its mirror image: nodes of equal depth whose
        # points differ only in the signs of their coordinates
        points = np.concatenate((points, -points))
        labels = np.concatenate((labels, labels))
    return points, labels, k


def node_rows(tree):
    """Per node ``(n_points, label, is_pure, dim, threshold, left,
    right)``, the threshold as its exact hex string; ``tree`` is the
    library's (node arrays) or the oracle's (node objects)."""
    if isinstance(tree, ref.DecisionTree):
        return [
            (
                nd.n_points, nd.label, nd.is_pure, nd.dim,
                float(nd.threshold).hex(), nd.left, nd.right,
            )
            for nd in tree.nodes
        ]
    return list(zip(
        tree.n_points.tolist(), tree.label.tolist(), tree.is_pure.tolist(),
        tree.dim.tolist(), map(float.hex, tree.threshold.tolist()),
        tree.left.tolist(), tree.right.tolist(),
    ))


def rows(result, n_grafted=0):
    """An induction result as comparable values, floats exact."""
    tree, leaf_of_point = result
    tree.validate()
    return (
        node_rows(tree),
        leaf_of_point.tolist(),
        n_grafted,
    )


_rules = st.tuples(
    st.sampled_from([0, 1, 2, 3, 4, 64]), st.sampled_from([0.0, 0.5])
)


@given(scenes(), _rules)
@settings(max_examples=300, deadline=None)
def test_pure_tree_equals_the_oracle(scene, rule):
    points, labels, k = scene
    max_depth, margin_weight = rule
    kwargs = dict(max_depth=max_depth, margin_weight=margin_weight)
    got = induction.induce_pure_tree(points, labels, k, **kwargs)
    assert rows(got) == rows(ref.induce_pure_tree(points, labels, k, **kwargs))


@given(scenes(), _rules, st.integers(1, 8), st.integers(1, 4))
@settings(max_examples=300, deadline=None)
def test_bounded_tree_equals_the_oracle(scene, rule, max_p, max_i):
    points, labels, k = scene
    max_depth, margin_weight = rule
    kwargs = dict(
        max_p=max_p, max_i=max_i, max_depth=max_depth,
        margin_weight=margin_weight,
    )
    got = induction.induce_bounded_tree(points, labels, k, **kwargs)
    want = ref.induce_bounded_tree(points, labels, k, **kwargs)
    assert rows(got) == rows(want)


@st.composite
def sequences(draw):
    points, labels, k = draw(scenes(max_n=40))
    n = len(points)
    steps = [(points.copy(), labels.copy())]
    for _ in range(draw(st.integers(1, 4))):
        moved = draw(hnp.arrays(bool, (n,)))
        points[moved] = draw(
            hnp.arrays(np.float64, points[moved].shape, elements=_coord)
        )
        if n > 1 and draw(st.booleans()):
            i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
            points[[i, j]] = points[[j, i]]  # same content, other order
            labels[[i, j]] = labels[[j, i]]
        relabel = draw(hnp.arrays(bool, (n,)))
        labels[relabel] = draw(st.integers(0, k - 1))
        steps.append((points.copy(), labels.copy()))
    return steps, k


def test_sign_flips_change_the_point_hash():
    # an even number of flipped sign bits cancels in a weighted sum
    points = np.array([[0.25, 0.5, 1.0], [-0.25, -0.5, 1.0]])
    points = np.concatenate((points, -points))
    content = induction._content(points, np.zeros(4, dtype=np.int64))
    assert len(np.unique(induction._point_hashes(content))) == 4


@given(sequences(), _rules)
@settings(max_examples=200, deadline=None)
def test_memo_sequence_equals_the_oracle(case, rule):
    steps, k = case
    max_depth, margin_weight = rule
    kwargs = dict(max_depth=max_depth, margin_weight=margin_weight)
    mine, theirs = induction.SubtreeMemo(), ref.SubtreeMemo()
    for points, labels in steps:
        got = induction.induce_pure_tree(
            points, labels, k, memo=mine, **kwargs
        )
        want = ref.induce_pure_tree(points, labels, k, memo=theirs, **kwargs)
        assert rows(got, mine.n_grafted) == rows(want, theirs.n_grafted)


@given(scenes(), st.sampled_from([0.0, 0.01, 0.5, 5.0]))
@settings(max_examples=200, deadline=None)
def test_one_segment_calls_equal_the_oracle(scene, margin_weight):
    points, labels, _ = scene
    assert best_split(points, labels, margin_weight) == (
        ref.best_split(points, labels, margin_weight)
    )
    assert median_split(points) == ref.median_split(points)


# ----------------------------------------------------------------------
# pinned trees of the default scene
# ----------------------------------------------------------------------

#: SHA-256 over every node field, ``leaf_of_point`` and ``n_grafted`` of
#: the trees below, recorded with the recursive engine this pass replaced
PINNED = {
    8: "b7fc50ea2ea8559685448f159e05d53868ced386c04c9bebf50989bc946557ef",
    25: "baa87cf542ca16bf83fe8c2acb7c5647053be41f1a855720fe3e2fe451fc6478",
}


def scene_digest(seq, k):
    """Every snapshot's pure tree one-shot and through one memo, and its
    bounded tree under the default bounds, hashed in that order."""
    part = MCMLDTPartitioner(k, MCMLDTParams(pad=0.1)).fit(seq[0]).labels
    digest = hashlib.sha256()

    def add(tree, leaf_of_point, n_grafted=0):
        for row in node_rows(tree):  # "n_points,label,...,right;"
            digest.update((",".join(map(str, row)) + ";").encode())
        digest.update(np.asarray(leaf_of_point, dtype=np.int64).tobytes())
        digest.update(str(n_grafted).encode())

    memo = induction.SubtreeMemo()
    for snap in seq:
        cn = snap.contact_nodes
        coords, labels = snap.mesh.nodes[cn], part[cn]
        add(*induction.induce_pure_tree(coords, labels, k))
        add(*induction.induce_pure_tree(coords, labels, k, memo=memo),
            memo.n_grafted)
        used = snap.mesh.used_nodes()
        max_p, max_i = induction.suggested_bounds(len(used), k)
        add(*induction.induce_bounded_tree(
            snap.mesh.nodes[used], part[used], k, max_p=max_p, max_i=max_i
        ))
    return digest.hexdigest()


@pytest.fixture(scope="module")
def seq():
    return simulate_impact(ImpactConfig())


@pytest.mark.parametrize("k", sorted(PINNED))
def test_default_scene_trees_are_pinned(seq, k):
    assert len(seq) == 100
    assert scene_digest(seq, k) == PINNED[k]

