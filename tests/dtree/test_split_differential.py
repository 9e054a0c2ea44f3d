"""Differential tests: the batched split search must reproduce the
verbatim per-dimension oracle in :mod:`tests.dtree.reference_split` —
the same ``SplitResult`` with threshold and ``index_value`` bit for
bit — and the level pass the verbatim recursive engine in
:mod:`tests.dtree.reference_induction`: the same trees, node for node,
the same ``leaf_of_point`` and the same ``n_grafted`` on every snapshot
of an impact sequence."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.mcml_dt import MCMLDTParams, MCMLDTPartitioner
from repro.dtree import induction
from repro.dtree.induction import suggested_bounds
from repro.dtree.splitter import best_split
from repro.sim.projectile import ImpactConfig
from repro.sim.sequence import simulate_impact
from tests.dtree import reference_induction as ref_induction
from tests.dtree import reference_split as ref
from tests.dtree.test_induction_differential import node_rows

K = 8

#: coordinates with deliberate tie mass, as in the conformance suite
_coord = st.one_of(
    st.sampled_from([-1.0, -0.5, 0.0, 0.5, 1.0, 2.0]),
    st.floats(-5.0, 5.0, allow_nan=False, allow_infinity=False),
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
)


def bits(split):
    """A ``SplitResult`` with its floats spelled out exactly."""
    if split is None:
        return None
    return tuple(
        v.hex() if isinstance(v, float) else v
        for v in dataclasses.astuple(split)
    )


@st.composite
def split_inputs(draw):
    d = draw(st.integers(1, 3))
    n = draw(st.integers(1, 40))
    points = draw(hnp.arrays(np.float64, (n, d), elements=_coord))
    # duplicated points, and dimensions no cut can pass through
    if n > 1 and draw(st.booleans()):
        points[draw(st.integers(0, n - 1))] = points[0]
    for dim in range(d):
        if draw(st.integers(0, 3)) == 0:
            points[:, dim] = points[0, dim]
    n_labels = draw(st.integers(1, 25))
    labels = draw(
        hnp.arrays(np.int64, (n,), elements=st.integers(0, n_labels - 1))
    )
    margin_weight = draw(st.sampled_from([0.0, 0.01, 0.5, 5.0]))
    return points, labels, margin_weight


@given(split_inputs())
@settings(max_examples=300, deadline=None)
def test_best_split_equals_the_oracle(case):
    points, labels, margin_weight = case
    want = ref.best_split(points, labels, margin_weight)
    got = best_split(points, labels, margin_weight)
    assert bits(got) == bits(want)


# ----------------------------------------------------------------------
# whole trees
# ----------------------------------------------------------------------


def rows(result, n_grafted=0):
    """An induction result as comparable values, floats exact."""
    tree, leaf_of_point = result
    return (
        node_rows(tree),
        leaf_of_point.tobytes(),
        n_grafted,
    )


@pytest.fixture(scope="module")
def seq():
    return simulate_impact(ImpactConfig())


@pytest.fixture(scope="module")
def part(seq):
    return MCMLDTPartitioner(K, MCMLDTParams(pad=0.1)).fit(seq[0]).labels


def inductions(engine, snaps, part, margin_weight):
    """Every kind of tree the pipeline induces, over ``snaps``, by
    ``engine`` (the library's ``induction`` module or the oracle): the
    pure descriptor tree of each snapshot, one-shot and through a memo
    (with its ``n_grafted``), and the bounded reshaping tree over all
    its mesh nodes."""
    memo = engine.SubtreeMemo()
    out = []
    for snap in snaps:
        cn = snap.contact_nodes
        coords, labels = snap.mesh.nodes[cn], part[cn]
        out.append(rows(engine.induce_pure_tree(
            coords, labels, K, margin_weight=margin_weight
        )))
        out.append(rows(engine.induce_pure_tree(
            coords, labels, K, margin_weight=margin_weight, memo=memo
        ), memo.n_grafted))
        used = snap.mesh.used_nodes()
        max_p, max_i = suggested_bounds(len(used), K)
        out.append(rows(engine.induce_bounded_tree(
            snap.mesh.nodes[used], part[used], K, max_p=max_p, max_i=max_i,
            margin_weight=margin_weight,
        )))
    return out


# every snapshot under the pipeline's rule, every tenth with the §6
# margin on (the oracle costs 0.1 s per snapshot)
@pytest.mark.parametrize("margin_weight, stride", [(0.0, 1), (0.5, 10)])
def test_every_tree_of_a_sequence_equals_the_oracles(
    seq, part, margin_weight, stride
):
    snaps = list(seq)[::stride]
    got = inductions(induction, snaps, part, margin_weight)
    want = inductions(ref_induction, snaps, part, margin_weight)
    assert len(got) == 3 * len(snaps)
    for i, (g, w) in enumerate(zip(got, want)):
        assert g == w, f"snapshot {i // 3 * stride}, induction {i % 3}"
