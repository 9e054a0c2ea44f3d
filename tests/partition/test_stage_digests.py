"""Pinned label digests after every stage of ``partition_kway`` on the
default-scale scene, so a divergence names its layer.

``tests/core/test_label_digests.py`` pins the end of a fit; when it
moves, the first stage below whose digest moved is where to look. The
values were recorded at the commit before the move loops moved onto
Python ints (PR 20). The replay mirrors ``partition_kway`` stage for
stage and is asserted equal to it.
"""

import pytest

from repro.core.weights import build_contact_graph
from repro.graph.digest import digest_arrays
from repro.partition.config import PartitionOptions
from repro.partition.fragments import absorb_fragments
from repro.partition.kway import partition_kway
from repro.partition.recursive import recursive_bisection
from repro.partition.refine_kway import greedy_kway_refine, rebalance_kway
from repro.partition.refine_kway_fm import kway_fm_refine

#: (k, ncon) -> [(stage, first 16 hex digits of the label digest)]
STAGES = {
    (8, 2): [
        ("recursive_bisection", "f1ec50e03c48ffa2"),
        ("absorb_fragments[0]", "9f5cca1469496f01"),
        ("rebalance_kway[0]", "dc642c71fbf96b34"),
        ("greedy_kway_refine[0]", "3a5641139f22df29"),
        ("absorb_fragments[1]", "f9bb73db7bc6e75a"),
        ("rebalance_kway[1]", "f9a4ca711cfa3084"),
        ("greedy_kway_refine[1]", "f9a4ca711cfa3084"),
        ("kway_fm_refine", "2aa589277812995e"),
    ],
    (25, 2): [
        ("recursive_bisection", "db6a1de25bd54622"),
        ("absorb_fragments[0]", "3cf31dccbe1a9c2e"),
        ("rebalance_kway[0]", "b4e8a7a7f5c07133"),
        ("greedy_kway_refine[0]", "731bc75783eafdeb"),
        ("absorb_fragments[1]", "0001ddb5e2c32360"),
        ("rebalance_kway[1]", "d3fc625106c2777e"),
        ("greedy_kway_refine[1]", "5a44cf820bb55179"),
        ("kway_fm_refine", "3dda3b39287cca8a"),
    ],
    # the single-constraint graph ML+RCB partitions
    (25, 1): [
        ("recursive_bisection", "20cd2786d460110b"),
        ("absorb_fragments[0]", "eb6f56e5f93cc62b"),
        ("rebalance_kway[0]", "6c039562349289c8"),
        ("greedy_kway_refine[0]", "4151fa9753d8f447"),
        ("absorb_fragments[1]", "332cc8279117863c"),
        ("rebalance_kway[1]", "323e3649ee48f6d8"),
        ("greedy_kway_refine[1]", "37ba5447b149ad2d"),
        ("kway_fm_refine", "0d07694128149edb"),
    ],
}


def replay_stages(graph, k, options):
    """``partition_kway``'s stages, one ``(stage, digest)`` per call."""

    def digest(part):
        return digest_arrays({"labels": part})[:16]

    part = recursive_bisection(graph, k, options)
    yield "recursive_bisection", digest(part)
    for rnd in range(2):
        part, moved = absorb_fragments(graph, part, k, options)
        yield f"absorb_fragments[{rnd}]", digest(part)
        part, _ = rebalance_kway(graph, part, k, options)
        yield f"rebalance_kway[{rnd}]", digest(part)
        part = greedy_kway_refine(graph, part, k, options)
        yield f"greedy_kway_refine[{rnd}]", digest(part)
        if moved == 0:
            break
    part = kway_fm_refine(graph, part, k, options)
    yield "kway_fm_refine", digest(part)
    assert (part == partition_kway(graph, k, options)).all()


@pytest.mark.parametrize("k, ncon", sorted(STAGES))
def test_stage_digests_unchanged(mid_sequence, k, ncon):
    graph = build_contact_graph(mid_sequence[0])
    if ncon == 1:
        graph = graph.with_vwgts(graph.vwgts[:, :1])
    got = list(replay_stages(graph, k, PartitionOptions(seed=0)))
    # compare stage by stage: the first mismatch is the layer to open
    for (stage, digest), (exp_stage, exp_digest) in zip(got, STAGES[k, ncon]):
        assert (stage, digest) == (exp_stage, exp_digest)
    assert len(got) == len(STAGES[k, ncon])
