"""The snapshot generator against the loop it replaced, and its
integer outputs against values recorded before the change.

``simulate_impact`` keeps one face table per scene, evaluates the
crater and erosion fields once and shares connectivity between
snapshots with the same ``alive`` mask; the verbatim oracle in
``reference_state.py`` does none of that. Every field of every snapshot
must be equal — coordinates included, compared in-process with
``np.array_equal`` rather than pinned by hash, because ``np.exp`` may
differ in the last bit across SIMD dispatch. The integer arrays (the
bench spine's inputs, which nothing else pins) are pinned by digest,
values recorded on the parent commit of PR 22.
"""

import numpy as np
import pytest

from repro.graph.digest import digest_arrays
from repro.sim.erosion import channel_erosion_mask, crater_displacement
from repro.sim.impact2d import Impact2DConfig, simulate_impact_2d
from repro.sim.projectile import ImpactConfig, ImpactSimulator
from repro.sim.sequence import simulate_impact
from tests.mesh.reference_surface import assert_same_arrays
from tests.sim import reference_state as ref

ARRAYS = ("contact_faces", "contact_face_owner", "contact_nodes")

#: scene -> (config, snapshots, digest of every integer array)
PINNED = {
    "default": (
        ImpactConfig(), 20,
        "e6dda09e515ef80b9510068d2008a46f63332d2b08341e27fa0c10e52c32c7a4",
    ),
    "paper": (
        ImpactConfig.paper_scale(), 100,
        "9c9b40d379c6c5a9cd16cb9d17ce9f95feb048e0f620cf0a1ad9367d5af6d649",
    ),
}


def _mesh_arrays(mesh):
    return [mesh.nodes, mesh.elements, mesh.body_id]


def assert_same_sequence(got, want):
    assert len(got) == len(want)
    assert got.config == want.config
    for g, w in zip(got, want):
        assert (g.step, g.time, g.tip_z) == (w.step, w.time, w.tip_z)
        assert g.mesh.elem_type == w.mesh.elem_type
        assert_same_arrays(
            [getattr(g, a) for a in ARRAYS] + _mesh_arrays(g.mesh),
            [getattr(w, a) for a in ARRAYS] + _mesh_arrays(w.mesh),
        )


@pytest.mark.parametrize(
    "config, n",
    [
        (ImpactConfig(), 20),
        (ImpactConfig(obliquity=0.4), 20),
        (ImpactConfig(tet=True, refine=0.6), 20),
        (ImpactConfig.paper_scale(), 100),
    ],
    ids=["default", "oblique", "tet", "paper"],
)
def test_sequence_equals_oracle_loop(config, n):
    assert_same_sequence(
        simulate_impact(config, n), ref.simulate_impact(config, n)
    )


def test_2d_sequence_equals_oracle_loop():
    config = Impact2DConfig(n_steps=40)
    assert_same_sequence(
        simulate_impact_2d(config), ref.simulate_impact_2d(config)
    )


@pytest.mark.parametrize("obliquity", [0.0, 0.4])
def test_hoisted_fields_equal_one_shot_forms(obliquity):
    """``state_at`` against the public one-shot ``crater_displacement``
    / ``channel_erosion_mask`` evaluated at that nose depth."""
    sim = ImpactSimulator(ImpactConfig(obliquity=obliquity))
    c, nodes, cen = sim.config, sim.reference.nodes, sim._ref_centroids
    plate = sim.node_body > sim.PROJECTILE
    for t in (0.0, 9.0, 30.0, 99.0):
        mesh, alive, tip = sim.state_at(t)

        def axis(z):
            return np.column_stack(
                (c.obliquity * (c.standoff - z), np.zeros(len(z)))
            )

        disp = crater_displacement(
            nodes, axis(nodes[:, 2]), tip, sim.channel_radius,
            c.crater_amplitude, c.crater_decay,
        )
        assert np.array_equal(mesh.nodes[plate], (nodes + disp)[plate])
        eroded = channel_erosion_mask(
            cen, axis(cen[:, 2]), tip, sim.channel_radius,
            sim.reference.body_id,
            np.array([sim.UPPER_PLATE, sim.LOWER_PLATE]),
        )
        assert np.array_equal(alive, ~eroded)


@pytest.mark.parametrize("scene", sorted(PINNED))
def test_integer_arrays_pinned(scene):
    config, n, digest = PINNED[scene]
    bundle = {}
    for i, s in enumerate(simulate_impact(config, n)):
        bundle[f"{i:03d}/elements"] = s.mesh.elements
        bundle[f"{i:03d}/body_id"] = s.mesh.body_id
        for a in ARRAYS:
            bundle[f"{i:03d}/{a}"] = getattr(s, a)
    assert digest_arrays(bundle) == digest


def test_unchanged_mask_shares_read_only_connectivity():
    seq = simulate_impact(ImpactConfig(), 20)
    shared = 0
    for a, b in zip(seq, seq[1:]):
        same = a.mesh.num_elements == b.mesh.num_elements
        assert (a.mesh.elements is b.mesh.elements) == same
        assert (a.mesh.body_id is b.mesh.body_id) == same
        assert a.mesh.nodes is not b.mesh.nodes
        shared += same
    assert 0 < shared < 19
    for s in seq:
        assert not s.mesh.elements.flags.writeable
        assert not s.mesh.body_id.flags.writeable


def test_one_lexsort_per_scene(monkeypatch):
    """A tripwire without a clock: the face sort runs once per scene
    (and once per one-shot call), never once per snapshot."""
    from repro.mesh.generators import structured_box_mesh
    from repro.mesh.surface import boundary_faces, interior_face_pairs

    calls = []
    lexsort = np.lexsort
    monkeypatch.setattr(
        np, "lexsort", lambda *a, **k: calls.append(1) or lexsort(*a, **k)
    )
    simulate_impact(ImpactConfig(n_steps=6, refine=0.6))
    assert len(calls) == 1
    simulate_impact_2d(Impact2DConfig(n_steps=6))
    assert len(calls) == 2
    mesh = structured_box_mesh(3, 3, 3)
    boundary_faces(mesh)
    assert len(calls) == 3
    interior_face_pairs(mesh)
    assert len(calls) == 4
