"""Snapshot sequences: the 100-mesh evaluation input (paper §5).

The paper instrumented EPIC to dump the mesh and contact-surface
information every ≈37 time steps, yielding 100 snapshots.
:func:`simulate_impact` does the equivalent for the synthetic scene:
it samples the simulator at ``n_steps`` times and extracts, per
snapshot, the live mesh, the contact faces, and the contact nodes.

Contact identification (the application's job, per the paper): all
boundary faces of the projectile, plus plate boundary faces whose
centroid is laterally within ``capture_radius`` of the projectile axis
— i.e. the impact region, which grows as erosion exposes the channel
walls.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterator, List, Optional

import numpy as np

from repro.mesh.mesh import Mesh
from repro.mesh.surface import boundary_faces
from repro.obs.tracer import TracerBase, ensure_tracer
from repro.sim.projectile import ImpactConfig, ImpactSimulator


@dataclass
class ContactSnapshot:
    """One time-step dump of the running simulation.

    ``mesh`` contains only live elements but keeps the *full* node
    array (node ids are stable across snapshots so partition vectors
    and RCB labels can be carried forward).
    """

    mesh: Mesh
    contact_faces: np.ndarray  # (f, npf) node ids
    contact_face_owner: np.ndarray  # (f,) owning element index in mesh
    contact_nodes: np.ndarray  # sorted unique node ids
    step: int
    time: float
    tip_z: float

    @property
    def num_contact_nodes(self) -> int:
        """Number of contact nodes in this snapshot."""
        return len(self.contact_nodes)

    @property
    def num_contact_faces(self) -> int:
        """Number of contact (surface) faces in this snapshot."""
        return len(self.contact_faces)


@dataclass
class MeshSequence:
    """Ordered list of snapshots from one simulation run."""

    snapshots: List[ContactSnapshot]
    config: ImpactConfig

    def __len__(self) -> int:
        return len(self.snapshots)

    def __getitem__(self, i: int) -> ContactSnapshot:
        return self.snapshots[i]

    def __iter__(self) -> Iterator[ContactSnapshot]:
        return iter(self.snapshots)

    @property
    def num_nodes(self) -> int:
        """Node count (constant across snapshots)."""
        return self.snapshots[0].mesh.num_nodes


#: face centroids ``(f, d)`` -> bool ``(f,)``: near enough to be contact
Near = Callable[[np.ndarray], np.ndarray]


def _within_radius(
    capture_radius: float, obliquity: float, standoff: float
) -> Near:
    """Laterally within ``capture_radius`` of the (possibly slanted)
    channel axis."""
    def near(face_centroid: np.ndarray) -> np.ndarray:
        axis = np.zeros((len(face_centroid), 2))
        if obliquity:
            axis[:, 0] = obliquity * (standoff - face_centroid[:, 2])
        lateral = np.linalg.norm(face_centroid[:, :2] - axis, axis=1)
        return lateral <= capture_radius

    return near


def contact_surface(
    mesh: Mesh,
    faces: np.ndarray,
    owner: np.ndarray,
    projectile_body: int,
    near: Near,
) -> tuple:
    """The contact part of boundary ``(faces, owner)`` of ``mesh``:
    every projectile face plus the others whose centroid is ``near``.
    Returns ``(faces, face_owner, contact_nodes)``."""
    keep = (mesh.body_id[owner] == projectile_body) | near(
        mesh.nodes[faces].mean(axis=1)
    )
    faces, owner = faces[keep], owner[keep]
    return faces, owner, np.unique(faces)


def extract_contact_surface(
    mesh: Mesh,
    capture_radius: float,
    projectile_body: int = 0,
    obliquity: float = 0.0,
    standoff: float = 0.0,
) -> tuple:
    """Identify contact faces/nodes of a (live-element) mesh.

    Plate faces are contact candidates when laterally within
    ``capture_radius`` of the (possibly slanted) channel axis; every
    projectile boundary face is one. Returns ``(faces, face_owner,
    contact_nodes)``.
    """
    near = _within_radius(capture_radius, obliquity, standoff)
    return contact_surface(mesh, *boundary_faces(mesh), projectile_body, near)


def snapshot_sequence(
    sim: Any,
    n_snapshots: Optional[int],
    projectile_body: int,
    near: Near,
    tracer: Optional[TracerBase],
) -> MeshSequence:
    """The snapshot loop of both scenes: ``sim.state_at`` each step,
    the boundary of the live elements from the scene's one
    ``sim.face_table``, and :func:`contact_surface` of that.

    Whatever depends only on the ``alive`` mask — connectivity, body
    ids, boundary — is rebuilt only when the mask changes, so
    consecutive snapshots between erosion events share those (read-only)
    arrays.
    """
    tracer = ensure_tracer(tracer)
    n = sim.config.n_steps if n_snapshots is None else n_snapshots
    if n < 1:
        raise ValueError("need at least one snapshot")
    snapshots: List[ContactSnapshot] = []
    alive = live = None
    shared = 0
    for step in range(n):
        mesh_full, now_alive, tip = sim.state_at(float(step))
        if alive is not None and np.array_equal(now_alive, alive):
            live = Mesh(
                mesh_full.nodes, live.elements, live.elem_type, live.body_id
            )
            shared += 1
        else:
            alive = now_alive
            live = mesh_full.with_elements(alive)
            live.elements.setflags(write=False)
            live.body_id.setflags(write=False)
            boundary = sim.face_table.boundary(alive)
        snapshots.append(ContactSnapshot(
            live, *contact_surface(live, *boundary, projectile_body, near),
            step=step, time=float(step), tip_z=tip,
        ))
    tracer.count("snapshots", n)
    tracer.count("face_tables_built")  # sim.face_table, nothing else sorts
    tracer.count("connectivity_shared", shared)
    return MeshSequence(snapshots=snapshots, config=sim.config)


def simulate_impact(
    config: Optional[ImpactConfig] = None,
    n_snapshots: Optional[int] = None,
    tracer: Optional[TracerBase] = None,
) -> MeshSequence:
    """Run the synthetic penetration and dump ``n_snapshots`` snapshots.

    ``n_snapshots`` defaults to ``config.n_steps`` (100, like the
    paper's sequence). A recording ``tracer`` gets the ``snapshots``,
    ``face_tables_built`` and ``connectivity_shared`` counters on its
    open span.
    """
    sim = ImpactSimulator(config or ImpactConfig())
    c = sim.config
    near = _within_radius(c.capture_radius, c.obliquity, c.standoff)
    return snapshot_sequence(sim, n_snapshots, sim.PROJECTILE, near, tracer)
