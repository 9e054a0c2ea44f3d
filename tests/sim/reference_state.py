"""Test-only oracles: the snapshot generator as it stood before the
scene kept one face table (``repro.mesh.surface.FaceTable``) and
hoisted the time-independent fields out of ``state_at``.

Verbatim copies of ``channel_erosion_mask`` / ``crater_displacement``,
``ImpactSimulator.state_at`` / ``Impact2DSimulator.state_at`` (as
functions of the simulator; they read only what ``__init__`` has always
set — ``config``, ``reference``, ``node_body``, ``_ref_centroids``,
``channel_radius`` / ``channel_halfwidth``, ``tip_at``), both
``extract_contact_surface`` forms and both snapshot loops, running on
the pre-table ``boundary_faces`` of ``tests/mesh/reference_surface.py``:
every step recomputes every field, re-sorts every face and copies the
connectivity. The only edits: ``self`` is a parameter and the loops
call these ``state_at`` functions instead of the method. ``test_sequence_identity.py`` asserts the library
sequences equal these in every field. Do not "fix" or speed these up.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.mesh.mesh import Mesh
from repro.sim.impact2d import Impact2DConfig, Impact2DSimulator
from repro.sim.projectile import ImpactConfig, ImpactSimulator
from repro.sim.sequence import ContactSnapshot, MeshSequence

from tests.mesh.reference_surface import boundary_faces


def channel_erosion_mask(
    centroids: np.ndarray,
    axis_xy: np.ndarray,
    tip_z: float,
    radius: float,
    body_id: np.ndarray,
    erodible_bodies: np.ndarray,
) -> np.ndarray:
    """Elements killed by the projectile at nose depth ``tip_z``.

    Parameters
    ----------
    centroids:
        ``(m, 3)`` element centroids.
    axis_xy:
        Lateral (x, y) position of the projectile axis.
    tip_z:
        Current nose z; elements with centroid z above it (already
        passed) are candidates.
    radius:
        Channel radius (lateral distance from the axis).
    body_id / erodible_bodies:
        Only elements of erodible bodies (the plates) die; the
        projectile itself is treated as rigid here.

    Returns a boolean mask of *newly* eroded elements. ``axis_xy`` may
    be a single lateral position, shape ``(2,)``, or a per-element
    position, shape ``(m, 2)`` — the latter describes a slanted
    (oblique) channel whose axis shifts with depth.
    """
    centroids = np.asarray(centroids, dtype=float)
    if radius < 0:
        raise ValueError("radius must be >= 0")
    lateral = np.linalg.norm(
        centroids[:, :2] - np.asarray(axis_xy, dtype=float), axis=1
    )
    passed = centroids[:, 2] >= tip_z
    erodible = np.isin(body_id, erodible_bodies)
    return erodible & passed & (lateral <= radius)


def crater_displacement(
    nodes: np.ndarray,
    axis_xy: np.ndarray,
    tip_z: float,
    channel_radius: float,
    amplitude: float,
    decay: float,
) -> np.ndarray:
    """Smooth radial/axial crater displacement field for plate nodes.

    Nodes near the channel wall are pushed radially outward and bulged
    along −z, with exponential decay in lateral distance beyond the
    channel and activation only where the nose has reached the node's
    depth. Returns a ``(n, 3)`` displacement array (callers mask it to
    plate nodes). ``axis_xy`` may be ``(2,)`` or per-node ``(n, 2)``
    (oblique channels).
    """
    nodes = np.asarray(nodes, dtype=float)
    rel = nodes[:, :2] - np.asarray(axis_xy, dtype=float)
    dist = np.linalg.norm(rel, axis=1)
    safe = np.maximum(dist, 1e-12)
    radial_dir = rel / safe[:, None]
    reach = nodes[:, 2] >= tip_z  # nose at or below this depth
    falloff = np.exp(-np.maximum(0.0, dist - channel_radius) / max(decay, 1e-12))
    mag = amplitude * falloff * reach
    disp = np.zeros_like(nodes)
    disp[:, :2] = radial_dir * mag[:, None]
    disp[:, 2] = -0.35 * mag  # slight dishing along the travel direction
    return disp


def state_at(self: ImpactSimulator, time: float) -> Tuple[Mesh, np.ndarray, float]:
    """Scene at ``time``: deformed mesh (all elements), alive mask,
    and nose position.

    Erosion is computed against the *swept* channel (everything the
    nose has passed), so it is monotone in ``time`` by
    construction.
    """
    if time < 0:
        raise ValueError("time must be >= 0")
    c = self.config
    tip = self.tip_at(time)
    ref = self.reference

    # rigid projectile translation (slanted by obliquity: the axis
    # drifts +x as the nose descends)
    nodes = ref.nodes.copy()
    proj_nodes = self.node_body == self.PROJECTILE
    descent = c.standoff - tip
    nodes[proj_nodes, 2] += tip - c.standoff
    if c.obliquity:
        nodes[proj_nodes, 0] += c.obliquity * descent

    def axis_at(zs: np.ndarray) -> np.ndarray:
        """Channel axis (x, y) at depth z — slanted when oblique."""
        ax = np.zeros((len(zs), 2))
        if c.obliquity:
            ax[:, 0] = c.obliquity * (c.standoff - zs)
        return ax

    # crater deformation of plate nodes (based on reference coords so
    # the field is consistent across times)
    plate_nodes = ~proj_nodes & (self.node_body >= 0)
    disp = crater_displacement(
        ref.nodes,
        axis_xy=axis_at(ref.nodes[:, 2]),
        tip_z=tip,
        channel_radius=self.channel_radius,
        amplitude=c.crater_amplitude,
        decay=c.crater_decay,
    )
    nodes[plate_nodes] += disp[plate_nodes]

    eroded = channel_erosion_mask(
        self._ref_centroids,
        axis_xy=axis_at(self._ref_centroids[:, 2]),
        tip_z=tip,
        radius=self.channel_radius,
        body_id=ref.body_id,
        erodible_bodies=np.array([self.UPPER_PLATE, self.LOWER_PLATE]),
    )
    mesh = Mesh(nodes, ref.elements, ref.elem_type, ref.body_id)
    return mesh, ~eroded, tip


def state_at_2d(self: Impact2DSimulator, time: float) -> Tuple[Mesh, np.ndarray, float]:
    """Scene at ``time``: (deformed mesh, alive mask, nose y)."""
    if time < 0:
        raise ValueError("time must be >= 0")
    c = self.config
    tip = self.tip_at(time)
    ref = self.reference
    nodes = ref.nodes.copy()

    punch_nodes = self.node_body == self.PUNCH
    nodes[punch_nodes, 1] += tip - c.standoff

    # crater: bars bulge sideways near the slot, slightly downward
    bar_nodes = ~punch_nodes & (self.node_body >= 0)
    x = ref.nodes[:, 0]
    y = ref.nodes[:, 1]
    dist = np.abs(x)
    reach = y >= tip
    falloff = np.exp(
        -np.maximum(0.0, dist - self.channel_halfwidth)
        / max(c.crater_decay, 1e-12)
    )
    mag = c.crater_amplitude * falloff * reach
    disp = np.zeros_like(nodes)
    disp[:, 0] = np.sign(x) * mag
    disp[:, 1] = -0.35 * mag
    nodes[bar_nodes] += disp[bar_nodes]

    # erosion: bar elements inside the swept slot
    cx = self._ref_centroids[:, 0]
    cy = self._ref_centroids[:, 1]
    erodible = np.isin(
        ref.body_id, [self.UPPER_BAR, self.LOWER_BAR]
    )
    eroded = (
        erodible
        & (cy >= tip)
        & (np.abs(cx) <= self.channel_halfwidth)
    )
    mesh = Mesh(nodes, ref.elements, ref.elem_type, ref.body_id)
    return mesh, ~eroded, tip


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
    faces, owner = boundary_faces(mesh)
    if len(faces) == 0:
        empty = np.empty((0, faces.shape[1] if faces.ndim == 2 else 4), np.int64)
        return empty, np.empty(0, np.int64), np.empty(0, np.int64)
    face_centroid = mesh.nodes[faces].mean(axis=1)
    axis = np.zeros((len(face_centroid), 2))
    if obliquity:
        axis[:, 0] = obliquity * (standoff - face_centroid[:, 2])
    lateral = np.linalg.norm(face_centroid[:, :2] - axis, axis=1)
    is_proj = mesh.body_id[owner] == projectile_body
    keep = is_proj | (lateral <= capture_radius)
    faces, owner = faces[keep], owner[keep]
    return faces, owner, np.unique(faces)


def simulate_impact(
    config: Optional[ImpactConfig] = None,
    n_snapshots: Optional[int] = None,
) -> MeshSequence:
    """Run the synthetic penetration and dump ``n_snapshots`` snapshots.

    ``n_snapshots`` defaults to ``config.n_steps`` (100, like the
    paper's sequence).
    """
    config = config or ImpactConfig()
    sim = ImpactSimulator(config)
    n = config.n_steps if n_snapshots is None else n_snapshots
    if n < 1:
        raise ValueError("need at least one snapshot")

    snapshots: List[ContactSnapshot] = []
    for step in range(n):
        t = float(step)
        mesh_full, alive, tip = state_at(sim, t)
        live = mesh_full.with_elements(alive)
        faces, owner, cnodes = extract_contact_surface(
            live,
            sim.config.capture_radius,
            ImpactSimulator.PROJECTILE,
            obliquity=sim.config.obliquity,
            standoff=sim.config.standoff,
        )
        snapshots.append(
            ContactSnapshot(
                mesh=live,
                contact_faces=faces,
                contact_face_owner=owner,
                contact_nodes=cnodes,
                step=step,
                time=t,
                tip_z=tip,
            )
        )
    return MeshSequence(snapshots=snapshots, config=sim.config)


def extract_contact_surface_2d(
    mesh: Mesh, capture_halfwidth: float, punch_body: int = 0
) -> tuple:
    """Contact edges: all punch boundary edges + bar boundary edges
    whose midpoint is within ``capture_halfwidth`` of the punch axis."""
    faces, owner = boundary_faces(mesh)
    if len(faces) == 0:
        return (
            np.empty((0, 2), np.int64),
            np.empty(0, np.int64),
            np.empty(0, np.int64),
        )
    mid = mesh.nodes[faces].mean(axis=1)
    is_punch = mesh.body_id[owner] == punch_body
    near = np.abs(mid[:, 0]) <= capture_halfwidth
    keep = is_punch | near
    faces, owner = faces[keep], owner[keep]
    return faces, owner, np.unique(faces)


def simulate_impact_2d(
    config: Optional[Impact2DConfig] = None,
    n_snapshots: Optional[int] = None,
) -> MeshSequence:
    """Run the 2D punch scene and dump snapshots (cf.
    :func:`repro.sim.sequence.simulate_impact`)."""
    config = config or Impact2DConfig()
    sim = Impact2DSimulator(config)
    n = config.n_steps if n_snapshots is None else n_snapshots
    if n < 1:
        raise ValueError("need at least one snapshot")
    snapshots: List[ContactSnapshot] = []
    for step in range(n):
        t = float(step)
        mesh_full, alive, tip = state_at_2d(sim, t)
        live = mesh_full.with_elements(alive)
        faces, owner, cnodes = extract_contact_surface_2d(
            live, config.capture_halfwidth, Impact2DSimulator.PUNCH
        )
        snapshots.append(
            ContactSnapshot(
                mesh=live,
                contact_faces=faces,
                contact_face_owner=owner,
                contact_nodes=cnodes,
                step=step,
                time=t,
                tip_z=tip,
            )
        )
    return MeshSequence(snapshots=snapshots, config=config)
