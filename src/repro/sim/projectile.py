"""The projectile/two-plate impact scene (paper §5's workload).

The scene is built from three hex blocks: a rod projectile above two
parallel plates. :class:`ImpactSimulator` advances the scene to any
time: the projectile translates rigidly along −z per its kinematics,
plate nodes deform with the crater field, and plate elements inside the
swept channel erode. Bodies: 0 = projectile, 1 = upper plate,
2 = lower plate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Tuple

import numpy as np

from repro.mesh.generators import merge_meshes, structured_box_mesh
from repro.mesh.mesh import Mesh
from repro.mesh.surface import FaceTable
from repro.sim.erosion import channel_erosion_mask, crater_displacement
from repro.sim.motion import ProjectileKinematics
from repro.utils.validation import check_positive


@dataclass
class ImpactConfig:
    """Geometry and dynamics of the synthetic penetration run.

    Defaults give a laptop-scale analogue of the EPIC mesh (≈8k nodes)
    with the same qualitative arc: approach, first-plate penetration,
    gap crossing, second-plate penetration. Resolutions scale all
    three bodies together via ``refine``.
    """

    # plate lateral extent and element counts
    plate_nxy: int = 24
    plate_nz: int = 3
    plate_size: float = 12.0
    plate_thickness: float = 1.0
    plate_gap: float = 1.0
    # projectile (square rod)
    proj_n: int = 4
    proj_len_elems: int = 12
    proj_width: float = 1.6
    proj_length: float = 5.0
    standoff: float = 1.0  # initial gap between nose and upper plate
    # dynamics
    v0: float = 0.12
    drag: float = 0.30
    n_steps: int = 100
    # erosion / deformation
    channel_factor: float = 0.75  # channel radius = factor * proj half-width
    crater_amplitude: float = 0.12
    crater_decay: float = 1.2
    # contact identification
    capture_radius: float = 3.0  # plate boundary faces this close to the
    # axis (laterally) are contact candidates
    refine: float = 1.0  # multiplies all element counts
    tet: bool = False  # split hexes into tets (EPIC used tet meshes)
    obliquity: float = 0.0  # lateral x-drift per unit of descent: the
    # projectile travels along a slanted axis, carving a diagonal
    # channel (stresses the reshaping step with non-axis boundaries)

    def __post_init__(self) -> None:
        for name in (
            "plate_nxy", "plate_nz", "proj_n", "proj_len_elems", "n_steps",
        ):
            check_positive(name, getattr(self, name))
        for name in (
            "plate_size", "plate_thickness", "plate_gap", "proj_width",
            "proj_length", "v0", "capture_radius", "refine",
        ):
            check_positive(name, getattr(self, name))

    @classmethod
    def paper_scale(cls, n_steps: int = 100) -> "ImpactConfig":
        """The benchmark scene (§5 analogue at laptop scale).

        ≈18k nodes with ≈16% contact nodes — a ~9× linear reduction of
        the EPIC mesh (156,601 nodes, 13% contact). Plates are chunkier
        than the default test scene so subdomain surface-to-volume
        ratios, and therefore the FEComm-to-contact-node balance that
        drives Table 1, sit in the paper's regime.
        """
        return cls(
            n_steps=n_steps,
            plate_nxy=34,
            plate_nz=6,
            plate_size=14.0,
            plate_thickness=1.5,
            capture_radius=5.5,
            proj_n=6,
            proj_len_elems=16,
        )

    @classmethod
    def epic_scale(cls, n_steps: int = 100) -> "ImpactConfig":
        """A full-size analogue of the EPIC mesh (≈160k nodes).

        155,127 nodes against the paper's 156,601. An MCML+DT fit at
        this scale takes 13 s at k = 25 and 26 s at k = 100 on a
        2-vCPU box (one unpaired probe each, ROADMAP after PR 20), so
        the paper's own Table 1 is a matter of minutes
        (``examples/projectile_impact.py --epic``); ``paper_scale``
        stays the routine evaluation scene.
        """
        return cls(
            n_steps=n_steps,
            plate_nxy=72,
            plate_nz=13,
            plate_size=14.0,
            plate_thickness=1.5,
            capture_radius=5.5,
            proj_n=12,
            proj_len_elems=34,
        )

    def scaled(self) -> "ImpactConfig":
        """Apply ``refine`` to the element counts (returns a copy)."""
        import dataclasses

        r = self.refine
        return dataclasses.replace(
            self,
            plate_nxy=max(2, int(round(self.plate_nxy * r))),
            plate_nz=max(1, int(round(self.plate_nz * r))),
            proj_n=max(2, int(round(self.proj_n * r))),
            proj_len_elems=max(2, int(round(self.proj_len_elems * r))),
            refine=1.0,
        )


class ImpactSimulator:
    """Stateful scene advancing to arbitrary times.

    The reference (undeformed) mesh is built once; ``state_at(t)``
    returns ``(mesh, alive_mask, tip_z)`` with deformed coordinates and
    cumulative erosion up to ``t``.
    """

    PROJECTILE, UPPER_PLATE, LOWER_PLATE = 0, 1, 2

    def __init__(self, config: ImpactConfig):
        self.config = config.scaled()
        c = self.config
        half = c.plate_size / 2.0
        # z layout (projectile travels -z): upper plate top at z=0
        upper_lo = -c.plate_thickness
        lower_hi = upper_lo - c.plate_gap
        lower_lo = lower_hi - c.plate_thickness

        projectile = structured_box_mesh(
            c.proj_n, c.proj_n, c.proj_len_elems,
            origin=(-c.proj_width / 2, -c.proj_width / 2, c.standoff),
            size=(c.proj_width, c.proj_width, c.proj_length),
        )
        upper = structured_box_mesh(
            c.plate_nxy, c.plate_nxy, c.plate_nz,
            origin=(-half, -half, upper_lo),
            size=(c.plate_size, c.plate_size, c.plate_thickness),
        )
        lower = structured_box_mesh(
            c.plate_nxy, c.plate_nxy, c.plate_nz,
            origin=(-half, -half, lower_lo),
            size=(c.plate_size, c.plate_size, c.plate_thickness),
        )
        merged = merge_meshes([projectile, upper, lower])
        if c.tet:
            from repro.mesh.generators import hex_to_tet_mesh

            merged = hex_to_tet_mesh(merged)
        self.reference = ref = merged
        self.node_body = ref.node_body_id()
        self._ref_centroids = ref.centroids()
        self.face_table = FaceTable(ref)

        self.kinematics = ProjectileKinematics(
            tip0=c.standoff,
            v0=c.v0,
            slabs=[(lower_lo, lower_hi), (upper_lo, 0.0)],
            drag=c.drag,
            min_speed=0.04,
        )
        self.channel_radius = c.channel_factor * c.proj_width / 2.0 * np.sqrt(2)

        # The crater and erosion fields at nose depth -inf, i.e. once
        # everything is reached: fixed per scene (reference coords, so
        # consistent across times); state_at only compares depths
        # against the nose position.
        def axis_at(zs: np.ndarray) -> np.ndarray:
            """Channel axis (x, y) at depth z — slanted when oblique."""
            ax = np.zeros((len(zs), 2))
            if c.obliquity:
                ax[:, 0] = c.obliquity * (c.standoff - zs)
            return ax

        self._proj_nodes = np.flatnonzero(self.node_body == self.PROJECTILE)
        self._plate_nodes = plate = np.flatnonzero(
            (self.node_body != self.PROJECTILE) & (self.node_body >= 0)
        )
        self._plate_z = ref.nodes[plate, 2]
        self._crater = crater_displacement(
            ref.nodes,
            axis_xy=axis_at(ref.nodes[:, 2]),
            tip_z=-np.inf,
            channel_radius=self.channel_radius,
            amplitude=c.crater_amplitude,
            decay=c.crater_decay,
        )[plate]
        self._in_channel = channel_erosion_mask(
            self._ref_centroids,
            axis_xy=axis_at(self._ref_centroids[:, 2]),
            tip_z=-np.inf,
            radius=self.channel_radius,
            body_id=ref.body_id,
            erodible_bodies=np.array([self.UPPER_PLATE, self.LOWER_PLATE]),
        )

    # ------------------------------------------------------------------
    def tip_at(self, time: float) -> float:
        """Projectile nose z at ``time``."""
        return float(self.kinematics.tip_at(np.array([time]))[0])

    def state_at(self, time: float) -> Tuple[Mesh, np.ndarray, float]:
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
        nodes[self._proj_nodes, 2] += tip - c.standoff
        if c.obliquity:
            nodes[self._proj_nodes, 0] += c.obliquity * (c.standoff - tip)

        # crater deformation of the plate nodes the nose has reached
        reached = self._plate_z >= tip
        nodes[self._plate_nodes[reached]] += self._crater[reached]

        eroded = self._in_channel & (self._ref_centroids[:, 2] >= tip)
        mesh = Mesh(nodes, ref.elements, ref.elem_type, ref.body_id)
        return mesh, ~eroded, tip
