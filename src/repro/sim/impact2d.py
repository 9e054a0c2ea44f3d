"""2D contact/impact scene: a punch driven through two bars.

The paper's machinery is dimension-generic (axis-parallel *lines* in
2D, planes in 3D); this scene exercises every 2D code path end to end:
quad meshes, edge contact faces, 2D decision trees/descriptors, 2D RCB,
and segment-based local search. Geometry: a square punch descends
(−y) through two horizontal bars, eroding a slot.

Bodies: 0 = punch, 1 = upper bar, 2 = lower bar.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.mesh.generators import merge_meshes, structured_quad_mesh
from repro.mesh.mesh import Mesh
from repro.mesh.surface import FaceTable
from repro.obs.tracer import TracerBase
from repro.sim.motion import ProjectileKinematics
from repro.sim.sequence import (
    MeshSequence,
    Near,
    snapshot_sequence,
)
from repro.utils.validation import check_positive


@dataclass
class Impact2DConfig:
    """Geometry and dynamics of the 2D punch scene."""

    bar_nx: int = 48
    bar_ny: int = 4
    bar_length: float = 12.0
    bar_thickness: float = 1.0
    bar_gap: float = 1.0
    punch_n: int = 6
    punch_len_elems: int = 16
    punch_width: float = 1.5
    punch_length: float = 4.0
    standoff: float = 1.0
    v0: float = 0.12
    drag: float = 0.30
    n_steps: int = 100
    channel_factor: float = 0.8
    crater_amplitude: float = 0.10
    crater_decay: float = 1.0
    capture_halfwidth: float = 3.0

    def __post_init__(self) -> None:
        for name in ("bar_nx", "bar_ny", "punch_n", "punch_len_elems",
                     "n_steps"):
            check_positive(name, getattr(self, name))
        for name in ("bar_length", "bar_thickness", "punch_width",
                     "punch_length", "v0", "capture_halfwidth"):
            check_positive(name, getattr(self, name))


class Impact2DSimulator:
    """Stateful 2D scene; mirrors :class:`~repro.sim.projectile.ImpactSimulator`."""

    PUNCH, UPPER_BAR, LOWER_BAR = 0, 1, 2

    def __init__(self, config: Impact2DConfig):
        self.config = c = config
        half = c.bar_length / 2.0
        upper_lo = -c.bar_thickness
        lower_hi = upper_lo - c.bar_gap
        lower_lo = lower_hi - c.bar_thickness

        punch = structured_quad_mesh(
            c.punch_n, c.punch_len_elems,
            origin=(-c.punch_width / 2, c.standoff),
            size=(c.punch_width, c.punch_length),
        )
        upper = structured_quad_mesh(
            c.bar_nx, c.bar_ny,
            origin=(-half, upper_lo),
            size=(c.bar_length, c.bar_thickness),
        )
        lower = structured_quad_mesh(
            c.bar_nx, c.bar_ny,
            origin=(-half, lower_lo),
            size=(c.bar_length, c.bar_thickness),
        )
        self.reference = ref = merge_meshes([punch, upper, lower])
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
        self.channel_halfwidth = c.channel_factor * c.punch_width / 2.0

        # Crater and erosion once everything is reached: fixed per
        # scene; state_at only compares depths against the nose.
        self._punch_nodes = np.flatnonzero(self.node_body == self.PUNCH)
        self._bar_nodes = bar = np.flatnonzero(
            (self.node_body != self.PUNCH) & (self.node_body >= 0)
        )
        self._bar_y = ref.nodes[bar, 1]
        # bars bulge sideways near the slot, slightly downward
        x = ref.nodes[bar, 0]
        mag = c.crater_amplitude * np.exp(
            -np.maximum(0.0, np.abs(x) - self.channel_halfwidth)
            / max(c.crater_decay, 1e-12)
        )
        self._crater = np.column_stack((np.sign(x) * mag, -0.35 * mag))
        # bar elements inside the slot
        self._in_slot = np.isin(
            ref.body_id, [self.UPPER_BAR, self.LOWER_BAR]
        ) & (np.abs(self._ref_centroids[:, 0]) <= self.channel_halfwidth)

    def tip_at(self, time: float) -> float:
        """Punch nose y at ``time``."""
        return float(self.kinematics.tip_at(np.array([time]))[0])

    def state_at(self, time: float) -> Tuple[Mesh, np.ndarray, float]:
        """Scene at ``time``: (deformed mesh, alive mask, nose y)."""
        if time < 0:
            raise ValueError("time must be >= 0")
        c = self.config
        tip = self.tip_at(time)
        ref = self.reference
        nodes = ref.nodes.copy()
        nodes[self._punch_nodes, 1] += tip - c.standoff

        reached = self._bar_y >= tip
        nodes[self._bar_nodes[reached]] += self._crater[reached]

        eroded = self._in_slot & (self._ref_centroids[:, 1] >= tip)
        mesh = Mesh(nodes, ref.elements, ref.elem_type, ref.body_id)
        return mesh, ~eroded, tip


def _within_halfwidth(capture_halfwidth: float) -> Near:
    """Edge midpoint within ``capture_halfwidth`` of the punch axis."""
    return lambda mid: np.abs(mid[:, 0]) <= capture_halfwidth


def simulate_impact_2d(
    config: Optional[Impact2DConfig] = None,
    n_snapshots: Optional[int] = None,
    tracer: Optional[TracerBase] = None,
) -> MeshSequence:
    """Run the 2D punch scene and dump snapshots (cf.
    :func:`repro.sim.sequence.simulate_impact`)."""
    sim = Impact2DSimulator(config or Impact2DConfig())
    near = _within_halfwidth(sim.config.capture_halfwidth)
    return snapshot_sequence(sim, n_snapshots, sim.PUNCH, near, tracer)
