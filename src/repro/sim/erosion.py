"""Element erosion: carving the penetration channel.

EPIC-style Lagrangian penetration codes delete ("erode") fully failed
elements. The synthetic analogue: a plate element dies once the
projectile nose has passed its depth *and* its centroid lies within the
channel radius of the projectile axis. Erosion is monotone — dead
elements stay dead — because the nose never rises and the test is
``centroid z >= tip_z``; nothing accumulates masks.
"""

from __future__ import annotations

import numpy as np


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
