"""Projectile kinematics.

The projectile travels along −z (the plate normal). In free flight it
moves at ``v0`` per unit time; while its nose is inside a plate slab it
decelerates by a constant factor per unit time, which produces the
qualitative EPIC behaviour: fast approach, slow grind through each
plate, slower exit. Positions are integrated once up front so any
snapshot time can be queried in O(1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence, Tuple

import numpy as np

from repro.utils.validation import check_positive


@dataclass
class ProjectileKinematics:
    """Closed-form-ish tip trajectory through resisting slabs.

    Attributes
    ----------
    tip0:
        Initial nose z-coordinate.
    v0:
        Free-flight speed (> 0, distance per unit time, moving −z).
    slabs:
        ``(z_lo, z_hi)`` intervals providing resistance.
    drag:
        Fractional speed loss per unit time while the nose is inside a
        slab (0 = none, e.g. 0.04 = 4%/unit-time).
    min_speed:
        Speed floor so the projectile never stalls completely (keeps
        all 100 snapshots distinct, as in the EPIC run).
    """

    tip0: float
    v0: float
    slabs: Sequence[Tuple[float, float]]
    drag: float = 0.03
    min_speed: float = 0.05

    def __post_init__(self) -> None:
        check_positive("v0", self.v0)
        if not 0.0 <= self.drag < 1.0:
            raise ValueError(f"drag must be in [0, 1), got {self.drag}")
        if self.min_speed <= 0:
            raise ValueError("min_speed must be > 0")

    def tip_at(self, times: np.ndarray) -> np.ndarray:
        """Nose z-coordinate at each of the (sorted) ``times``.

        Integrated with unit sub-steps between 0 and ``max(times)``.
        """
        times = np.atleast_1d(np.asarray(times, dtype=float))
        if (times < 0).any():
            raise ValueError("times must be non-negative")
        t_end = float(times.max()) if len(times) else 0.0
        n_sub = int(np.ceil(t_end)) + 1
        zs = np.empty(n_sub + 1)
        zs[0] = self.tip0
        z, v = self.tip0, self.v0
        for i in range(n_sub):
            inside = any(lo <= z <= hi for lo, hi in self.slabs)
            if inside:
                v = max(self.min_speed, v * (1.0 - self.drag))
            z = z - v
            zs[i + 1] = z
        # linear interpolation between the integer sub-steps
        return np.interp(times, np.arange(n_sub + 1, dtype=float), zs)
