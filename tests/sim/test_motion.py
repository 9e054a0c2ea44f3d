"""Tests for projectile kinematics."""

import numpy as np
import pytest

from repro.sim.motion import ProjectileKinematics


def free_flight():
    return ProjectileKinematics(tip0=1.0, v0=0.5, slabs=[], drag=0.0)


class TestFreeFlight:
    def test_constant_speed(self):
        k = free_flight()
        z = k.tip_at(np.array([0.0, 1.0, 2.0, 4.0]))
        assert z[0] == pytest.approx(1.0)
        assert np.allclose(np.diff(z), [-0.5, -0.5, -1.0])

    def test_interpolation_between_substeps(self):
        k = free_flight()
        assert k.tip_at(np.array([0.5]))[0] == pytest.approx(0.75)


class TestDrag:
    def test_slows_inside_slab(self):
        k = ProjectileKinematics(
            tip0=1.0, v0=0.5, slabs=[(-5.0, 0.0)], drag=0.3, min_speed=0.01
        )
        z = k.tip_at(np.arange(0, 20, dtype=float))
        speeds = -np.diff(z)
        # speed before entering the slab vs after several slab steps
        assert speeds[0] == pytest.approx(0.5)
        assert speeds[-1] < 0.25

    def test_min_speed_floor(self):
        k = ProjectileKinematics(
            tip0=0.0, v0=0.5, slabs=[(-100.0, 100.0)], drag=0.9,
            min_speed=0.05,
        )
        z = k.tip_at(np.arange(0, 30, dtype=float))
        speeds = -np.diff(z)
        assert speeds.min() >= 0.05 - 1e-9

    def test_monotone_descent(self):
        k = ProjectileKinematics(
            tip0=2.0, v0=0.3, slabs=[(-1.0, 0.0), (-3.0, -2.0)], drag=0.2
        )
        z = k.tip_at(np.arange(0, 50, dtype=float))
        assert (np.diff(z) < 0).all()

    def test_no_reacceleration_after_exit(self):
        """Speed lost in a slab stays lost (no propulsion)."""
        k = ProjectileKinematics(
            tip0=1.0, v0=0.5, slabs=[(-2.0, 0.0)], drag=0.5, min_speed=0.01
        )
        z = k.tip_at(np.arange(0, 40, dtype=float))
        speeds = -np.diff(z)
        below = z[:-1] < -2.0  # steps after exiting the slab
        if below.any():
            exit_speeds = speeds[below]
            assert exit_speeds.max() <= speeds[0] / 2 + 1e-9


class TestValidation:
    def test_bad_drag(self):
        with pytest.raises(ValueError, match="drag"):
            ProjectileKinematics(tip0=0, v0=1, slabs=[], drag=1.5)

    def test_bad_v0(self):
        with pytest.raises(ValueError, match="v0"):
            ProjectileKinematics(tip0=0, v0=0, slabs=[])

    def test_bad_min_speed(self):
        with pytest.raises(ValueError, match="min_speed"):
            ProjectileKinematics(tip0=0, v0=1, slabs=[], min_speed=0)

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            free_flight().tip_at(np.array([-1.0]))
