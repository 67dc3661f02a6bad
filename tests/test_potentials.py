import dataclasses

import numpy as np
import pytest
from scipy.integrate import quad

from ringgpe.config import preset_config
from ringgpe.mesh import MeshParams, build_ring_mesh
from ringgpe.potentials import (
    OMEGA_STATIC_TOL,
    PotentialParams,
    eval_rotating,
    eval_total,
    eval_trap,
    phase_integral,
    phase_table,
    total_field,
    trap_field,
)

PARAMS = PotentialParams(m=10.0, V0=100.0, V_p=0.05, n_theta=6, omega=10 * np.pi / 3)


class TestTrap:
    def test_minimum_on_unit_circle(self):
        pts = np.array([[1.0, 0.0], [0.0, -1.0], [np.sqrt(0.5), np.sqrt(0.5)]])
        assert np.allclose(eval_trap(PARAMS, pts), -100.0)

    def test_known_value(self):
        # -100 * exp(-2*10*(1.2-1)^2) = -100 * exp(-0.8)
        v = eval_trap(PARAMS, np.array([[1.2, 0.0]]))
        assert v[0] == pytest.approx(-44.932896411722156, rel=1e-14)

    def test_radial(self):
        rng = np.random.default_rng(0)
        th = rng.uniform(0, 2 * np.pi, 50)
        pts_a = np.column_stack([1.17 * np.cos(th), 1.17 * np.sin(th)])
        v = eval_trap(PARAMS, pts_a)
        assert np.ptp(v) < 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            PotentialParams(m=0.0, V0=1.0)
        with pytest.raises(ValueError):
            PotentialParams(m=1.0, V0=1.0, V_p=1.5)
        with pytest.raises(ValueError):
            PotentialParams(m=1.0, V0=1.0, V_p=-0.1)


class TestRotating:
    def test_bounded_by_amplitude(self):
        rng = np.random.default_rng(1)
        pts = rng.uniform(-1.5, 1.5, (300, 2))
        for t in (0.0, 0.37, 2.0):
            v = eval_rotating(PARAMS, t, pts)
            assert np.abs(v).max() <= PARAMS.V_p * PARAMS.V0 + 1e-12

    def test_angular_wavenumber(self):
        # n_theta full oscillations around the circle at fixed t, r.
        th = np.linspace(0, 2 * np.pi, 720, endpoint=False)
        pts = np.column_stack([np.cos(th), np.sin(th)])
        v = eval_rotating(PARAMS, 0.0, pts)
        crossings = np.sum(np.sign(v[1:]) != np.sign(v[:-1]))
        assert crossings == 2 * PARAMS.n_theta

    def test_rotates_at_omega(self):
        # V_rot(t, theta) = V_rot(0, theta - omega t / n_theta)
        t = 0.123
        shift = PARAMS.omega * t / PARAMS.n_theta
        th = np.linspace(0, 2 * np.pi, 64, endpoint=False)
        pts = np.column_stack([np.cos(th), np.sin(th)])
        pts_shifted = np.column_stack([np.cos(th - shift), np.sin(th - shift)])
        a = eval_rotating(PARAMS, t, pts)
        b = eval_rotating(PARAMS, 0.0, pts_shifted)
        assert np.abs(a - b).max() < 1e-12

    def test_total_is_sum(self):
        pts = np.array([[0.9, 0.3], [-1.1, 0.2]])
        t = 0.7
        assert np.allclose(
            eval_total(PARAMS, t, pts),
            eval_trap(PARAMS, pts) + eval_rotating(PARAMS, t, pts))


class TestPhaseIntegral:
    @pytest.mark.parametrize("t,dt", [(0.0, 0.01), (0.31, 0.0006), (1.9, 0.2)])
    def test_matches_quadrature(self, t, dt):
        # Oracle: adaptive numeric quadrature of the time-dependent potential.
        pts = np.array([[1.05, 0.2], [0.7, -0.6], [-1.2, 0.1]])
        got = phase_integral(phase_table(PARAMS, pts), t, dt)
        for i, p in enumerate(pts):
            want, err = quad(lambda s: eval_total(PARAMS, t + s, p[None, :])[0],
                             0.0, dt, epsabs=1e-13, epsrel=1e-13)
            assert got[i] == pytest.approx(want, abs=max(1e-12, 10 * err))

    def test_static_branch_continuity(self):
        p_small = PotentialParams(m=10.0, V0=100.0, V_p=0.05, n_theta=6, omega=1e-13)
        p_zero = PotentialParams(m=10.0, V0=100.0, V_p=0.05, n_theta=6, omega=0.0)
        pts = np.array([[1.1, 0.4], [0.8, -0.2]])
        a = phase_integral(phase_table(p_small, pts), 0.5, 0.01)
        b = phase_integral(phase_table(p_zero, pts), 0.5, 0.01)
        assert np.abs(a - b).max() < 1e-12

    def test_static_branch_matches_quadrature(self):
        p_zero = PotentialParams(m=10.0, V0=100.0, V_p=0.05, n_theta=6, omega=0.0)
        pts = np.array([[1.1, 0.4]])
        got = phase_integral(phase_table(p_zero, pts), 0.2, 0.05)
        want, _ = quad(lambda s: eval_total(p_zero, 0.2 + s, pts[0][None, :])[0],
                       0.0, 0.05, epsabs=1e-13, epsrel=1e-13)
        assert got[0] == pytest.approx(want, abs=1e-12)

    def test_no_stirrer_reduces_to_trap(self):
        p = PotentialParams(m=10.0, V0=100.0)
        pts = np.array([[1.3, -0.1], [0.61, 0.0]])
        got = phase_integral(phase_table(p, pts), 0.9, 0.02)
        assert np.allclose(got, eval_trap(p, pts) * 0.02, rtol=1e-14)


def direct_phase_integral(params, t, dt, points):
    """The closed form evaluated point by point, one cosine pair per point."""
    theta = np.arctan2(points[:, 1], points[:, 0])
    trap = eval_trap(params, points)
    out = trap * dt
    if params.V_p != 0.0:
        phase = params.n_theta * theta
        if abs(params.omega) > OMEGA_STATIC_TOL:
            rot = (np.cos(phase - params.omega * (t + dt))
                   - np.cos(phase - params.omega * t)) / params.omega
        else:
            rot = np.sin(phase) * dt
        out = out + params.V_p * trap * rot
    return out


PAPER62 = preset_config("paper62")
TABLE_CASES = {
    "rotating": PAPER62.potential,
    "negative-omega": dataclasses.replace(PAPER62.potential,
                                          omega=-PAPER62.potential.omega),
    "below-static-tol": dataclasses.replace(PAPER62.potential,
                                            omega=0.5 * OMEGA_STATIC_TOL),
    "no-stirrer": dataclasses.replace(PAPER62.potential, V_p=0.0),
    "no-trap": dataclasses.replace(PAPER62.potential, V0=0.0),
}


@pytest.fixture(scope="module")
def paper62_centers():
    return build_ring_mesh(PAPER62.mesh).centers


class TestPhaseTable:
    # The table form combines cos/sin of omega t by angle addition; the
    # direct closed form is the reference, over the paper62 run's time span.
    @pytest.mark.parametrize("case", sorted(TABLE_CASES))
    def test_matches_direct_closed_form(self, paper62_centers, case):
        params = TABLE_CASES[case]
        table = phase_table(params, paper62_centers)
        tau = PAPER62.split.tau
        for t in np.linspace(0.0, PAPER62.split.t_max, 25):
            for dt in (tau, 0.5 * tau):
                want = direct_phase_integral(params, t, dt, paper62_centers)
                got = phase_integral(table, t, dt)
                assert np.abs(got - want).max() <= 1e-14


class TestFieldHelpers:
    def test_fields_on_mesh(self):
        mesh = build_ring_mesh(MeshParams(r_min=0.6, r_max=1.4, h=0.2))
        tf = trap_field(PARAMS, mesh)
        assert tf.values.dtype == np.float64
        assert np.array_equal(tf.values, eval_trap(PARAMS, mesh.centers))
        vf = total_field(PARAMS, 0.4, mesh)
        assert np.array_equal(vf.values, eval_total(PARAMS, 0.4, mesh.centers))
