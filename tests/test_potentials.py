import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from ringgpe.config import preset_config
from ringgpe.mesh import MeshParams, build_ring_mesh
from ringgpe.potentials import (
    OMEGA_STATIC_TOL,
    PotentialParams,
    eval_total,
    phase_integral,
    phase_table,
    total_field,
    trap_field,
)

PARAMS = PotentialParams(m=10.0, V0=100.0, V_p=0.05, n_theta=6, omega=10 * np.pi / 3)
TRAP = dataclasses.replace(PARAMS, V_p=0.0)


def unit_circle(theta):
    return np.column_stack([np.cos(theta), np.sin(theta)])


class TestTrap:
    def test_minimum_on_unit_circle(self):
        pts = np.array([[1.0, 0.0], [0.0, -1.0], [np.sqrt(0.5), np.sqrt(0.5)]])
        assert np.allclose(eval_total(TRAP, 0.3, pts), -100.0)

    def test_known_value(self):
        # -100 * exp(-2*10*(1.2-1)^2) = -100 * exp(-0.8)
        v = eval_total(TRAP, 0.0, np.array([[1.2, 0.0]]))
        assert v[0] == pytest.approx(-44.932896411722156, rel=1e-14)

    def test_radial(self):
        rng = np.random.default_rng(0)
        th = rng.uniform(0, 2 * np.pi, 50)
        v = eval_total(TRAP, 0.8, 1.17 * unit_circle(th))
        assert np.ptp(v) < 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            PotentialParams(m=0.0, V0=1.0)
        with pytest.raises(ValueError):
            PotentialParams(m=1.0, V0=1.0, V_p=1.5)
        with pytest.raises(ValueError):
            PotentialParams(m=1.0, V0=1.0, V_p=-0.1)
        with pytest.raises(ValueError, match="V0"):
            PotentialParams(m=10.0, V0=float("nan"))
        with pytest.raises(ValueError, match="V0"):
            PotentialParams(m=10.0, V0=-5.0)


class TestRotating:
    # The stirrer is the total potential less the trap.
    def test_bounded_by_amplitude(self):
        rng = np.random.default_rng(1)
        pts = rng.uniform(-1.5, 1.5, (300, 2))
        for t in (0.0, 0.37, 2.0):
            v = eval_total(PARAMS, t, pts) - eval_total(TRAP, t, pts)
            assert np.abs(v).max() <= PARAMS.V_p * PARAMS.V0 + 1e-12

    def test_angular_wavenumber(self):
        # n_theta full oscillations around the circle at fixed t, r; the
        # samples sit half a spacing off the zeros of the stirrer.
        th = np.linspace(0, 2 * np.pi, 720, endpoint=False) + np.pi / 720
        v = eval_total(PARAMS, 0.0, unit_circle(th)) + PARAMS.V0
        crossings = np.sum(np.sign(v) != np.sign(np.roll(v, 1)))
        assert crossings == 2 * PARAMS.n_theta

    def test_rotates_at_omega(self):
        # V(t, theta) = V(0, theta - omega t / n_theta)
        t = 0.123
        shift = PARAMS.omega * t / PARAMS.n_theta
        th = np.linspace(0, 2 * np.pi, 64, endpoint=False)
        a = eval_total(PARAMS, t, 1.1 * unit_circle(th))
        b = eval_total(PARAMS, 0.0, 1.1 * unit_circle(th - shift))
        assert np.abs(a - b).max() < 1e-12


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
        assert np.allclose(got, eval_total(p, 0.9, pts) * 0.02, rtol=1e-14)


def composed_samples(params, t, points):
    """The trap and trap + stirrer as eval_trap + eval_rotating composed
    them (test oracle)."""
    pts = np.asarray(points, dtype=float)
    r = np.hypot(pts[..., 0], pts[..., 1])
    theta = np.arctan2(pts[..., 1], pts[..., 0])
    trap = -params.V0 * np.exp(-2.0 * params.m * (r - 1.0) ** 2)
    rotating = params.V_p * trap * np.sin(params.n_theta * theta - params.omega * t)
    return trap, trap + rotating


def direct_phase_integral(params, t, dt, points):
    """The closed form evaluated point by point, one cosine pair per point."""
    trap, _ = composed_samples(params, 0.0, points)
    theta = np.arctan2(points[:, 1], points[:, 0])
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
def paper62_mesh():
    return build_ring_mesh(PAPER62.mesh)


@pytest.fixture(scope="module")
def paper62_centers(paper62_mesh):
    return paper62_mesh.centers


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


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestComposedOracle:
    """The one-pass samplers against the trap + stirrer composition, bit for bit."""

    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(case=st.sampled_from(sorted(TABLE_CASES)), t=st.floats(-5.0, 5.0),
           seed=st.integers(0, 2**32 - 1))
    def test_random_points(self, case, t, seed):
        params = TABLE_CASES[case]
        pts = np.random.default_rng(seed).uniform(-1.6, 1.6, (64, 2))
        trap, total = composed_samples(params, t, pts)
        assert same_bits(eval_total(params, t, pts), total)
        assert same_bits(phase_table(params, pts).trap, trap)

    @pytest.mark.parametrize("case", sorted(TABLE_CASES))
    def test_paper62_centers(self, paper62_mesh, case):
        params = TABLE_CASES[case]
        mesh = paper62_mesh
        trap, _ = composed_samples(params, 0.0, mesh.centers)
        assert same_bits(trap_field(params, mesh).values, trap)
        assert same_bits(phase_table(params, mesh.centers).trap, trap)
        for t in (0.0, 0.37, PAPER62.split.t_max):
            _, total = composed_samples(params, t, mesh.centers)
            assert same_bits(total_field(params, t, mesh).values, total)
            assert same_bits(eval_total(params, t, mesh.centers), total)


class TestFieldHelpers:
    def test_fields_on_mesh(self):
        mesh = build_ring_mesh(MeshParams(r_min=0.6, r_max=1.4, h=0.2))
        tf = trap_field(PARAMS, mesh)
        assert tf.values.dtype == np.float64
        assert np.array_equal(tf.values, eval_total(TRAP, 0.0, mesh.centers))
        vf = total_field(PARAMS, 0.4, mesh)
        assert np.array_equal(vf.values, eval_total(PARAMS, 0.4, mesh.centers))
