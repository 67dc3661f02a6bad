import functools
import warnings
from collections import Counter

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from ringgpe import dynamics
from ringgpe.dynamics import (
    EvolveResult,
    KineticFlow,
    SplitStepConfig,
    evolve,
    flow_potential,
    make_unstable_state,
    order_estimate,
)
from ringgpe.errors import NumericalError
from ringgpe.fv import Field, assemble_laplacian, inner_product, norm, normalize
from ringgpe.ground_state import GradientFlowConfig, compute_ground_state, energy
from ringgpe.mesh import MeshParams, build_ring_mesh
from ringgpe.potentials import PotentialParams, phase_integral, phase_table, trap_field

M_EFF = 10.0
V0 = 100.0
GAMMA = 100.0
STIR = PotentialParams(m=M_EFF, V0=V0, V_p=0.05, n_theta=6, omega=10 * np.pi / 3)
STATIC = PotentialParams(m=M_EFF, V0=V0)


def strang_step(u, t, kinetic, table, gamma):
    """One unfused splitting step over [t, t + tau].

    The plain composition that evolve, which fuses neighbouring half-flows,
    is tested against; u, kinetic and table belong to one sector.
    """
    tau = kinetic.tau
    w = flow_potential(u, t, 0.5 * tau, table, gamma)
    w = kinetic.apply(w)
    return flow_potential(w, t + 0.5 * tau, 0.5 * tau, table, gamma)


@pytest.fixture(scope="module")
def tiny():
    mesh = build_ring_mesh(MeshParams(r_min=0.6, r_max=1.4, h=0.2))
    op = assemble_laplacian(mesh, "dirichlet")
    return mesh, op


@pytest.fixture(scope="module")
def tiny_gs(tiny):
    mesh, op = tiny
    trap = trap_field(STATIC, mesh)
    res = compute_ground_state(trap, op, M_EFF, GAMMA,
                               GradientFlowConfig(kappa0=1e-2, epsilon=5e-3))
    assert res.converged
    return res.field


def random_state(mesh, seed=0):
    rng = np.random.default_rng(seed)
    return normalize(Field(mesh, rng.standard_normal(mesh.n_triangles)
                           + 1j * rng.standard_normal(mesh.n_triangles)))


class TestPotentialFlow:
    def test_modulus_preserved(self, tiny):
        mesh, _ = tiny
        u = random_state(mesh, 1).values
        w = flow_potential(u, 0.2, 0.01, phase_table(STIR, mesh.centers), GAMMA)
        assert np.abs(np.abs(w) - np.abs(u)).max() < 1e-15

    def test_static_linear_phase(self, tiny):
        # gamma = 0, no stirrer: w = exp(-i V_pot dt) u exactly.
        mesh, _ = tiny
        u = random_state(mesh, 2).values
        dt = 0.037
        w = flow_potential(u, 1.3, dt, phase_table(STATIC, mesh.centers), 0.0)
        expect = u * np.exp(-1j * trap_field(STATIC, mesh).values * dt)
        assert np.abs(w - expect).max() < 1e-14

    def test_nonlinear_phase(self, tiny):
        # V0 = 0: pure nonlinear phase dt * gamma * |u|^2.
        mesh, _ = tiny
        free = PotentialParams(m=M_EFF, V0=0.0)
        u = random_state(mesh, 3)
        dt = 0.01
        w = flow_potential(u.values, 0.0, dt, phase_table(free, mesh.centers), GAMMA)
        expect = u.values * np.exp(-1j * dt * GAMMA * u.abs2())
        assert np.abs(w - expect).max() < 1e-14

    @settings(derandomize=True, max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), t=st.floats(0.0, 3.0), dt=st.floats(1e-4, 1.0),
           real=st.booleans())
    def test_rotation_matches_complex_exponential(self, tiny, seed, t, dt, real):
        # The rotation by cos and sin of the phase equals the product with
        # exp(-i phase) to the last bit of each component.
        mesh, _ = tiny
        values = random_state(mesh, seed).values
        if real:
            values = values.real.copy()
        table = phase_table(STIR, mesh.centers)
        phase = phase_integral(table, t, dt) + dt * GAMMA * (values.real**2 + values.imag**2)
        got = flow_potential(values, t, dt, table, GAMMA)
        want = values * np.exp(-1j * phase)
        assert got.dtype == np.complex128
        ulp = np.spacing(np.abs(values))
        assert np.all(np.abs(got.real - want.real) <= ulp)
        assert np.all(np.abs(got.imag - want.imag) <= ulp)

    def test_half_steps_compose_to_full(self, tiny):
        # Adjacent half-flows fuse exactly because the modulus is invariant.
        mesh, _ = tiny
        u = random_state(mesh, 4).values
        table = phase_table(STIR, mesh.centers)
        t = 0.11
        tau = 0.004
        two_halves = flow_potential(
            flow_potential(u, t, 0.5 * tau, table, GAMMA),
            t + 0.5 * tau, 0.5 * tau, table, GAMMA)
        full = flow_potential(u, t, tau, table, GAMMA)
        assert np.abs(two_halves - full).max() < 1e-13


class TestKineticFlow:
    def test_norm_preserved_single(self, tiny):
        mesh, op = tiny
        u = random_state(mesh, 5)
        w = KineticFlow(op, 6e-4, M_EFF).apply(u.values)
        assert abs(norm(Field(mesh, w)) - 1.0) < 1e-10

    def test_norm_drift_over_1000_steps(self, tiny):
        mesh, op = tiny
        flow = KineticFlow(op, 6e-4, M_EFF)
        u = random_state(mesh, 6).values
        for _ in range(1000):
            u = flow.apply(u)
        assert abs(norm(Field(mesh, u)) - 1.0) < 1e-8

    def test_cayley_phase_on_eigenvector(self, tiny):
        # A_T phi = -lambda phi => flow multiplies phi by the unit-modulus
        # Cayley factor (1 - i tau lambda / 4m)/(1 + i tau lambda / 4m).
        mesh, op = tiny
        a = op.mesh.areas
        s = np.sqrt(a)
        sym = -op.A.toarray() / np.outer(s, s)
        w, v = scipy.linalg.eigh(sym)
        lam, vec = w[0], v[:, 0] / s
        phi = normalize(Field(mesh, vec.astype(np.complex128)))
        tau = 0.01
        out = KineticFlow(op, tau, M_EFF).apply(phi.values)
        z = tau * lam / (4.0 * M_EFF)
        factor = (1.0 - 1j * z) / (1.0 + 1j * z)
        assert np.abs(out - factor * phi.values).max() < 1e-9

    def test_neumann_constant_is_fixed_point(self, tiny):
        mesh, _ = tiny
        opn = assemble_laplacian(mesh, "neumann")
        u = normalize(Field.constant(mesh, 1.0 + 0j))
        w = KineticFlow(opn, 0.01, M_EFF).apply(u.values)
        assert np.abs(w - u.values).max() < 1e-10

    def test_zero_field_maps_to_zero(self, tiny):
        mesh, op = tiny
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w = KineticFlow(op, 6e-4, M_EFF).apply(np.zeros(mesh.n_triangles, complex))
        assert not np.any(w)

    def test_validation(self, tiny):
        mesh, op = tiny
        with pytest.raises(ValueError):
            KineticFlow(op, -0.1, M_EFF)
        other = build_ring_mesh(MeshParams(r_min=0.6, r_max=1.4, h=0.3))
        with pytest.raises(ValueError, match="sector values"):
            KineticFlow(op, 0.01, M_EFF).apply(np.ones(other.n_triangles, complex))


class TestEvolve:
    def test_fused_matches_unfused(self, tiny, tiny_gs):
        # evolve fuses neighbouring half-flows; a plain strang_step loop is
        # the reference.
        mesh, op = tiny
        cfg = SplitStepConfig(tau=6e-4, t_max=0.06, snapshot_stride=25)
        r = evolve(tiny_gs, op, STIR, M_EFF, GAMMA, cfg)
        kinetic = KineticFlow(op, cfg.tau, M_EFF)
        table = phase_table(STIR, mesh.centers)
        psi = tiny_gs.values
        snapshots = [psi]
        for j in range(1, cfg.n_steps + 1):
            psi = strang_step(psi, (j - 1) * cfg.tau, kinetic, table, GAMMA)
            if j % cfg.snapshot_stride == 0 or j == cfg.n_steps:
                snapshots.append(psi)
        assert np.abs(r.final.values - psi).max() < 1e-12
        assert np.allclose(r.times, [0.0, 0.015, 0.03, 0.045, 0.06], rtol=0, atol=1e-15)
        assert len(r.snapshots) == len(snapshots)
        for a, b in zip(r.snapshots, snapshots):
            assert np.abs(a.values - b).max() < 1e-12

    def test_emission_schedule(self, tiny, tiny_gs):
        mesh, op = tiny
        cfg = SplitStepConfig(tau=0.001, t_max=0.01, snapshot_stride=3)
        r = evolve(tiny_gs, op, STATIC, M_EFF, GAMMA, cfg)
        assert np.allclose(r.times, [0.0, 0.003, 0.006, 0.009, 0.01])
        assert len(r.snapshots) == r.times.size
        assert r.mass.shape == r.times.shape
        assert r.energy.shape == r.times.shape

    def test_mass_conserved(self, tiny, tiny_gs):
        mesh, op = tiny
        cfg = SplitStepConfig(tau=6e-4, t_max=0.3)
        r = evolve(tiny_gs, op, STIR, M_EFF, GAMMA, cfg)
        assert abs(r.mass[-1] - r.mass[0]) < 1e-10

    def test_ground_state_energy_stable_without_stirring(self, tiny, tiny_gs):
        mesh, op = tiny
        cfg = SplitStepConfig(tau=6e-4, t_max=0.12, snapshot_stride=50)
        r = evolve(tiny_gs, op, STATIC, M_EFF, GAMMA, cfg, reference=tiny_gs)
        assert np.abs(r.energy - r.energy[0]).max() < 1e-3 * abs(r.energy[0])
        assert r.err_reference.max() < 5e-3

    def test_on_emit_callback(self, tiny, tiny_gs):
        mesh, op = tiny
        seen = []
        cfg = SplitStepConfig(tau=0.001, t_max=0.004, snapshot_stride=2)
        evolve(tiny_gs, op, STATIC, M_EFF, GAMMA, cfg,
               on_emit=lambda step, t, psi: seen.append(step),
               keep_snapshots=False)
        assert seen == [0, 2, 4]

    def test_nan_abort_reports_step(self, tiny, tiny_gs, monkeypatch):
        mesh, op = tiny
        orig = KineticFlow.apply
        calls = {"n": 0}

        def poisoned(self, u):
            # evolve steps the values of its sector, not Fields.
            calls["n"] += 1
            out = orig(self, u)
            if calls["n"] == 3:
                out = np.full_like(out, np.nan)
            return out

        monkeypatch.setattr(KineticFlow, "apply", poisoned)
        cfg = SplitStepConfig(tau=0.001, t_max=0.01)
        with pytest.raises(NumericalError, match="step 3"):
            evolve(tiny_gs, op, STATIC, M_EFF, GAMMA, cfg)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SplitStepConfig(tau=0.0, t_max=1.0)
        with pytest.raises(ValueError):
            SplitStepConfig(tau=0.001, t_max=-1.0)
        with pytest.raises(ValueError):
            SplitStepConfig(tau=0.0003, t_max=0.001).n_steps

    def test_step_count_checked_where_made(self):
        with pytest.raises(ValueError, match="integer number of steps"):
            SplitStepConfig(tau=0.3, t_max=1.0)
        with pytest.raises(ValueError, match="integer number of steps"):
            SplitStepConfig(tau=5e-324, t_max=3.0)  # t_max / tau overflows
        assert SplitStepConfig(tau=0.25, t_max=1.0).n_steps == 4

    def test_strang_step_matches_evolve_single(self, tiny, tiny_gs):
        mesh, op = tiny
        tau = 0.002
        kin = KineticFlow(op, tau, M_EFF)
        one = strang_step(tiny_gs.values, 0.0, kin, phase_table(STIR, mesh.centers), GAMMA)
        r = evolve(tiny_gs, op, STIR, M_EFF, GAMMA,
                   SplitStepConfig(tau=tau, t_max=tau))
        assert np.abs(one - r.final.values).max() < 1e-13


class TestSpanContract:
    # The benchmark's per-layer spans wrap these names where evolve looks
    # them up; a step that stops calling one of them would read as free.
    GLOBALS = ("flow_potential", "phase_integral", "energy", "total_field", "norm")

    @pytest.mark.parametrize("n_steps,stride,reference", [
        (10, 3, True), (9, 3, False), (4, 0, True), (1, 1, False)])
    def test_exact_call_counts(self, tiny, tiny_gs, monkeypatch,
                               n_steps, stride, reference):
        mesh, op = tiny
        calls = Counter()

        def counting(owner, name):
            fn = getattr(owner, name)

            @functools.wraps(fn)
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            monkeypatch.setattr(owner, name, counted)

        for name in self.GLOBALS:
            counting(dynamics, name)
        counting(KineticFlow, "__init__")
        counting(KineticFlow, "apply")
        tau = 1e-3
        cfg = SplitStepConfig(tau=tau, t_max=n_steps * tau, snapshot_stride=stride)
        r = evolve(tiny_gs, op, STIR, M_EFF, GAMMA, cfg,
                   reference=tiny_gs if reference else None, keep_snapshots=False)
        # Emissions at step 0, every stride-th step before the last, and the last.
        inner = (n_steps - 1) // stride if stride else 0
        emissions = 2 + inner
        assert r.times.size == emissions
        # One leading half-flow, n_steps - 1 fused full flows, one trailing
        # half-flow, and a half-flow onto a copy at every inner emission.
        flows = n_steps + 1 + inner
        assert calls == Counter({
            "__init__": 1,
            "apply": n_steps,
            "flow_potential": flows,
            "phase_integral": flows,
            "energy": emissions,
            "total_field": emissions,
            "norm": emissions * (2 if reference else 1),
        })


class TestOrder:
    def test_second_order_in_time(self, tiny, tiny_gs):
        mesh, op = tiny
        T = 0.1
        finals = {}
        for k in range(6, 10):
            cfg = SplitStepConfig(tau=T / 2**k, t_max=T)
            finals[k] = evolve(tiny_gs, op, STATIC, M_EFF, GAMMA, cfg,
                               keep_snapshots=False).final
        for k in (7, 8):
            m_phi = order_estimate(finals[k - 1], finals[k], finals[k + 1])
            assert 1.8 < m_phi < 2.2

    def test_degenerate_estimate_raises(self, tiny, tiny_gs):
        mesh, op = tiny
        u = Field(mesh, tiny_gs.values.astype(complex))
        with pytest.raises(NumericalError):
            order_estimate(u, u, u)


class TestUnstableState:
    def test_shape_and_norm(self, desk_mesh, desk_ground_state):
        u = make_unstable_state(desk_ground_state.field)
        assert abs(norm(u) - 1.0) < 1e-12
        x = desk_mesh.centers[:, 0]
        # Sign flip across the x=0 line, damped near it.
        right = u.values[x > 0.2]
        left = u.values[x < -0.2]
        assert (right > 0).all()
        assert (left < 0).all()
        near = np.abs(u.values[np.abs(x) < 0.005])
        far = np.abs(u.values[np.abs(x) > 0.5]).max()
        if near.size:
            assert near.max() < 1e-6 * far

    def test_antisymmetric_under_mirror(self, desk_mesh, desk_ground_state):
        u = make_unstable_state(desk_ground_state.field)
        mirrored = desk_mesh.centers * np.array([-1.0, 1.0])
        # Match each triangle with its mirror image by circumcenter.
        order_orig = np.lexsort((np.round(desk_mesh.centers[:, 1], 9),
                                 np.round(desk_mesh.centers[:, 0], 9)))
        order_mirr = np.lexsort((np.round(mirrored[:, 1], 9),
                                 np.round(mirrored[:, 0], 9)))
        pos_err = np.abs(desk_mesh.centers[order_orig] - mirrored[order_mirr]).max()
        assert pos_err < 1e-9
        vals = u.values[order_orig] + u.values[order_mirr]
        assert np.abs(vals).max() < 1e-12
