import math
import subprocess
import sys
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse as sp

import ringgpe.ground_state as gs_mod
from ringgpe.errors import NumericalError
from ringgpe.fv import Field, assemble_laplacian, inner_product, norm
from ringgpe.ground_state import (
    GradientFlowConfig,
    checked_solve,
    compute_ground_state,
    energy,
    gradient_flow_step,
)
from ringgpe.layout import ResidualBounds, residual_bounds, slot_shifted
from ringgpe.mesh import MeshParams, build_ring_mesh
from ringgpe.potentials import PotentialParams, trap_field
from test_harness import thread_env

M_EFF = 10.0


def energy_gradient(u, trap, op, m, gamma):
    """Full-mesh oracle: the energy gradient for the area-weighted real
    inner product, -(1/m) A_T U + 2 V U + 2 gamma |U|^2 U."""
    g = (-1.0 / m) * (op.A_T @ u.values) \
        + 2.0 * trap.values.real * u.values \
        + 2.0 * gamma * u.abs2() * u.values
    return Field(u.mesh, g)


def residual_criterion(u, grad):
    """Full-mesh oracle: the norm of grad projected on the tangent of the
    unit sphere at u."""
    proj = grad.values - inner_product(grad, u) * u.values
    return norm(Field(u.mesh, proj))


@pytest.fixture(scope="module")
def tiny():
    mesh = build_ring_mesh(MeshParams(r_min=0.6, r_max=1.4, h=0.2))
    op = assemble_laplacian(mesh, "dirichlet")
    trap = trap_field(PotentialParams(m=M_EFF, V0=100.0), mesh)
    return mesh, op, trap


def dense_linear_modes(op, trap_values, m):
    """Oracle: dense symmetric eigendecomposition of -(1/2m) A_T + diag(V).

    The area weight D makes A_T self-adjoint; D^(1/2) H D^(-1/2) is plain
    symmetric, solvable by LAPACK.
    """
    a = op.mesh.areas
    s = np.sqrt(a)
    h_sym = (-0.5 / m) * (op.A.toarray() / np.outer(s, s)) + np.diag(trap_values)
    w, v = scipy.linalg.eigh(h_sym)
    return w, v / s[:, None]


class TestEnergyAndGradient:
    def test_gradient_matches_finite_differences(self, tiny):
        mesh, op, trap = tiny
        rng = np.random.default_rng(0)
        u = Field(mesh, rng.standard_normal(mesh.n_triangles)
                  + 1j * rng.standard_normal(mesh.n_triangles))
        w = Field(mesh, rng.standard_normal(mesh.n_triangles)
                  + 1j * rng.standard_normal(mesh.n_triangles))
        g = energy_gradient(u, trap, op, M_EFF, 100.0)
        t = 1e-6
        up = Field(mesh, u.values + t * w.values)
        um = Field(mesh, u.values - t * w.values)
        fd = (energy(up, trap, op, M_EFF, 100.0)
              - energy(um, trap, op, M_EFF, 100.0)) / (2 * t)
        assert fd == pytest.approx(inner_product(g, w), rel=1e-6)

    def test_eigenfield_energy_is_scaled_eigenvalue(self, tiny):
        # gamma = 0, V = 0: E(phi_k) = lambda_k / (2m) for -A_T phi = lambda phi.
        mesh, op, _ = tiny
        zero_trap = Field.constant(mesh, 0.0)
        w, v = dense_linear_modes(op, np.zeros(mesh.n_triangles), M_EFF)
        for k in (0, 1, 5):
            phi = Field(mesh, v[:, k])
            phi = Field(mesh, phi.values / norm(phi))
            got = energy(phi, zero_trap, op, M_EFF, 0.0)
            assert got == pytest.approx(w[k], rel=1e-10)

    def test_residual_vanishes_on_exact_eigenvector(self, tiny):
        mesh, op, trap = tiny
        w, v = dense_linear_modes(op, trap.values, M_EFF)
        phi = Field(mesh, v[:, 0])
        phi = Field(mesh, phi.values / norm(phi))
        g = energy_gradient(phi, trap, op, M_EFF, 0.0)
        assert residual_criterion(phi, g) < 1e-8

    def test_residual_positive_off_eigenvector(self, tiny):
        mesh, op, trap = tiny
        u = Field.constant(mesh, 1.0)
        u = Field(mesh, u.values / norm(u))
        g = energy_gradient(u, trap, op, M_EFF, 0.0)
        assert residual_criterion(u, g) > 1.0


class TestFlow:
    def test_linear_ground_state_matches_dense_oracle(self, tiny):
        mesh, op, trap = tiny
        res = compute_ground_state(trap, op, M_EFF, 0.0,
                                   GradientFlowConfig(kappa0=1e-2, epsilon=1e-5))
        w, v = dense_linear_modes(op, trap.values, M_EFF)
        assert res.converged
        assert res.energy == pytest.approx(w[0], rel=1e-8)
        phi = Field(mesh, v[:, 0] / norm(Field(mesh, v[:, 0])))
        overlap = abs(inner_product(res.field, phi))
        assert overlap == pytest.approx(1.0, abs=1e-6)

    def test_free_ground_state_matches_lowest_mode(self, tiny):
        mesh, op, _ = tiny
        zero_trap = Field.constant(mesh, 0.0)
        res = compute_ground_state(zero_trap, op, M_EFF, 0.0,
                                   GradientFlowConfig(kappa0=1e-2, epsilon=1e-5))
        w, _ = dense_linear_modes(op, np.zeros(mesh.n_triangles), M_EFF)
        assert res.energy == pytest.approx(w[0], rel=1e-8)

    def test_energy_strictly_decreasing_and_normalized(self, tiny):
        mesh, op, trap = tiny
        res = compute_ground_state(trap, op, M_EFF, 100.0,
                                   GradientFlowConfig(kappa0=1e-2, epsilon=5e-3))
        assert res.converged
        assert np.all(np.diff(res.energies) < 0)
        assert norm(res.field) == pytest.approx(1.0, abs=1e-12)
        assert res.residual <= 5e-3
        assert res.energies.size == res.iterations + 1

    def test_interaction_raises_energy(self, tiny):
        mesh, op, trap = tiny
        cfg = GradientFlowConfig(kappa0=1e-2, epsilon=1e-4)
        e_lin = compute_ground_state(trap, op, M_EFF, 0.0, cfg).energy
        e_rep = compute_ground_state(trap, op, M_EFF, 100.0, cfg).energy
        assert e_rep > e_lin

    def test_oversized_step_gets_rejected_then_converges(self, tiny):
        mesh, op, trap = tiny
        res = compute_ground_state(trap, op, M_EFF, 100.0,
                                   GradientFlowConfig(kappa0=50.0, epsilon=5e-3))
        assert res.converged
        assert res.n_rejections >= 1
        assert res.final_kappa < 50.0

    def test_underflowing_step_is_rejected_without_warnings(self, tiny):
        mesh, op, trap = tiny
        # At kappa = 1e300, W ~ U / kappa: its squares underflow to 0, so it
        # has no norm to renormalize by. The flow must back off from there
        # without dividing by that norm.
        problem = gs_mod.SlotInvariantProblem(trap, op, M_EFF, 100.0)
        u = np.ones_like(problem.weight)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert gradient_flow_step(u / problem.norm(u), problem, 1e300) is None
            res = compute_ground_state(trap, op, M_EFF, 100.0,
                                       GradientFlowConfig(kappa0=1e300))
        assert res.converged
        assert res.iterations == 28
        assert res.energy == pytest.approx(-56.624065, abs=1e-6)
        assert res.n_rejections > 900  # halvings from 1e300 down to ~1e-2

    def test_kappa_underflow_aborts(self, tiny, monkeypatch):
        mesh, op, trap = tiny
        # Flat mock energy: every candidate ties, every tie rejects.
        monkeypatch.setattr(gs_mod.SlotInvariantProblem, "energy", lambda *a, **k: 1.0)
        with pytest.raises(NumericalError, match="underflow"):
            compute_ground_state(trap, op, M_EFF, 100.0,
                                 GradientFlowConfig(kappa0=1e-2, epsilon=1e-30))

    def test_max_iters_returns_unconverged(self, tiny):
        mesh, op, trap = tiny
        res = compute_ground_state(trap, op, M_EFF, 100.0,
                                   GradientFlowConfig(kappa0=1e-2, epsilon=1e-12,
                                                      max_iters=3))
        assert not res.converged
        assert res.iterations == 3

    def test_mismatched_mesh_rejected(self, tiny):
        mesh, op, trap = tiny
        other = build_ring_mesh(MeshParams(r_min=0.6, r_max=1.4, h=0.3))
        bad_trap = trap_field(PotentialParams(m=M_EFF, V0=100.0), other)
        with pytest.raises(ValueError):
            compute_ground_state(bad_trap, op, M_EFF, 100.0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GradientFlowConfig(kappa0=0.0)
        with pytest.raises(ValueError):
            GradientFlowConfig(epsilon=-1.0)
        with pytest.raises(ValueError):
            GradientFlowConfig(max_iters=0)


# Bounds whose certificate never clears the contract: checked_solve then
# refines with the identity and decides by the exact residual.
NEVER_CERTIFIED = ResidualBounds(gap=math.inf, abs_norm=1.0, rounding=0.0, floor=0.0)


class TestCheckedSolve:
    MAT = np.diag([1.0, 2.0, 4.0])
    RHS = np.array([1.0, -1.0, 2.0])

    def test_exact_solve_passes(self):
        x = checked_solve(lambda b: b / np.diag(self.MAT), self.MAT, self.RHS, "diag")
        assert np.array_equal(x, [1.0, -0.5, 0.5])

    def test_refinement_recovers_inexact_solve(self):
        x = checked_solve(lambda b: (1 + 1e-7) * b / np.diag(self.MAT),
                          self.MAT, self.RHS, "diag")
        assert np.abs(self.MAT @ x - self.RHS).max() < 1e-12

    def test_identity_refine_contracts_by_theta(self):
        # With mat = I - i diag(theta), I - mat = i diag(theta): the identity
        # as refine multiplies the error, and with it the residual, by theta
        # in each component. A solve off by 1e-7 leaves the residual 1e-7 rhs.
        rhs = self.RHS.astype(complex)
        for theta, passes in ((np.array([1e-4, 2e-4, 4e-4]), True),
                              (np.array([0.1, 0.2, 0.4]), False)):
            mat = np.eye(3) - 1j * np.diag(theta)

            def solve(b):
                return (1 + 1e-7) * b / np.diag(mat)

            before = np.linalg.norm(mat @ solve(rhs) - rhs)
            factor = np.linalg.norm(theta * rhs) / np.linalg.norm(rhs)
            assert factor <= theta.max()
            if passes:
                x = checked_solve(solve, mat, rhs, "diag", NEVER_CERTIFIED)
                after = np.linalg.norm(mat @ x - rhs)
                assert after / before == pytest.approx(factor, rel=1e-3)
            else:
                # 0.339e-7 left: refused, with the refined residual named.
                with pytest.raises(NumericalError, match="diag residual 3.39"):
                    checked_solve(solve, mat, rhs, "diag", NEVER_CERTIFIED)

    def test_nan_residual_fails(self):
        with pytest.raises(NumericalError, match="diag residual nan"):
            checked_solve(lambda b: np.full_like(b, np.nan), self.MAT, self.RHS, "diag")

    def test_nan_refine_fails(self):
        # The first solve is exact; only the refinement, the second solve,
        # spoils x, so the check runs on the refined x.
        calls = []

        def solve(b):
            calls.append(b)
            return b / np.diag(self.MAT) if len(calls) == 1 else np.full_like(b, np.nan)

        with pytest.raises(NumericalError, match="diag residual nan"):
            checked_solve(solve, self.MAT, self.RHS, "diag")
        assert len(calls) == 2

    def test_zero_rhs_gives_zero(self):
        x = checked_solve(lambda b: b / 0.0, self.MAT, np.zeros(3, complex), "diag")
        assert x.dtype == complex and not np.any(x)

    def test_certificate_skips_the_second_product(self):
        # The theta example with bounds: the refinement's residual is
        # 1e-7 rhs, so the certificate is ~max(theta) 1e-7 ||rhs||. For
        # theta ~ 1e-4 that clears the contract with one product; for
        # theta ~ 0.1 it does not, and the exact residual decides with a
        # second product, as where the certificate never clears, and names
        # the same value.
        rhs = self.RHS.astype(complex)
        for theta, products in ((np.array([1e-4, 2e-4, 4e-4]), 1),
                                (np.array([0.1, 0.2, 0.4]), 2)):
            mat = CountingMatrix(np.eye(3) - 1j * np.diag(theta))
            bounds = residual_bounds(sp.csr_matrix(mat.mat))

            def solve(b):
                return (1 + 1e-7) * b / np.diag(mat.mat)

            if products == 1:
                want = checked_solve(solve, mat.mat, rhs, "diag", NEVER_CERTIFIED)
                got = checked_solve(solve, mat, rhs, "diag", bounds)
                assert np.array_equal(got, want)
            else:
                with pytest.raises(NumericalError, match="diag residual 3.39"):
                    checked_solve(solve, mat, rhs, "diag", bounds)
            assert mat.products == products

    def test_without_bounds_every_check_is_exact(self):
        # Without bounds (the gradient flow's second solve), and with bounds
        # that never clear, the refined residual is computed.
        for bounds in (None, NEVER_CERTIFIED):
            mat = CountingMatrix(self.MAT)
            checked_solve(lambda b: b / np.diag(self.MAT), mat, self.RHS, "diag", bounds)
            assert mat.products == 2

    def test_bounds_pick_the_refinement(self):
        # Without bounds the refinement is a second solve; with them it is
        # the identity, x = x0 + r0, and the one solve is the only one.
        rhs = self.RHS.astype(complex)
        for bounds, want_calls in ((None, 2), (NEVER_CERTIFIED, 1),
                                   (residual_bounds(sp.csr_matrix(self.MAT)), 1)):
            calls = []

            def solve(b):
                calls.append(b)
                return (1 + 1e-12) * b / np.diag(self.MAT)

            x = checked_solve(solve, self.MAT, rhs, "diag", bounds)
            x0 = (1 + 1e-12) * rhs / np.diag(self.MAT)
            r0 = rhs - self.MAT @ x0
            if bounds is None:
                assert np.array_equal(x, x0 + (1 + 1e-12) * r0 / np.diag(self.MAT))
            else:
                assert np.array_equal(x, x0 + r0)
            assert len(calls) == want_calls


# The energy of a fixed field on the paper62 mesh (39 852 values: above
# the length from which OpenBLAS splits a dot product across threads).
ENERGY_CHILD = """
import numpy as np
from ringgpe.config import preset_config
from ringgpe.fv import Field, assemble_laplacian
from ringgpe.ground_state import energy
from ringgpe.mesh import build_ring_mesh
from ringgpe.potentials import trap_field
cfg = preset_config("paper62")
mesh = build_ring_mesh(cfg.mesh)
rng = np.random.default_rng(62)
u = Field(mesh, rng.standard_normal(mesh.n_triangles)
          + 1j * rng.standard_normal(mesh.n_triangles))
op = assemble_laplacian(mesh, cfg.bc)
print(repr(energy(u, trap_field(cfg.potential, mesh), op, cfg.potential.m, cfg.gamma)))
"""


def test_energy_does_not_depend_on_the_thread_count():
    # energy feeds the hashed observables.csv, so its bits must not follow
    # the BLAS thread count of the machine that runs it.
    values = [subprocess.run([sys.executable, "-c", ENERGY_CHILD], env=thread_env(threads),
                             check=True, capture_output=True, text=True,
                             timeout=300).stdout
              for threads in (1, 2)]
    assert values[0] == values[1]


class CountingMatrix:
    """A matrix that counts its products with a vector."""

    def __init__(self, mat):
        self.mat = mat
        self.shape = mat.shape
        self.products = 0

    def __matmul__(self, x):
        self.products += 1
        return self.mat @ x


class TestDeskGroundState:
    def test_converges_with_framed_parameters(self, desk_ground_state):
        res = desk_ground_state
        assert res.converged
        assert res.residual <= 5e-3
        assert np.all(np.diff(res.energies) < 0)

    def test_rotational_symmetry(self, desk_mesh, desk_ground_state):
        # Rotation by 2*pi/N_p moves every triangle one slot on.
        perm = slot_shifted(desk_mesh, np.arange(desk_mesh.n_triangles), [1])[0]
        vals = desk_ground_state.field.values
        assert np.abs(vals[perm] - vals).max() < 1e-6

    def test_density_peaks_on_trap_ring(self, desk_mesh, desk_ground_state):
        dens = desk_ground_state.field.abs2()
        r = np.hypot(desk_mesh.centers[:, 0], desk_mesh.centers[:, 1])
        assert abs(r[np.argmax(dens)] - 1.0) < 0.05

    def test_real_and_positive(self, desk_ground_state):
        vals = desk_ground_state.field.values
        assert not np.iscomplexobj(vals)
        assert vals.min() > 0.0
