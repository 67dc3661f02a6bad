"""Rotation sectors: the folded operator, solve and fold rule over every
divisor of N_p, and over every even one for antiperiodic sectors (sign -1),
the blocked slot-mode sweep against the serial one and the LAPACK oracle on
every sector, the one-solve kinetic step against the two-solve one it
replaced, the certificate that spares its second sparse product, and evolve
on a sector against the unfused full-mesh strang_step for the set-ups of
criteria 04, 06 and 07 and for the unstable state."""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import splu

from ringgpe.dynamics import (
    KineticFlow,
    SplitStepConfig,
    evolve,
    make_unstable_state,
)
import ringgpe.ground_state as gs_mod
from ringgpe.errors import NumericalError
from ringgpe.fv import Field, assemble_laplacian, normalize
from ringgpe.ground_state import (
    SOLVER_RESIDUAL_TOL,
    GradientFlowConfig,
    checked_solve,
    compute_ground_state,
    refinement_certificate,
)
from ringgpe.layout import (
    SlotFFTSolver,
    invariant_fold,
    residual_bounds,
    sector,
    sector_matrix,
    slot_view,
    tile,
)
from ringgpe.mesh import MeshParams, build_ring_mesh
from ringgpe.potentials import PotentialParams, phase_table
from test_dynamics import strang_step
from test_fv import SMALL_MESHES
from test_ground_state import CountingMatrix
from test_layout import SOLVER_CASES, StackedGttrsSolver, solver_with_blocks

M_EFF = 10.0
V0 = 100.0
GAMMA = 100.0
STATIC = PotentialParams(m=M_EFF, V0=V0)
STIR = PotentialParams(m=M_EFF, V0=V0, V_p=0.05, n_theta=6, omega=10.0 * math.pi / 3.0)

# The small test meshes of test_layout, N_p = 128, 63 and 3, and one of
# N_p = 6 whose sectors of one and three slots have antiperiodic forms.
MESHES = {
    "even": MeshParams(r_min=0.6, r_max=1.4, h=0.1, n_points=128),
    "odd": MeshParams(r_min=0.6, r_max=1.4, h=0.2),
    "three": MeshParams(r_min=0.6, r_max=1.4, h=0.2, n_circles=3, n_points=3),
    "six": MeshParams(r_min=0.6, r_max=1.4, h=0.2, n_circles=3, n_points=6),
}
N_POINTS = {"even": 128, "odd": 63, "three": 3, "six": 6}
FOLDS = [(name, k) for name, n_p in N_POINTS.items()
         for k in range(1, n_p + 1) if n_p % k == 0]
# Every fold with sign +1, and every even fold with sign -1: the field
# changes sign from one sector to the next (an antiperiodic sector).
SIGNED_FOLDS = [pytest.param(name, k, 1, id=f"{name}-{k}") for name, k in FOLDS] + [
    pytest.param(name, k, -1, id=f"{name}-{k}-antiperiodic") for name, k in FOLDS if k % 2 == 0]
PROPERTY = settings(derandomize=True, max_examples=5, deadline=None)


@functools.cache
def operator(name, bc):
    mesh = build_ring_mesh(MESHES[name])
    assert mesh.n_points == N_POINTS[name]
    return assemble_laplacian(mesh, bc)


def random_sector(mesh, fold, seed):
    rng = np.random.default_rng(seed)
    n = sector(mesh, fold).size
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def rel(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


class TestSectorProperties:
    @pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
    @pytest.mark.parametrize("name,fold,sign", SIGNED_FOLDS)
    @PROPERTY
    @given(seed=st.integers(0, 2**32 - 1), shift=st.floats(-2.0, 2.0),
           scale=st.complex_numbers(max_magnitude=1.0))
    def test_operator_matches_full_rows(self, name, fold, sign, bc, seed, shift, scale):
        op = operator(name, bc)
        mesh = op.mesh
        x = random_sector(mesh, fold, seed)
        got = sector_matrix(op, shift, scale, fold, sign) @ x
        want = (sector_matrix(op, shift, scale) @ tile(mesh, x, fold, sign))[sector(mesh, fold)]
        assert np.abs(got - want).max() <= 1e-13 * max(1.0, np.abs(want).max())

    @pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
    @pytest.mark.parametrize("name,fold,sign", SIGNED_FOLDS)
    def test_laplacian_self_adjoint_for_sector_areas(self, name, fold, sign, bc):
        # Wrapping alone leaves the rotation's round-off in the sector
        # matrix (a weighted asymmetry of 1e-14 on these meshes, 1e-12 on
        # paper62); symmetrized, it is as self-adjoint as A_T, a few ulp,
        # and at fold 1 it is A_T.
        op = operator(name, bc)
        mesh = op.mesh
        a_t = sector_matrix(op, 0.0, 1.0, fold, sign)
        weighted = a_t.multiply(mesh.areas[sector(mesh, fold)][:, None]).tocsr()
        defect = abs(weighted - weighted.T).max() / abs(weighted).max()
        assert defect <= 4 * np.finfo(float).eps
        if fold == 1:
            for part in ("data", "indices", "indptr"):
                assert np.array_equal(getattr(a_t, part), getattr(op.A_T, part))

    @pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
    @pytest.mark.parametrize("name,fold,sign", SIGNED_FOLDS)
    @PROPERTY
    @given(seed=st.integers(0, 2**32 - 1), tau=st.floats(1e-4, 1e-1))
    def test_solve_matches_splu_of_full_system(self, name, fold, sign, bc, seed, tau):
        # The Cayley system, refined against the sector rows, against a
        # sparse LU of the whole system on the tiled right-hand side.
        op = operator(name, bc)
        mesh = op.mesh
        z = 1j * tau / (4.0 * M_EFF)
        b = random_sector(mesh, fold, seed)
        solver = SlotFFTSolver(op, 1.0, -z, fold, sign)
        got = checked_solve(solver.solve, solver.matrix, b, "sector solve")
        want = splu(sector_matrix(op, 1.0, -z).tocsc()).solve(tile(mesh, b, fold, sign))
        assert rel(tile(mesh, got, fold, sign), want) <= 1e-12

    @pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
    @pytest.mark.parametrize("name,fold,sign", SIGNED_FOLDS)
    @settings(derandomize=True, max_examples=4, deadline=None)
    @given(case=st.sampled_from(sorted(SOLVER_CASES)), rhs=st.sampled_from(["real", "complex"]),
           seed=st.integers(0, 2**32 - 1))
    def test_blocked_sweep_matches_serial_and_stacked_gttrs(self, name, fold, sign, bc, case,
                                                             rhs, seed):
        # Every block count from 1 (the serial sweep) to one block per row;
        # most of them pad the last block. Unrefined, the sector solve of b
        # is the sector of the full solve of b tiled, which the oracle gives.
        op = operator(name, bc)
        mesh = op.mesh
        shift, scale = SOLVER_CASES[case]
        n = sector(mesh, fold).size
        rng = np.random.default_rng(seed)
        b = rng.standard_normal(n) + (1j * rng.standard_normal(n) if rhs == "complex" else 0.0)
        full = StackedGttrsSolver(op, shift, scale).solve(tile(mesh, b, fold, sign))
        want = full[sector(mesh, fold)]
        serial = solver_with_blocks(1, op, shift, scale, fold, sign).solve(b)
        assert serial.dtype == np.complex128 and rel(serial, want) <= 1e-13
        for blocks in range(2, 2 * mesh.n_bands + 1):
            got = solver_with_blocks(blocks, op, shift, scale, fold, sign).solve(b)
            assert got.dtype == np.complex128
            assert rel(got, serial) <= 1e-13
            assert rel(got, want) <= 1e-13

    @pytest.mark.parametrize("name,fold,sign", SIGNED_FOLDS)
    @PROPERTY
    @given(seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_fold_rule(self, name, fold, sign, seed, data):
        # A field tiled from a random sector of N_p/fold slots repeats
        # exactly that often, up to its sign; one entry nudged by one ulp
        # breaks every rotation.
        mesh = operator(name, "dirichlet").mesh
        values = tile(mesh, random_sector(mesh, fold, seed), fold, sign)
        assert invariant_fold(mesh, values, mesh.n_points) == (fold, sign)
        i = data.draw(st.integers(0, mesh.n_triangles - 1))
        values[i] = np.nextafter(values[i].real, np.inf) + 1j * values[i].imag
        assert invariant_fold(mesh, values, mesh.n_points) == (1, 1)

    def test_fold_rule_keeps_to_divisors_of_k0(self):
        # A field repeating every 2 of N_p = 128 slots (fold 64) gets the
        # largest divisor of k0 that it keeps; k0 must divide N_p. One that
        # changes sign every 2 slots also repeats every 4 (fold 32), and
        # the larger fold wins.
        mesh = operator("even", "dirichlet").mesh
        values = tile(mesh, random_sector(mesh, 64, 1), 64)
        assert invariant_fold(mesh, values, 32) == (32, 1)
        assert invariant_fold(mesh, values, 2) == (2, 1)
        with pytest.raises(ValueError, match="does not divide"):
            invariant_fold(mesh, values, 6)
        values = tile(mesh, random_sector(mesh, 64, 2), 64, -1)
        assert invariant_fold(mesh, values, 128) == (64, -1)
        assert invariant_fold(mesh, values, 32) == (32, 1)
        assert invariant_fold(mesh, values, 1) == (1, 1)

    def test_slot_view_of_tile_repeats_sector(self):
        mesh = operator("odd", "dirichlet").mesh
        x = random_sector(mesh, 7, 3)
        v = slot_view(mesh, tile(mesh, x, 7))
        assert np.array_equal(v[:, :9], x.reshape(mesh.n_bands, 9, 2))
        assert np.array_equal(v, np.roll(v, 9, axis=1))
        # With sign -1 every odd copy is negated.
        mesh = operator("even", "dirichlet").mesh
        x = random_sector(mesh, 4, 3)
        v = slot_view(mesh, tile(mesh, x, 4, -1))
        assert np.array_equal(v[:, :32], x.reshape(mesh.n_bands, 32, 2))
        assert np.array_equal(v, -np.roll(v, 32, axis=1))

    @pytest.mark.parametrize("fold,sign", [(3, -1), (1, -1), (2, 0), (2, 2)])
    def test_sign_needs_an_even_fold(self, fold, sign):
        op = operator("six", "dirichlet")
        x = random_sector(op.mesh, fold, 1)
        for call in (lambda: tile(op.mesh, x, fold, sign),
                     lambda: sector_matrix(op, 1.0, -0.1, fold, sign),
                     lambda: SlotFFTSolver(op, 1.0, -0.1, fold, sign)):
            with pytest.raises(ValueError, match=f"sign {sign} at fold {fold}"):
                call()

    @pytest.mark.parametrize("fold", [2, 4, 8, 16, 32, 64, 128])
    def test_antiperiodic_pivot_refusal_names_the_slot_mode(self, fold):
        # As in test_layout's test_zero_pivot_refused, a shift cancelling
        # row 0's diagonal zeroes the first pivot of every mode; the first
        # mode of an antiperiodic sector of fold k is k/2.
        op = operator("even", "dirichlet")
        scale = -0.01
        shift = -scale * op.slot_symbol[1, 0, 0].real
        with pytest.raises(NumericalError, match=rf"slot mode {fold // 2}: .* row 0 "):
            SlotFFTSolver(op, shift, scale, fold, -1)


class TestUnstableStateSymmetry:
    @pytest.mark.parametrize("name", ["even", "six"])
    def test_exactly_antisymmetric_for_even_n_points(self, name):
        # From a slot-invariant field, the state changes sign exactly under
        # the half-turn, and departs from the profile sampled at every
        # circumcenter only by the rounding of those centers.
        mesh = operator(name, "dirichlet").mesh
        u = Field(mesh, tile(mesh, np.random.default_rng(1).random(2 * mesh.n_bands),
                             mesh.n_points))
        got = make_unstable_state(u).values
        v = slot_view(mesh, got)
        assert np.array_equal(v, -np.roll(v, mesh.n_points // 2, axis=1))
        assert invariant_fold(mesh, got, mesh.n_points) == (2, -1)
        assert rel(got, every_center_unstable_state(u)) <= 1e-13

    @pytest.mark.parametrize("name", ["odd", "three"])
    def test_odd_n_points_keeps_the_every_center_formula(self, name):
        mesh = operator(name, "dirichlet").mesh
        u = Field(mesh, np.random.default_rng(2).random(mesh.n_triangles))
        assert np.array_equal(make_unstable_state(u).values, every_center_unstable_state(u))


def every_center_unstable_state(u_gs):
    """make_unstable_state with the profile sampled at every circumcenter,
    as it is for odd N_p."""
    x = u_gs.mesh.centers[:, 0]
    sign = np.where(x > 0.0, 1.0, -1.0)
    with np.errstate(divide="ignore"):
        damp = np.exp(-0.1 / np.abs(x))
    return normalize(Field(u_gs.mesh, u_gs.values * sign * damp)).values


class TestFoldedFlows:
    def test_kinetic_flow_takes_its_sector_only(self):
        # The flow of fold k maps the N_p/k slots of its sector; the values
        # of any other sector, or of the whole mesh, are refused.
        op = operator("odd", "dirichlet")
        mesh = op.mesh
        flow = KineticFlow(op, 1e-3, M_EFF, fold=3)
        assert flow.apply(random_sector(mesh, 3, 4)).shape == sector(mesh, 3).shape
        for values in (np.ones(mesh.n_triangles, complex), random_sector(mesh, 9, 4),
                       random_sector(mesh, 3, 4)[None, :]):
            with pytest.raises(ValueError, match="sector values"):
                flow.apply(values)


def desk_state(mesh, trap, bc, state):
    """(op, u, fold): the desk ground state for bc, on the fold its stirrer
    keeps (> 1), or the unstable state made from it on the whole mesh
    (fold 1). evolve steps that state at fold 2, sign -1; these tests
    drive it at fold 1, where every slot mode is solved."""
    op = assemble_laplacian(mesh, bc)
    gs = compute_ground_state(trap, op, M_EFF, GAMMA, GradientFlowConfig(kappa0=1e-2, epsilon=5e-3))
    assert gs.converged
    if state == "unstable":
        return op, make_unstable_state(gs.field).values, 1
    fold, sign = invariant_fold(mesh, gs.field.values, math.gcd(STIR.n_theta, mesh.n_points))
    assert fold > 1 and sign == 1
    return op, gs.field.values, fold


class TestKineticRefinement:
    """KineticFlow.apply refines its one slot-FFT solve with the identity
    against the path it replaced, a second solve: 2 checked_solve(...) - u."""

    @pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
    @pytest.mark.parametrize("state", ["unstable", "stirred"])
    def test_matches_solve_refined_path_over_300_steps(self, desk_mesh, desk_trap, bc, state,
                                                       monkeypatch):
        tau = 6e-4
        op, u, fold = desk_state(desk_mesh, desk_trap, bc, state)
        in_sector = sector(desk_mesh, fold)
        u = u[in_sector].astype(np.complex128)
        areas = desk_mesh.areas[in_sector]
        z = 1j * tau / (4.0 * M_EFF)
        solver = SlotFFTSolver(op, 1.0, -z, fold)
        flow = KineticFlow(op, tau, M_EFF, fold)

        calls = []
        solve = SlotFFTSolver.solve

        def counted(self, b):
            calls.append(b.shape)
            return solve(self, b)

        monkeypatch.setattr(SlotFFTSolver, "solve", counted)
        got = flow.apply(u)
        assert calls == [u.shape]
        monkeypatch.undo()

        want = u
        for _ in range(300):
            want = 2.0 * checked_solve(solver.solve, solver.matrix, want, "reference") - want
        for _ in range(299):
            got = flow.apply(got)
        assert rel(got, want) <= 1e-13
        mass0 = np.sum(areas * np.abs(u) ** 2)
        for w in (got, want):
            assert abs(np.sum(areas * np.abs(w) ** 2) - mass0) / mass0 <= 1e-14


# The small meshes of test_fv (N_p = 128, 63, 3 and 7, down to one band)
# and the desk mesh of conftest.
CERTIFIED_MESHES = {**SMALL_MESHES, "desk": MeshParams(r_min=0.6, r_max=1.4, h=0.06)}


@functools.cache
def certified_operator(name, bc):
    return assemble_laplacian(build_ring_mesh(CERTIFIED_MESHES[name]), bc)


def divisors(n):
    return [k for k in range(1, n + 1) if n % k == 0]


def smooth_sector(mesh, fold, wavenumber):
    """exp(i l k theta) cos(pi (r - 1) / 2) on the sector of fold k: it
    repeats every 2 pi / k and varies slowly in r and theta for small l."""
    c = mesh.centers[sector(mesh, fold)]
    r = np.hypot(c[:, 0], c[:, 1])
    theta = np.arctan2(c[:, 1], c[:, 0])
    return np.cos(0.5 * np.pi * (r - 1.0)) * np.exp(1j * wavenumber * fold * theta)


def two_product_step(solver, u):
    """The Cayley step as it was before the certificate: refine once with
    the identity, check the refined residual with a second product, 2x - u."""
    mat = solver.matrix
    scale = np.linalg.norm(u)
    x = solver.solve(u)
    x += u - mat @ x
    res = np.linalg.norm(mat @ x - u) / scale
    if not res <= SOLVER_RESIDUAL_TOL:
        raise NumericalError(f"kinetic solve residual {res:.3e} above contract")
    return 2.0 * x - u


class TestRefinementCertificate:
    """KineticFlow.apply certifies its refined residual from the
    refinement's own residual (ground_state.refinement_certificate) and
    makes one sparse product where the certificate clears the contract,
    with the bits and decisions of the two-product step."""

    @pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
    @settings(derandomize=True, max_examples=16, deadline=None)
    @given(name=st.sampled_from(sorted(CERTIFIED_MESHES)), data=st.data(),
           seed=st.integers(0, 2**32 - 1), tau=st.floats(1e-4, 1e-1), m=st.floats(0.5, 50.0),
           smooth=st.booleans())
    def test_certificate_bounds_the_exact_residual(self, bc, name, data, seed, tau, m, smooth):
        # Steps of the refined solve as checked_solve makes them, on the
        # sector of a random fold. On every step the certificate bounds
        # the residual of the refined x1 as the exact check computes it,
        # and as computed in extended precision.
        op = certified_operator(name, bc)
        mesh = op.mesh
        fold = data.draw(st.sampled_from(divisors(mesh.n_points)), label="fold")
        u = smooth_sector(mesh, fold, seed % 4) if smooth else random_sector(mesh, fold, seed)
        solver = SlotFFTSolver(op, 1.0, -1j * tau / (4.0 * m), fold)
        mat = solver.matrix
        wide = mat.astype(np.clongdouble)
        for _ in range(20):
            x = solver.solve(u)
            r = u - mat @ x
            cert = refinement_certificate(solver.bounds, np.linalg.norm(u), gs_mod._norm(x),
                                          gs_mod._norm(r))
            x += r
            computed = np.linalg.norm(mat @ x - u)
            extended = np.sqrt(np.sum(np.abs(wide @ x.astype(np.clongdouble) - u) ** 2))
            assert cert >= computed and cert >= extended
            u = 2.0 * x - u

    @pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
    @pytest.mark.parametrize("name", ["odd", "three", "one band"])
    def test_bounds_bound_the_two_norms(self, name, bc):
        # Against the singular values of the dense sector matrix, on every
        # fold, and within a factor 2 of ||M - I||_2, so the certificate is
        # not loose; a row holds a triangle and at most three neighbours.
        op = certified_operator(name, bc)
        for fold in divisors(op.mesh.n_points):
            mat = SlotFFTSolver(op, 1.0, -0.3j, fold).matrix
            bounds = residual_bounds(mat)
            dense = mat.toarray()
            gap = np.linalg.norm(dense - np.eye(len(dense)), 2)
            assert gap <= bounds.gap <= 2.0 * gap
            assert np.linalg.norm(np.abs(dense), 2) <= bounds.abs_norm
            k = np.diff(mat.indptr).max()
            assert bounds.rounding == 4 * (k + 2) * np.finfo(float).eps and k <= 4

    @pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
    @pytest.mark.parametrize("state", ["unstable", "stirred"])
    def test_matches_two_product_step_bit_for_bit(self, desk_mesh, desk_trap, bc, state):
        # 300 steps from the desk ground state (fold > 1) and the unstable
        # state (fold 1): every step is the two-product step's bits and
        # makes one product with the solver's matrix.
        tau = 6e-4
        op, u, fold = desk_state(desk_mesh, desk_trap, bc, state)
        u = u[sector(desk_mesh, fold)].astype(np.complex128)
        flow = KineticFlow(op, tau, M_EFF, fold)
        reference = SlotFFTSolver(op, 1.0, -1j * tau / (4.0 * M_EFF), fold)
        counter = flow._solver.matrix = CountingMatrix(flow._solver.matrix)
        got = want = u
        for step in range(1, 301):
            got = flow.apply(got)
            want = two_product_step(reference, want)
            assert np.array_equal(got, want)
            assert counter.products == step

    @pytest.mark.parametrize("bc,smooth,passes", [("neumann", True, True),
                                                  ("neumann", False, False),
                                                  ("dirichlet", False, False)])
    def test_perturbed_solve_falls_back_to_the_exact_residual(self, bc, smooth, passes,
                                                              monkeypatch):
        # A solve off by 1e-7 leaves the refinement's residual at 1e-7 u,
        # so the certificate, ~||M - I|| 1e-7 ||u|| with ||M - I|| ~ 0.7
        # here, cannot clear the contract and the exact residual decides
        # with a second product: z A_T 1e-7 u, within the contract for a
        # slowly varying u and above it for a rough one.
        op = certified_operator("desk", bc)
        mesh = op.mesh
        u = smooth_sector(mesh, 1, 1) if smooth else random_sector(mesh, 1, 5)
        flow = KineticFlow(op, 6e-4, M_EFF)
        counter = flow._solver.matrix = CountingMatrix(flow._solver.matrix)
        solve = SlotFFTSolver.solve
        monkeypatch.setattr(SlotFFTSolver, "solve", lambda self, b: (1 + 1e-7) * solve(self, b))
        x = flow._solver.solve(u)
        x += u - counter.mat @ x
        res = np.linalg.norm(counter.mat @ x - u) / np.linalg.norm(u)
        assert (res <= SOLVER_RESIDUAL_TOL) == passes
        if passes:
            assert np.array_equal(flow.apply(u), 2.0 * x - u)
        else:
            with pytest.raises(NumericalError, match=f"kinetic solve residual {res:.3e} above"):
                flow.apply(u)
        assert counter.products == 2

    def test_nan_solve_raises_residual_nan(self, monkeypatch):
        op = certified_operator("odd", "dirichlet")
        flow = KineticFlow(op, 1e-3, M_EFF)
        counter = flow._solver.matrix = CountingMatrix(flow._solver.matrix)
        monkeypatch.setattr(SlotFFTSolver, "solve", lambda self, b: np.full_like(b, np.nan))
        with pytest.raises(NumericalError, match="kinetic solve residual nan above contract"):
            flow.apply(random_sector(op.mesh, 1, 2))
        assert counter.products == 2


class TestFoldedAgainstFull:
    """evolve on its sector against strang_step on every triangle, from the
    desk ground state."""

    @staticmethod
    def unfused(u0, op, params, tau, n_steps, stride):
        kinetic = KineticFlow(op, tau, M_EFF)
        table = phase_table(params, u0.mesh.centers)
        psi = u0.values
        snapshots = [psi]
        for j in range(1, n_steps + 1):
            psi = strang_step(psi, (j - 1) * tau, kinetic, table, GAMMA)
            if j % stride == 0 or j == n_steps:
                snapshots.append(psi)
        return snapshots

    @pytest.mark.parametrize("setup", ["04 time study", "06 static", "07 stirred"])
    def test_matches_unfused_full_mesh(self, desk_op, desk_ground_state, setup):
        params, tau, n_steps, stride = {
            "04 time study": (STATIC, 0.1 / 2**8, 256, 64),
            "06 static": (STATIC, 5e-4, 200, 100),
            "07 stirred": (STIR, 6e-4, 250, 125),
        }[setup]
        n_p = desk_op.mesh.n_points
        u0 = desk_ground_state.field
        got = evolve(u0, desk_op, params, M_EFF, GAMMA,
                     SplitStepConfig(tau=tau, t_max=n_steps * tau, snapshot_stride=stride),
                     reference=u0)
        assert got.fold == (math.gcd(6, n_p) if params is STIR else n_p)
        want = self.unfused(u0, desk_op, params, tau, n_steps, stride)
        assert len(got.snapshots) == len(want)
        for a, b in zip(got.snapshots, want):
            assert rel(a.values, b) <= 1e-10
        assert rel(got.final.values, want[-1]) <= 1e-10

    @pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
    def test_unstable_state_matches_unfused_full_mesh(self, desk_mesh, desk_trap, bc):
        # The unstable state changes sign under the half-turn, so evolve
        # steps S = 109 of the desk mesh's 218 slots at sign -1.
        op, u, _ = desk_state(desk_mesh, desk_trap, bc, "unstable")
        u0 = Field(desk_mesh, u)
        tau, n_steps, stride = 6e-4, 200, 50
        got = evolve(u0, op, STATIC, M_EFF, GAMMA,
                     SplitStepConfig(tau=tau, t_max=n_steps * tau, snapshot_stride=stride))
        assert (got.fold, got.sign) == (2, -1)
        want = self.unfused(u0, op, STATIC, tau, n_steps, stride)
        assert len(got.snapshots) == len(want)
        for a, b in zip(got.snapshots, want):
            assert rel(a.values, b) <= 1e-10
        v = slot_view(desk_mesh, got.final.values)
        assert np.array_equal(v, -np.roll(v, 109, axis=1))

    def test_symmetry_broken_in_u0_takes_full_mesh(self, desk_op, desk_ground_state):
        # Seeding asymmetry in u0 is how a run asks for the full mesh.
        u0 = desk_ground_state.field.values.copy()
        u0[0] = np.nextafter(u0[0], np.inf)
        tau = 6e-4
        r = evolve(Field(desk_op.mesh, u0), desk_op, STIR, M_EFF, GAMMA,
                   SplitStepConfig(tau=tau, t_max=10 * tau), keep_snapshots=False)
        assert (r.fold, r.sign) == (1, 1)
