"""Slot-FFT solver: layout, symbol, the sector-matrix builder, differential
tests against the stacked LAPACK solver and splu, the blocked sweep against
the serial one, the pivot guard, the mode-0 gradient flow against the
full-mesh flow, and unitarity of the Cayley flow the solver drives."""

import functools
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import lapack
from scipy.sparse.linalg import splu

from ringgpe import dynamics, ground_state, layout
from ringgpe.config import preset_config
from ringgpe.errors import NumericalError
from ringgpe.dynamics import KineticFlow, SplitStepConfig, evolve, make_unstable_state
from ringgpe.fv import Field, assemble_laplacian, norm, normalize
from ringgpe.ground_state import (
    KAPPA_MIN,
    GradientFlowConfig,
    SlotInvariantProblem,
    compute_ground_state,
    energy,
    gradient_flow_step,
)
from ringgpe.layout import (
    SlotFFTSolver,
    checked_solve,
    mode0_rows,
    sector_matrix,
    slot_defect,
    slot_labels,
    slot_symbol,
    slot_view,
    tile_mode0,
)
from ringgpe.mesh import MeshParams, build_ring_mesh, triangle_shells
from ringgpe.potentials import PotentialParams, trap_field
from conftest import shifted_triangles
from test_fv import same_bits
from test_ground_state import energy_gradient, residual_criterion

M_EFF = 10.0
GAMMA = 100.0
STATIC = PotentialParams(m=M_EFF, V0=100.0)

# Even N_p, odd N_p, and the smallest ring the mesh builder accepts.
MESHES = {
    "even": MeshParams(r_min=0.6, r_max=1.4, h=0.1, n_points=128),
    "odd": MeshParams(r_min=0.6, r_max=1.4, h=0.2),
    "three": MeshParams(r_min=0.6, r_max=1.4, h=0.2, n_circles=3, n_points=3),
}


@pytest.fixture(scope="module", params=sorted(MESHES))
def mesh(request):
    return build_ring_mesh(MESHES[request.param])


@pytest.fixture(scope="module")
def small():
    mesh = build_ring_mesh(MESHES["odd"])
    return {bc: assemble_laplacian(mesh, bc) for bc in ("dirichlet", "neumann")}


@functools.cache
def cached_mesh(name):
    return build_ring_mesh(preset_config("paper62").mesh if name == "paper62" else MESHES[name])


def full_symbol(mesh, mat):
    """slot_symbol in every slot mode, its coefficients summed by np.add.at:
    the reference for slot_symbol in some of the modes."""
    n_b, n_p = mesh.n_bands, mesh.n_points
    mat = sp.csr_matrix(mat)
    c = mat.indices
    r = np.repeat(np.arange(mat.shape[0], dtype=c.dtype), np.diff(mat.indptr))
    j = 2 * (r // (2 * n_p)) + 1 - r % 2
    off = 2 * (c // (2 * n_p)) + 1 - c % 2 - j
    d = ((c // 2 - r // 2 + 1) % n_p) - 1
    coef = np.zeros((3, 3, 2 * n_b), dtype=mat.dtype)
    np.add.at(coef, (off + 1, d + 1, j), mat.data)
    coef /= n_p
    q = np.arange(n_p)
    phase = np.exp(2j * np.pi / n_p * np.outer(q, [-1, 0, 1]))
    return np.einsum("odj,qd->oqj", coef, phase)


def random_complex(mesh, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(mesh.n_triangles) + 1j * rng.standard_normal(mesh.n_triangles)


def splu_gradient_flow_step(u, trap, op, m, gamma, kappa):
    """The gradient-flow step with a fresh sparse LU: the reference path."""
    diag = kappa * (2.0 * trap.values.real + 2.0 * gamma * u.abs2())
    mat = (sp.diags(1.0 + diag) - (kappa / m) * op.A_T).tocsc()
    lu = splu(mat)

    def solve(b):
        if np.iscomplexobj(b):
            return lu.solve(b.real) + 1j * lu.solve(b.imag)
        return lu.solve(b)

    w = checked_solve(solve, mat, u.values, "linear solve")
    return normalize(Field(u.mesh, w))


def full_mesh_ground_state(trap, op, m, gamma, config):
    """The gradient flow on every triangle with splu steps: the reference
    for compute_ground_state's mode-0 flow. Returns (field, iterations,
    rejections)."""
    u = normalize(Field.constant(op.mesh, 1.0))
    e = energy(u, trap, op, m, gamma)
    res = residual_criterion(u, energy_gradient(u, trap, op, m, gamma))
    kappa, iterations, rejections = config.kappa0, 0, 0
    while res > config.epsilon and iterations < config.max_iters:
        candidate = splu_gradient_flow_step(u, trap, op, m, gamma, kappa)
        e_new = energy(candidate, trap, op, m, gamma)
        if e_new < e:
            u, e, iterations = candidate, e_new, iterations + 1
            res = residual_criterion(u, energy_gradient(u, trap, op, m, gamma))
        else:
            rejections += 1
            kappa *= 0.5
            assert kappa >= KAPPA_MIN
    return u, iterations, rejections


def rel(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


def solver_with_blocks(blocks, *args):
    """SlotFFTSolver(*args) with its sweeps split into the given number of blocks."""
    with mock.patch.object(layout, "sweep_blocks", lambda n_rows, n_slots: blocks):
        return SlotFFTSolver(*args)


class StackedGttrsSolver:
    """The slot-FFT solve through LAPACK: the reference for the in-place sweep.

    The modes are stacked end to end as one tridiagonal system (zero
    couplings at the mode boundaries), factored by one ?gttrf with partial
    pivoting; a solve copies b into (slot mode, band, 1 - kind) order, takes
    the FFT, calls ?gttrs, and undoes both.
    """

    def __init__(self, op, shift, scale):
        self.mesh = op.mesh
        diags = scale * slot_symbol(self.mesh, op.A_T, np.arange(self.mesh.n_points))
        diags[1] += shift
        gttrf, self.gttrs = lapack.get_lapack_funcs(("gttrf", "gttrs"),
                                                    dtype=np.complex128)
        *self.lu, info = gttrf(diags[0].ravel()[1:], diags[1].ravel(),
                               diags[2].ravel()[:-1])
        assert info == 0

    def solve(self, b):
        mesh = self.mesh
        bh = np.fft.fft(slot_view(mesh, b).transpose(1, 0, 2)[:, :, ::-1], axis=0)
        xh, info = self.gttrs(*self.lu, bh.reshape(-1, 1))
        assert info == 0
        x = np.fft.ifft(xh.reshape(mesh.n_points, mesh.n_bands, 2), axis=0)
        return x[:, :, ::-1].transpose(1, 0, 2).reshape(-1)


# (shift, scale) pairs of the solver and of sector_matrix: real, complex
# scale (the Cayley matrix), complex shift and scale, and complex shift
# with real scale.
SOLVER_CASES = {
    "real": (1.5, -0.01),
    "cayley": (1.0, -1j * 6e-3 / (4.0 * M_EFF)),
    "complex": (1.0 + 0.5j, -0.01 + 0.02j),
}
MATRIX_CASES = {**SOLVER_CASES, "complex shift": (1.0 + 0.5j, -0.01)}


class TestLayout:
    def test_slot_view_matches_index_order(self, mesh):
        # Triangle 2*(band*N_p + slot) + kind sits at (band, slot, kind) of
        # the view, and slot_labels maps it back there.
        idx = slot_view(mesh, np.arange(mesh.n_triangles))
        b, s, k = np.indices(idx.shape)
        assert np.array_equal(idx, 2 * (b * mesh.n_points + s) + k)
        for got, want in zip(slot_labels(mesh, idx), (b, s, k)):
            assert np.array_equal(got, want)

    def test_slot_shift_by_one_is_rotation(self, mesh):
        idx = shifted_triangles(mesh, np.arange(mesh.n_triangles), [0, 1, mesh.n_points])
        assert np.array_equal(idx[0], np.arange(mesh.n_triangles))
        # Rotating by 2*pi/N_p carries each circumcenter onto that of the
        # triangle one slot on.
        c = 2 * np.pi / mesh.n_points
        rot = np.array([[np.cos(c), -np.sin(c)], [np.sin(c), np.cos(c)]])
        assert np.abs(mesh.centers @ rot.T - mesh.centers[idx[1]]).max() < 1e-12
        assert np.array_equal(idx[2], idx[0])

    @pytest.mark.parametrize("name", ["odd", "three"])
    def test_shells_are_slot_shifted_templates(self, name):
        # Rotation by 2*pi/N_p is an automorphism of the adjacency graph, so
        # every shell equals the (band, 0, kind) shell shifted in slot, also
        # where shells wrap around the ring or run empty.
        mesh = build_ring_mesh(MESHES[name])
        templates = {}
        for t in range(mesh.n_triangles):
            b, s, k = (int(label) for label in slot_labels(mesh, t))
            if (b, k) not in templates:
                templates[b, k] = triangle_shells(mesh, 2 * b * mesh.n_points + k, 6)
            shells = triangle_shells(mesh, t, 6)
            for got, tmpl in zip(shells, templates[b, k]):
                want = shifted_triangles(mesh, tmpl, [s])[0]
                assert np.array_equal(got, np.sort(want))
        if name == "three":
            assert shells[-1].size == 0  # the whole graph lies within 6 hops

    def test_slot_defect(self, mesh):
        r = np.hypot(mesh.centers[:, 0], mesh.centers[:, 1])
        assert slot_defect(mesh, r) < 1e-14
        bumped = r.copy()
        bumped[7] += 0.25
        assert slot_defect(mesh, bumped) == pytest.approx(0.25, rel=1e-12)

    @pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
    def test_symbol_reproduces_operator(self, mesh, bc):
        # Applying the symbol mode by mode equals A_T @ x.
        op = assemble_laplacian(mesh, bc)
        sym = slot_symbol(mesh, op.A_T, np.arange(mesh.n_points))
        x = random_complex(mesh, 1)
        xh = np.fft.fft(slot_view(mesh, x), axis=1).transpose(1, 0, 2)[:, :, ::-1]
        xh = xh.reshape(mesh.n_points, -1)
        yh = sym[1] * xh
        yh[:, 1:] += sym[0][:, 1:] * xh[:, :-1]
        yh[:, :-1] += sym[2][:, :-1] * xh[:, 1:]
        assert not sym[0][:, 0].any() and not sym[2][:, -1].any()
        yh = yh.reshape(mesh.n_points, mesh.n_bands, 2)[:, :, ::-1].transpose(1, 0, 2)
        y = np.fft.ifft(yh, axis=1).ravel()
        assert rel(y, op.A_T @ x) < 1e-13

    @pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
    @pytest.mark.parametrize("name", sorted(MESHES) + ["paper62"])
    def test_symbol_of_some_modes_is_the_full_symbol_there(self, name, bc):
        # The modes of every sector: q = k p for each divisor fold k of N_p,
        # and q = k p + k/2 for each even one (an antiperiodic sector).
        mesh = cached_mesh(name)
        mat = assemble_laplacian(mesh, bc).A_T
        full = full_symbol(mesh, mat)
        n_p = mesh.n_points
        for fold in (k for k in range(1, n_p + 1) if n_p % k == 0):
            for first in (0, fold // 2) if fold % 2 == 0 else (0,):
                modes = np.arange(first, n_p, fold)
                got = slot_symbol(mesh, mat, modes)
                assert got.shape == (3, n_p // fold, 2 * mesh.n_bands)
                assert same_bits(got, full[:, modes])

    def test_coupling_outside_band_rejected(self, mesh):
        # Triangle 0 is (band 0, slot 0, kind 0); column 2 N_p is kind 0 of
        # band 1, column 4 is kind 0 two slots on (one slot back if N_p = 3).
        op = assemble_laplacian(mesh, "dirichlet")
        far = [2 * mesh.n_points] + ([4] if mesh.n_points > 3 else [])
        for col in far:
            bad = op.A_T + sp.csr_matrix(([1.0], ([0], [col])), shape=op.A_T.shape)
            with pytest.raises(ValueError, match="tridiagonal"):
                slot_symbol(mesh, bad, [0])

    def test_refinement_absorbs_slot_defect(self, mesh):
        # The solver factors a slot-invariant system; the refinement step of
        # checked_solve against an assembled matrix that departs from it
        # slot by slot corrects the difference.
        op = assemble_laplacian(mesh, "dirichlet")
        rng = np.random.default_rng(2)
        shift = 1.0 + 1e-9 * rng.standard_normal(mesh.n_triangles)
        mat = (sp.diags(shift) - 0.01 * op.A_T).tocsr()
        b = rng.standard_normal(mesh.n_triangles)
        x = checked_solve(SlotFFTSolver(op, 1.0, -0.01).solve, mat, b, "test solve")
        assert x.dtype == np.complex128
        assert np.linalg.norm(mat @ x - b) / np.linalg.norm(b) < 1e-14


def fold1_sector_matrix(op, shift, scale):
    """sector_matrix's former fold-1 path (reference): scale times A_T's
    data, plus shift on the diagonal, on A_T's own indices and indptr."""
    a_t = op.A_T
    rows = np.repeat(np.arange(a_t.shape[0]), np.diff(a_t.indptr))
    data = np.multiply(scale, a_t.data, dtype=np.result_type(scale, shift, a_t.data))
    data[a_t.indices == rows] += shift
    return sp.csr_matrix((data, a_t.indices, a_t.indptr), shape=a_t.shape)


class TestShifted:
    @pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
    def test_cayley_matrix_is_identity_minus_z_operator(self, mesh, bc):
        op = assemble_laplacian(mesh, bc)
        z = 1j * 6e-3 / (4.0 * M_EFF)
        want = (sp.identity(mesh.n_triangles, format="csr", dtype=np.complex128)
                - z * op.A_T).tocsr()
        got = sector_matrix(op, 1.0, -z)
        for part in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(got, part), getattr(want, part))

    @pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
    @pytest.mark.parametrize("case", ["real", "cayley", "complex", "complex shift"])
    def test_matches_diags_plus_scaled_operator(self, mesh, bc, case):
        op = assemble_laplacian(mesh, bc)
        shift, scale = MATRIX_CASES[case]
        kept = op.A_T.data.copy()
        got = sector_matrix(op, shift, scale)
        want = (sp.diags(np.full(mesh.n_triangles, shift)) + scale * op.A_T).tocsr()
        assert got.format == "csr" and got.dtype == want.dtype
        for part in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(got, part), getattr(want, part))
        assert np.array_equal(got.indices, op.A_T.indices)
        assert np.array_equal(got.indptr, op.A_T.indptr)
        assert np.array_equal(op.A_T.data, kept)

    @pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
    @pytest.mark.parametrize("name", ["h = 0.2", "desk", "paper62"])
    def test_fold_one_matches_the_former_fold_one_path(self, name, bc, desk_mesh):
        # Fold 1 runs the general wrap-and-symmetrize path. A is exactly
        # symmetric, so (A + A^T)/2 = A and diag(1/area) A = A_T bit for bit.
        if name == "desk":
            mesh = desk_mesh
        else:
            params = MESHES["odd"] if name == "h = 0.2" else preset_config("paper62").mesh
            mesh = build_ring_mesh(params)
        op = assemble_laplacian(mesh, bc)
        for case in ("real", "complex"):
            shift, scale = SOLVER_CASES[case]
            got = sector_matrix(op, shift, scale, 1)
            want = fold1_sector_matrix(op, shift, scale)
            assert got.format == "csr" and got.shape == want.shape
            for part in ("data", "indices", "indptr"):
                got_part, want_part = getattr(got, part), getattr(want, part)
                assert got_part.dtype == want_part.dtype
                assert np.array_equal(got_part, want_part)

    @pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
    @pytest.mark.parametrize("fold", [1, 3])
    def test_solver_holds_the_sector_matrix(self, bc, fold):
        # The matrix the solver is refined against is the one sector_matrix
        # builds for the same arguments.
        op = assemble_laplacian(build_ring_mesh(MESHES["odd"]), bc)
        z = 1j * 6e-3 / (4.0 * M_EFF)
        got = SlotFFTSolver(op, 1.0, -z, fold).matrix
        want = sector_matrix(op, 1.0, -z, fold)
        assert got.format == "csr" and got.shape == want.shape
        for part in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(got, part), getattr(want, part))


class TestSweep:
    @pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
    @pytest.mark.parametrize("case", ["real", "cayley", "complex"])
    @pytest.mark.parametrize("rhs", ["real", "complex"])
    def test_matches_stacked_gttrs(self, mesh, bc, case, rhs):
        # Unrefined: both solvers factor the same slot-mean symbol.
        op = assemble_laplacian(mesh, bc)
        shift, scale = SOLVER_CASES[case]
        b = random_complex(mesh, 5)
        if rhs == "real":
            b = b.real.copy()
        got = SlotFFTSolver(op, shift, scale).solve(b)
        want = StackedGttrsSolver(op, shift, scale).solve(b)
        assert got.dtype == np.complex128
        assert rel(got, want) <= 1e-13

    def test_solve_leaves_rhs_unchanged(self, mesh):
        op = assemble_laplacian(mesh, "dirichlet")
        b = random_complex(mesh, 6)
        kept = b.copy()
        SlotFFTSolver(op, *SOLVER_CASES["cayley"]).solve(b)
        assert np.array_equal(b, kept)

    @pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
    def test_zero_pivot_refused(self, mesh, bc):
        # Row 0 (band 0, kind 1) couples only to kind 0 of band 0, so its
        # diagonal symbol is the same in every mode: a shift cancelling it
        # makes the first pivot of every mode zero.
        op = assemble_laplacian(mesh, bc)
        sym = slot_symbol(mesh, op.A_T, np.arange(mesh.n_points))
        assert np.all(sym[1, :, 0] == sym[1, 0, 0])
        scale = -0.01
        with pytest.raises(NumericalError, match=r"slot mode 0: .* row 0 \(band 0, kind 1\)"):
            SlotFFTSolver(op, -scale * sym[1, 0, 0].real, scale)

    def test_array_shift_refused(self, mesh):
        # Only a scalar shift is built and factored; a per-triangle one,
        # even a slot-invariant one, is refused by name.
        op = assemble_laplacian(mesh, "dirichlet")
        shift = 1.0 + 0.5 * (mesh.centers[:, 0] ** 2 + mesh.centers[:, 1] ** 2)
        for build in (sector_matrix, SlotFFTSolver):
            with pytest.raises(ValueError, match="must be scalars"):
                build(op, shift, -0.01)

    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(tau=st.floats(1e-6, 1.0), m=st.floats(1e-2, 100.0),
           bc=st.sampled_from(["dirichlet", "neumann"]))
    def test_cayley_pivots_have_real_part_at_least_one(self, small, tau, m, bc):
        # I - z A_T with z = i tau/(4m) has Hermitian part I in the
        # area-weighted inner product; so has every Schur complement, and
        # the pivots are the 1x1 ones.
        solver = SlotFFTSolver(small[bc], 1.0, -1j * tau / (4.0 * m))
        assert (1.0 / solver._inv_pivot).real.min() >= 1.0 - 1e-12


class TestBlockedSweep:
    def test_block_rule(self):
        # Blocks only on sectors of at most BLOCKED_SWEEP_MAX_SLOTS slots:
        # paper62's stir sector (82 rows, S = 81) and its static runs
        # (S = 1) take 7 blocks of 12 rows (L - 1 + B - 1 = 17 steps, as
        # for 9 of 10, with 2 padding rows instead of 8), the desk mesh's
        # static runs (26 rows) 7 of 4; paper62's full mesh (S = 486) and
        # the desk mesh's stir sector (S = 109) sweep serially.
        limit = layout.BLOCKED_SWEEP_MAX_SLOTS
        assert layout.sweep_blocks(82, 81) == layout.sweep_blocks(82, 1) == 7
        assert layout.block_rows(82, 7) == 12
        assert layout.sweep_blocks(26, 1) == 7 and layout.block_rows(26, 7) == 4
        assert layout.sweep_blocks(82, 486) == layout.sweep_blocks(26, 109) == 1
        assert layout.sweep_blocks(4, limit) == 2 and layout.sweep_blocks(4, limit + 1) == 1

    @pytest.mark.parametrize("blocks", [1, 3])
    def test_nonfinite_rhs_leaves_no_state(self, mesh, blocks):
        # A NaN or inf right-hand side poisons its own solution only: the
        # next solve returns a fresh solver's bits, and no returned array
        # shares memory with what a later solve writes.
        op = assemble_laplacian(mesh, "dirichlet")
        args = (op, *SOLVER_CASES["cayley"])
        solver = solver_with_blocks(blocks, *args)
        b = random_complex(mesh, 7)
        first = solver.solve(b)
        kept = first.copy()
        for bad in (np.nan, np.inf, complex(np.inf, -np.inf)):
            poisoned = b.copy()
            poisoned[[0, 3, mesh.n_triangles - 1]] = bad
            with np.errstate(invalid="ignore", over="ignore"):
                assert not np.isfinite(solver.solve(poisoned)).all()
            again = solver.solve(b)
            assert np.array_equal(again, solver_with_blocks(blocks, *args).solve(b))
            assert np.array_equal(again, kept)
            assert not np.shares_memory(again, first)
        assert np.array_equal(first, kept)


class TestDifferential:
    @pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
    def test_kinetic_flow_matches_splu(self, mesh, bc):
        # The reference applies the Cayley quotient as written, one product
        # with I + z A_T and one sparse LU solve with I - z A_T.
        op = assemble_laplacian(mesh, bc)
        tau = 6e-3
        z = 1j * tau / (4.0 * M_EFF)
        eye = sp.identity(mesh.n_triangles, format="csc", dtype=np.complex128)
        lu = splu((eye - z * op.A_T).tocsc())
        u = Field(mesh, random_complex(mesh, 3))
        expect = lu.solve((eye + z * op.A_T) @ u.values)
        assert rel(KineticFlow(op, tau, M_EFF).apply(u.values), expect) <= 1e-12

    def test_gradient_flow_step_matches_splu(self, desk_op, desk_trap,
                                             desk_ground_state):
        # One mode-0 step, tiled, against the step on every triangle.
        problem = SlotInvariantProblem(desk_trap, desk_op, M_EFF, GAMMA)
        u = desk_ground_state.field
        rows = mode0_rows(desk_op.mesh, u.values)
        for kappa in (1e-2, 1e-4):
            got = gradient_flow_step(rows, problem, kappa)
            want = splu_gradient_flow_step(u, desk_trap, desk_op, M_EFF, GAMMA, kappa)
            assert got.dtype == np.float64
            assert rel(tile_mode0(desk_op.mesh, got), want.values) <= 1e-12

    @pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
    def test_ground_state_matches_full_mesh_flow(self, desk_mesh, desk_trap, bc):
        # The tiled field is exactly slot-invariant, so criterion 05's
        # rotation defect is 0 by construction; this checks that the
        # restriction to mode 0 loses nothing against the flow on every
        # triangle, step for step.
        op = assemble_laplacian(desk_mesh, bc)
        config = GradientFlowConfig(kappa0=1e-2, epsilon=5e-3)
        got = compute_ground_state(desk_trap, op, M_EFF, GAMMA, config)
        want, iterations, rejections = full_mesh_ground_state(desk_trap, op, M_EFF,
                                                              GAMMA, config)
        assert (got.iterations, got.n_rejections) == (iterations, rejections)
        defect = np.abs(got.field.values - want.values).max() / np.abs(want.values).max()
        assert defect <= 1e-12


class TestDispatch:
    def test_slot_invariant_input_never_uses_splu(self, desk_mesh, desk_op, desk_trap):
        # Neither solver has a sparse LU left to fall back on: the ground
        # state is tiled from mode 0, exactly slot-invariant, and a static
        # evolve from it steps one slot.
        assert not hasattr(ground_state, "splu") and not hasattr(dynamics, "splu")
        res = compute_ground_state(desk_trap, desk_op, M_EFF, GAMMA,
                                   GradientFlowConfig(kappa0=1e-2, epsilon=5e-3))
        assert res.converged
        # Rotation by 2*pi/N_p moves every triangle one slot on.
        perm = shifted_triangles(desk_mesh, np.arange(desk_mesh.n_triangles), [1])[0]
        assert np.array_equal(res.field.values[perm], res.field.values)
        out = evolve(res.field, desk_op, STATIC, M_EFF, GAMMA,
                     SplitStepConfig(tau=6e-4, t_max=3e-3), keep_snapshots=False)
        assert out.fold == desk_mesh.n_points
        assert abs(out.mass[-1] - out.mass[0]) < 1e-13

    def test_large_first_step_converges_slot_invariant(self, small):
        # With kappa0 = 1 the flow backs off to kappa = 1/128. On every
        # triangle the round-off slot defect of the iterate doubled there
        # with each accepted step; in mode 0 there is none to amplify.
        op = small["dirichlet"]
        res = compute_ground_state(trap_field(STATIC, op.mesh), op, M_EFF, GAMMA,
                                   GradientFlowConfig(kappa0=1.0, epsilon=5e-3))
        assert res.converged and res.n_rejections >= 1
        assert slot_defect(op.mesh, res.field.values) == 0.0

    @pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
    def test_indefinite_step_converges_without_fallback(self, small, bc):
        # A negative constant trap whose shift cancels row 0's diagonal to
        # 1e-12 (see test_zero_pivot_refused) makes every mode's first pivot
        # nearly vanish, so the unpivoted slot-mode factorization refuses
        # it. The mode-0 step is a banded LU with partial pivoting: it
        # solves that step, and the flow converges from it.
        op = small[bc]
        mesh = op.mesh
        kappa = 1e-2
        cancel = (kappa / M_EFF) * slot_symbol(mesh, op.A_T, [0])[1, 0, 0].real * (1.0 + 1e-12)
        trap_value = (cancel - 1.0) / (2.0 * kappa)
        trap = Field.constant(mesh, trap_value)
        with pytest.raises(NumericalError, match=r"slot mode 0: .* row 0 "):
            SlotFFTSolver(op, 1.0 + kappa * 2.0 * trap_value, -kappa / M_EFF)
        u = normalize(Field.constant(mesh, 1.0))
        problem = SlotInvariantProblem(trap, op, M_EFF, 0.0)
        got = gradient_flow_step(mode0_rows(mesh, u.values), problem, kappa)
        want = splu_gradient_flow_step(u, trap, op, M_EFF, 0.0, kappa)
        assert rel(tile_mode0(mesh, got), want.values) <= 1e-10
        res = compute_ground_state(trap, op, M_EFF, 0.0,
                                   GradientFlowConfig(kappa0=kappa, epsilon=5e-3))
        assert res.converged
        assert slot_defect(mesh, res.field.values) == 0.0


class TestUnitarity:
    def test_unstable_neumann_mass_drift_over_300_steps(self, desk_mesh, desk_trap):
        # The case that needs the refinement step: without it the slot-mean
        # factorization drifts in mass by 3.5e-14 here over 300 steps (4.7e-14
        # on the unstable-neumann preset's mesh); with it, by 2e-16.
        op = assemble_laplacian(desk_mesh, "neumann")
        gs = compute_ground_state(desk_trap, op, M_EFF, GAMMA,
                                  GradientFlowConfig(kappa0=1e-2, epsilon=5e-3))
        assert gs.converged
        u = make_unstable_state(gs.field)
        mass0 = norm(u) ** 2
        flow = KineticFlow(op, 6e-4, M_EFF)
        values = u.values
        for _ in range(300):
            values = flow.apply(values)
        assert abs(norm(Field(op.mesh, values)) ** 2 - mass0) / mass0 <= 1e-14

    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(tau=st.floats(1e-5, 1e-1), m=st.floats(0.1, 100.0),
           bc=st.sampled_from(["dirichlet", "neumann"]),
           seed=st.integers(0, 2**32 - 1))
    def test_per_step_norm_defect(self, small, tau, m, bc, seed):
        op = small[bc]
        u = Field(op.mesh, random_complex(op.mesh, seed))
        w = Field(op.mesh, KineticFlow(op, tau, m).apply(u.values))
        assert abs(norm(w) - norm(u)) / norm(u) <= 1e-13
