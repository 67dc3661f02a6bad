"""Slot-FFT solver: layout, symbol, the shifted-operator builder, differential
tests against the stacked LAPACK solver and splu, the slot-invariance and
pivot guards, the gradient-flow dispatch, and unitarity of the Cayley flow
it drives."""

import re
import warnings

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import lapack
from scipy.sparse.linalg import splu

from ringgpe import dynamics, ground_state, layout
from ringgpe.errors import NumericalError
from ringgpe.dynamics import KineticFlow, SplitStepConfig, evolve, make_unstable_state
from ringgpe.fv import Field, assemble_laplacian, norm, normalize
from ringgpe.ground_state import (
    GradientFlowConfig,
    checked_solve,
    compute_ground_state,
    gradient_flow_step,
)
from ringgpe.layout import SlotFFTSolver, slot_defect, slot_shifted, slot_symbol, slot_view
from ringgpe.mesh import MeshParams, build_ring_mesh, rotation_permutation, triangle_shells
from ringgpe.potentials import PotentialParams, trap_field

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


@pytest.fixture
def splu_calls(monkeypatch):
    """Shapes of the matrices ground_state factors with splu, in call order."""
    calls = []

    def counting(mat):
        calls.append(mat.shape)
        return splu(mat)

    monkeypatch.setattr(ground_state, "splu", counting)
    return calls


@pytest.fixture(scope="module")
def small():
    mesh = build_ring_mesh(MESHES["odd"])
    return {bc: assemble_laplacian(mesh, bc) for bc in ("dirichlet", "neumann")}


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


def rel(a, b):
    return np.linalg.norm(a - b) / np.linalg.norm(b)


class StackedGttrsSolver:
    """The slot-FFT solve through LAPACK: the reference for the in-place sweep.

    The modes are stacked end to end as one tridiagonal system (zero
    couplings at the mode boundaries), factored by one ?gttrf with partial
    pivoting; a solve copies b into (slot mode, band, 1 - kind) order, takes
    the FFT, calls ?gttrs, and undoes both.
    """

    def __init__(self, op, shift, scale):
        mesh = self.mesh = op.mesh
        self.real = not (np.iscomplexobj(shift) or np.iscomplexobj(scale))
        shift = np.broadcast_to(shift, (mesh.n_triangles,))
        mean_shift = slot_view(mesh, shift).mean(axis=1)[:, ::-1].ravel()
        diags = scale * op.slot_symbol
        diags[1] += mean_shift
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
        x = x[:, :, ::-1].transpose(1, 0, 2).reshape(-1)
        return x.real.copy() if self.real and not np.iscomplexobj(b) else x


def solver_cases(mesh):
    """(shift, scale) pairs: real, complex scale (the Cayley matrix) and
    complex shift and scale, with slot-invariant per-triangle shifts."""
    r2 = mesh.centers[:, 0] ** 2 + mesh.centers[:, 1] ** 2
    return {
        "real": (1.0 + 0.5 * r2, -0.01),
        "cayley": (1.0, -1j * 6e-3 / (4.0 * M_EFF)),
        "complex": ((1.0 + 0.5j) * r2, -0.01 + 0.02j),
    }


class TestLayout:
    def test_slot_view_matches_index_order(self, mesh):
        idx = slot_view(mesh, np.arange(mesh.n_triangles))
        b, s, k = np.unravel_index(idx, idx.shape)
        assert np.array_equal(mesh.band[idx], b)
        assert np.array_equal(mesh.slot[idx], s)
        assert np.array_equal(mesh.kind[idx], k)

    def test_slot_shift_by_one_is_rotation(self, mesh):
        idx = slot_shifted(mesh, np.arange(mesh.n_triangles), [0, 1, mesh.n_points])
        assert np.array_equal(idx[0], np.arange(mesh.n_triangles))
        assert np.array_equal(idx[1], rotation_permutation(mesh))
        assert np.array_equal(idx[2], idx[0])

    @pytest.mark.parametrize("name", ["odd", "three"])
    def test_shells_are_slot_shifted_templates(self, name):
        # Rotation by 2*pi/N_p is an automorphism of the adjacency graph, so
        # every shell equals the (band, 0, kind) shell shifted in slot, also
        # where shells wrap around the ring or run empty.
        mesh = build_ring_mesh(MESHES[name])
        templates = {}
        for t in range(mesh.n_triangles):
            b, s, k = mesh.band[t], mesh.slot[t], mesh.kind[t]
            if (b, k) not in templates:
                templates[b, k] = triangle_shells(mesh, 2 * b * mesh.n_points + k, 6)
            shells = triangle_shells(mesh, t, 6)
            for got, tmpl in zip(shells, templates[b, k]):
                want = slot_shifted(mesh, tmpl, [s])[0]
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
        sym = slot_symbol(mesh, op.A_T)
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

    def test_symbol_cached_on_operator(self, mesh):
        op = assemble_laplacian(mesh, "dirichlet")
        assert op.slot_symbol is op.slot_symbol

    def test_coupling_outside_band_rejected(self, mesh):
        # Triangle 0 is (band 0, slot 0, kind 0); column 2 N_p is kind 0 of
        # band 1, column 4 is kind 0 two slots on (one slot back if N_p = 3).
        op = assemble_laplacian(mesh, "dirichlet")
        far = [2 * mesh.n_points] + ([4] if mesh.n_points > 3 else [])
        for col in far:
            bad = op.A_T + sp.csr_matrix(([1.0], ([0], [col])), shape=op.A_T.shape)
            with pytest.raises(ValueError, match="tridiagonal"):
                slot_symbol(mesh, bad)

    def test_refinement_absorbs_slot_defect(self, mesh):
        # Only the slot mean of shift is factored; the refinement step of
        # checked_solve against the assembled matrix corrects a small
        # departure from it.
        op = assemble_laplacian(mesh, "dirichlet")
        rng = np.random.default_rng(2)
        shift = 1.0 + 1e-9 * rng.standard_normal(mesh.n_triangles)
        mat = (sp.diags(shift) - 0.01 * op.A_T).tocsr()
        b = rng.standard_normal(mesh.n_triangles)
        x = checked_solve(SlotFFTSolver(op, shift, -0.01).solve, mat, b, "test solve")
        assert x.dtype == np.float64
        assert np.linalg.norm(mat @ x - b) / np.linalg.norm(b) < 1e-14


class TestShifted:
    @pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
    def test_cayley_matrix_is_identity_minus_z_operator(self, mesh, bc):
        op = assemble_laplacian(mesh, bc)
        z = 1j * 6e-3 / (4.0 * M_EFF)
        want = (sp.identity(mesh.n_triangles, format="csr", dtype=np.complex128)
                - z * op.A_T).tocsr()
        got = op.shifted(1.0, -z)
        for part in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(got, part), getattr(want, part))

    @pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
    @pytest.mark.parametrize("case", ["real", "cayley", "complex", "complex shift"])
    def test_matches_diags_plus_scaled_operator(self, mesh, bc, case):
        op = assemble_laplacian(mesh, bc)
        cases = solver_cases(mesh)
        cases["complex shift"] = (cases["complex"][0], cases["real"][1])
        shift, scale = cases[case]
        kept = op.A_T.data.copy()
        got = op.shifted(shift, scale)
        want = (sp.diags(np.broadcast_to(shift, (mesh.n_triangles,)))
                + scale * op.A_T).tocsr()
        assert got.format == "csr" and got.dtype == want.dtype
        for part in ("data", "indices", "indptr"):
            assert np.array_equal(getattr(got, part), getattr(want, part))
        assert np.array_equal(got.indices, op.A_T.indices)
        assert np.array_equal(got.indptr, op.A_T.indptr)
        assert np.array_equal(op.A_T.data, kept)


class TestSweep:
    @pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
    @pytest.mark.parametrize("case", ["real", "cayley", "complex"])
    @pytest.mark.parametrize("rhs", ["real", "complex"])
    def test_matches_stacked_gttrs(self, mesh, bc, case, rhs):
        # Unrefined: both solvers factor the same slot-mean symbol.
        op = assemble_laplacian(mesh, bc)
        shift, scale = solver_cases(mesh)[case]
        b = random_complex(mesh, 5)
        if rhs == "real":
            b = b.real.copy()
        got = SlotFFTSolver(op, shift, scale).solve(b)
        want = StackedGttrsSolver(op, shift, scale).solve(b)
        real = case == "real" and rhs == "real"
        assert got.dtype == (np.float64 if real else np.complex128)
        assert rel(got, want) <= 1e-13

    def test_solve_leaves_rhs_unchanged(self, mesh):
        op = assemble_laplacian(mesh, "dirichlet")
        b = random_complex(mesh, 6)
        kept = b.copy()
        SlotFFTSolver(op, *solver_cases(mesh)["cayley"]).solve(b)
        assert np.array_equal(b, kept)

    @pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
    def test_zero_pivot_refused(self, mesh, bc):
        # Row 0 (band 0, kind 1) couples only to kind 0 of band 0, so its
        # diagonal symbol is the same in every mode: a shift cancelling it
        # makes the first pivot of every mode zero.
        op = assemble_laplacian(mesh, bc)
        sym = op.slot_symbol
        assert np.all(sym[1, :, 0] == sym[1, 0, 0])
        scale = -0.01
        with pytest.raises(NumericalError, match=r"slot mode 0: .* row 0 \(band 0, kind 1\)"):
            SlotFFTSolver(op, -scale * sym[1, 0, 0].real, scale)

    @pytest.mark.parametrize("case", ["real", "complex"])
    def test_shift_off_slot_mean_refused(self, mesh, case):
        # Only the slot mean of shift is factored, so the solver refuses a
        # shift that departs from it; the measure holds for complex shifts.
        op = assemble_laplacian(mesh, "dirichlet")
        shift, scale = solver_cases(mesh)[case]
        bump = 1e-6 if case == "real" else 1e-6 * (1.0 - 1.0j)
        off = shift.copy()
        off[7] += bump
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            SlotFFTSolver(op, shift, scale)
            with pytest.raises(NumericalError, match="above SLOT_INVARIANCE_TOL") as err:
                SlotFFTSolver(op, off, scale)
        defect = float(re.search(r"slot mean by (\S+),", str(err.value)).group(1))
        assert defect == pytest.approx(abs(bump) * (1.0 - 1.0 / mesh.n_points), rel=1e-3)

    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(tau=st.floats(1e-6, 1.0), m=st.floats(1e-2, 100.0),
           bc=st.sampled_from(["dirichlet", "neumann"]))
    def test_cayley_pivots_have_real_part_at_least_one(self, small, tau, m, bc):
        # I - z A_T with z = i tau/(4m) has Hermitian part I in the
        # area-weighted inner product; so has every Schur complement, and
        # the pivots are the 1x1 ones.
        solver = SlotFFTSolver(small[bc], 1.0, -1j * tau / (4.0 * m))
        assert (1.0 / solver._inv_pivot).real.min() >= 1.0 - 1e-12


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
        assert rel(KineticFlow(op, tau, M_EFF).apply(u).values, expect) <= 1e-12

    def test_gradient_flow_step_matches_splu(self, desk_op, desk_trap,
                                             desk_ground_state):
        u = desk_ground_state.field
        for kappa in (1e-2, 1e-4):
            got = gradient_flow_step(u, desk_trap, desk_op, M_EFF, GAMMA, kappa)
            want = splu_gradient_flow_step(u, desk_trap, desk_op, M_EFF, GAMMA, kappa)
            assert got.values.dtype == np.float64
            assert rel(got.values, want.values) <= 1e-12


class TestDispatch:
    def test_slot_invariant_input_never_uses_splu(self, desk_mesh, desk_op, desk_trap,
                                                  monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("splu called on slot-invariant input")

        monkeypatch.setattr(ground_state, "splu", forbidden)
        assert not hasattr(dynamics, "splu")
        res = compute_ground_state(desk_trap, desk_op, M_EFF, GAMMA,
                                   GradientFlowConfig(kappa0=1e-2, epsilon=5e-3))
        assert res.converged
        perm = rotation_permutation(desk_mesh)
        assert np.abs(res.field.values[perm] - res.field.values).max() < 1e-12
        out = evolve(res.field, desk_op, STATIC, M_EFF, GAMMA,
                     SplitStepConfig(tau=6e-4, t_max=3e-3), keep_snapshots=False)
        assert abs(out.mass[-1] - out.mass[0]) < 1e-13

    def test_non_invariant_input_takes_splu(self, small, splu_calls):
        op = small["dirichlet"]
        mesh = op.mesh
        trap = trap_field(STATIC, mesh)
        u = normalize(Field(mesh, np.random.default_rng(4).standard_normal(mesh.n_triangles)))
        got = gradient_flow_step(u, trap, op, M_EFF, GAMMA, 1e-2)
        assert splu_calls == [(mesh.n_triangles, mesh.n_triangles)]
        want = splu_gradient_flow_step(u, trap, op, M_EFF, GAMMA, 1e-2)
        assert np.array_equal(got.values, want.values)

    def test_large_first_step_converges_through_splu(self, small, splu_calls):
        # With kappa0 = 1 the flow backs off to kappa = 1/128, where the
        # round-off slot defect of the iterate doubles with every accepted
        # step; once the shift departs from its slot mean by more than
        # SLOT_INVARIANCE_TOL, the solver refuses it and splu takes over.
        op = small["dirichlet"]
        res = compute_ground_state(trap_field(STATIC, op.mesh), op, M_EFF, GAMMA,
                                   GradientFlowConfig(kappa0=1.0, epsilon=5e-3))
        assert res.converged
        assert splu_calls

    @pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
    def test_indefinite_step_takes_splu(self, small, bc, splu_calls):
        # A negative constant trap whose shift cancels row 0's diagonal to
        # 1e-12 (see test_zero_pivot_refused) makes every mode's first pivot
        # nearly vanish, so the slot-mode factorization is refused without
        # touching PIVOT_TOL; the sparse LU pivots and solves the step. (An
        # exact cancellation would let scipy's sparse sum in the reference
        # drop the zero diagonal entries and reorder its LU.)
        op = small[bc]
        mesh = op.mesh
        kappa = 1e-2
        cancel = (kappa / M_EFF) * op.slot_symbol[1, 0, 0].real * (1.0 + 1e-12)
        trap_value = (cancel - 1.0) / (2.0 * kappa)
        trap = Field.constant(mesh, trap_value)
        u = normalize(Field.constant(mesh, 1.0))
        with pytest.raises(NumericalError, match=r"slot mode 0: .* row 0 "):
            SlotFFTSolver(op, 1.0 + kappa * 2.0 * trap_value, -kappa / M_EFF)
        got = gradient_flow_step(u, trap, op, M_EFF, 0.0, kappa)
        assert splu_calls == [(mesh.n_triangles, mesh.n_triangles)]
        want = splu_gradient_flow_step(u, trap, op, M_EFF, 0.0, kappa)
        assert np.array_equal(got.values, want.values)

    def test_refused_factorization_takes_splu(self, desk_op, desk_trap, desk_ground_state,
                                              splu_calls, monkeypatch):
        # A slot-invariant step whose slot-mode factorization is refused
        # (every pivot counts as small here) is solved by the sparse LU.
        monkeypatch.setattr(layout, "PIVOT_TOL", 2.0)
        u = desk_ground_state.field
        with pytest.raises(NumericalError, match="PIVOT_TOL"):
            SlotFFTSolver(desk_op, 1.0, -1e-3)
        got = gradient_flow_step(u, desk_trap, desk_op, M_EFF, GAMMA, 1e-2)
        assert len(splu_calls) == 1
        want = splu_gradient_flow_step(u, desk_trap, desk_op, M_EFF, GAMMA, 1e-2)
        assert np.array_equal(got.values, want.values)


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
        for _ in range(300):
            u = flow.apply(u)
        assert abs(norm(u) ** 2 - mass0) / mass0 <= 1e-14

    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(tau=st.floats(1e-5, 1e-1), m=st.floats(0.1, 100.0),
           bc=st.sampled_from(["dirichlet", "neumann"]),
           seed=st.integers(0, 2**32 - 1))
    def test_per_step_norm_defect(self, small, tau, m, bc, seed):
        op = small[bc]
        u = Field(op.mesh, random_complex(op.mesh, seed))
        w = KineticFlow(op, tau, m).apply(u)
        assert abs(norm(w) - norm(u)) / norm(u) <= 1e-13
