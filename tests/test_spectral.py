import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.special import jv, yv
from hypothesis import given, settings
from hypothesis import strategies as st

from ringgpe import spectral
from ringgpe.fv import Field, assemble_laplacian, complex_pairing, norm, normalize
from ringgpe.layout import slot_shifted
from ringgpe.mesh import MeshParams, build_ring_mesh
from ringgpe.spectral import (
    AnnulusEigenpair,
    RadialProblem,
    annulus_eigenfunction_field,
    annulus_eigenpairs,
    decompose,
    mode_basis,
    radial_modes,
)

R_MIN, R_MAX = 0.6, 1.4
M_EFF, V0 = 10.0, 100.0

# Lowest trap eigenvalue of the radial problem (ell=0, V0=100, m=10),
# obtained by adaptive Runge-Kutta shooting with bisection on lambda.
LAM_TRAP_GROUND = -90.38900183206988
# First Dirichlet Laplacian eigenvalue of the ring, cross-checked below
# against an independent finite-difference eigensolve.
LAM_BESSEL_1 = 15.153973016590156
C_BESSEL_1 = -0.07053852222836406


def j0_partial_series(x, terms=40):
    total, term = 1.0, 1.0
    for k in range(1, terms):
        term *= -(x * x / 4.0) / (k * k)
        total += term
    return total


class TestBessel:
    # The closed-form eigenpairs evaluate scipy's jv and yv directly.
    def test_j0_at_zero(self):
        assert jv(0, 0.0) == 1.0

    def test_first_j0_zero_against_series_bisection(self):
        lo, hi = 2.0, 3.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if j0_partial_series(lo) * j0_partial_series(mid) <= 0.0:
                hi = mid
            else:
                lo = mid
        root = 0.5 * (lo + hi)
        assert root == pytest.approx(2.4048255577, abs=1e-9)
        assert abs(jv(0, root)) < 1e-12

    @pytest.mark.parametrize("order", [0, 1, 3, 7])
    def test_wronskian_identity(self, order):
        x = np.linspace(0.05, 100.0, 4001)
        w = jv(order + 1, x) * yv(order, x) - jv(order, x) * yv(order + 1, x)
        rel = np.abs(w - 2.0 / (np.pi * x)) * (np.pi * x / 2.0)
        assert rel.max() < 1e-10


class TestAnnulusEigenpairs:
    def test_first_eigenvalue_frozen(self):
        p = annulus_eigenpairs(0, 1, R_MIN, R_MAX)[0]
        assert p.lam == pytest.approx(LAM_BESSEL_1, rel=1e-12)
        assert p.c == pytest.approx(C_BESSEL_1, rel=1e-10)
        assert p.alpha == 0 and p.beta == 1

    def test_against_radial_finite_difference_oracle(self):
        # Independent assembly of -u'' - u'/r on 2000 intervals, lowest
        # eigenvalues by shift-invert.
        n = 2000
        r = np.linspace(R_MIN, R_MAX, n + 1)[1:-1]
        h = (R_MAX - R_MIN) / n
        A = sp.diags(
            [-1.0 / h ** 2 + 1.0 / (2 * h * r[1:]),
             np.full(n - 1, 2.0 / h ** 2),
             -1.0 / h ** 2 - 1.0 / (2 * h * r[:-1])],
            offsets=[-1, 0, 1]).tocsc()
        got = np.sort(spla.eigs(A, k=3, sigma=0.0, which="LM",
                                return_eigenvectors=False).real)
        pairs = annulus_eigenpairs(0, 3, R_MIN, R_MAX)
        for lam_fd, pair in zip(got, pairs):
            assert abs(lam_fd - pair.lam) / pair.lam < 1e-3

    def test_profile_vanishes_at_both_radii(self):
        for pair in annulus_eigenpairs(2, 2, R_MIN, R_MAX):
            root = np.sqrt(pair.lam)
            for r in (R_MIN, R_MAX):
                v = jv(2, r * root) + pair.c * yv(2, r * root)
                assert abs(v) < 1e-9

    @pytest.mark.parametrize("alpha", [0, 1, 3])
    def test_strictly_increasing(self, alpha):
        lams = [p.lam for p in annulus_eigenpairs(alpha, 5, R_MIN, R_MAX)]
        assert all(b > a for a, b in zip(lams, lams[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            annulus_eigenpairs(-1, 1, R_MIN, R_MAX)
        with pytest.raises(ValueError):
            annulus_eigenpairs(0, 0, R_MIN, R_MAX)
        with pytest.raises(ValueError):
            annulus_eigenpairs(0, 1, 1.4, 0.6)


class TestEigenfunctionField:
    def test_normalized_and_rotation_invariant_for_alpha0(self):
        mesh = build_ring_mesh(MeshParams(r_min=R_MIN, r_max=R_MAX, h=0.05))
        pair = annulus_eigenpairs(0, 1, R_MIN, R_MAX)[0]
        u = annulus_eigenfunction_field(mesh, pair, 1)
        assert abs(norm(u) - 1.0) < 1e-12
        # Rotation by 2*pi/N_p moves every triangle one slot on.
        perm = slot_shifted(mesh, np.arange(mesh.n_triangles), [1])[0]
        assert np.abs(u.values[perm] - u.values).max() < 1e-12

    def test_residual_decreases_with_h(self):
        # Full slope fit lives in the acceptance suite; here just check the
        # residual drops by (h_coarse/h_fine)^0.6 at least.
        pairs = annulus_eigenpairs(0, 3, R_MIN, R_MAX)
        res = {b: [] for b in range(3)}
        for h in (0.1, 0.05):
            mesh = build_ring_mesh(MeshParams(r_min=R_MIN, r_max=R_MAX, h=h))
            op = assemble_laplacian(mesh, "dirichlet")
            for b, pair in enumerate(pairs):
                u = annulus_eigenfunction_field(mesh, pair, 1)
                res[b].append(norm(Field(mesh, -op.A_T @ u.values - pair.lam * u.values)))
        for b in range(3):
            assert res[b][1] < res[b][0] / 1.5

    def test_radial_line_sign_changes(self):
        mesh = build_ring_mesh(MeshParams(r_min=R_MIN, r_max=R_MAX, h=0.05))
        pairs = annulus_eigenpairs(0, 2, R_MIN, R_MAX)
        line = [2 * (band * mesh.n_points) for band in range(mesh.n_bands)]
        for expected, pair in enumerate(pairs):
            vals = annulus_eigenfunction_field(mesh, pair, 1).values[line].real
            sgn = np.sign(vals[np.abs(vals) > 1e-12])
            assert int(np.sum(sgn[1:] != sgn[:-1])) == expected

    def test_sine_branch_rules(self):
        mesh = build_ring_mesh(MeshParams(r_min=R_MIN, r_max=R_MAX, h=0.2))
        pair0 = annulus_eigenpairs(0, 1, R_MIN, R_MAX)[0]
        pair2 = annulus_eigenpairs(2, 1, R_MIN, R_MAX)[0]
        with pytest.raises(ValueError):
            annulus_eigenfunction_field(mesh, pair0, 2)
        with pytest.raises(ValueError):
            annulus_eigenfunction_field(mesh, pair2, 3)
        u = annulus_eigenfunction_field(mesh, pair2, 2)
        assert abs(norm(u) - 1.0) < 1e-12


def assemble_radial_operator(ell, n, problem):
    """The interior radial operator as a CSR matrix, size n-1 (test oracle)."""
    sub, diag, sup = spectral._radial_diagonals(ell, n, problem)
    return sp.diags([sub, diag, sup], offsets=[-1, 0, 1]).tocsr()


class TestRadialOperator:
    def test_tridiagonal_interior_size(self):
        prob = RadialProblem(R_MIN, R_MAX, M_EFF, V0)
        H = assemble_radial_operator(3, 40, prob)
        assert H.shape == (39, 39)
        dense = H.toarray()
        assert np.abs(np.triu(dense, 2)).max() == 0.0
        assert np.abs(np.tril(dense, -2)).max() == 0.0

    def test_ell_sign_irrelevant(self):
        prob = RadialProblem(R_MIN, R_MAX, M_EFF, V0)
        a = assemble_radial_operator(4, 60, prob)
        b = assemble_radial_operator(-4, 60, prob)
        assert (a != b).nnz == 0

    def test_eigenvalues_increase_with_ell(self):
        prob = RadialProblem(R_MIN, R_MAX, M_EFF, V0)
        lams = [radial_modes(ell, 0, 200, prob)[0][0] for ell in range(5)]
        assert all(b > a for a, b in zip(lams, lams[1:]))

    def test_validation(self):
        prob = RadialProblem(R_MIN, R_MAX, M_EFF, V0)
        with pytest.raises(ValueError):
            assemble_radial_operator(0, 1, prob)
        with pytest.raises(ValueError):
            RadialProblem(0.0, 1.4, M_EFF, V0)
        with pytest.raises(ValueError):
            RadialProblem(R_MIN, R_MAX, -1.0, V0)
        with pytest.raises(ValueError):
            radial_modes(0, 10, 11, prob)


def csr_radial_modes(ell, P, n, problem):
    """radial_modes reading its diagonals back from the CSR operator and
    checking residuals with a CSR product (test oracle)."""
    H = assemble_radial_operator(ell, n, problem)
    dense_diag = H.diagonal()
    sub = H.diagonal(-1)
    sup = H.diagonal(1)
    log_ratio = 0.5 * np.log(sub / sup)
    d = np.exp(np.concatenate(([0.0], np.cumsum(log_ratio))))
    off = -np.sqrt(sub * sup)
    w, v = spectral.eigh_tridiagonal(dense_diag, off, select="i", select_range=(0, P))
    vectors = np.zeros((P + 1, n + 1))
    residuals = []
    for p in range(P + 1):
        phi = d * v[:, p]
        phi /= np.linalg.norm(phi)
        if phi[np.argmax(np.abs(phi))] < 0.0:
            phi = -phi
        residuals.append(np.linalg.norm(H @ phi - w[p] * phi))
        vectors[p, 1:-1] = phi
    return w.copy(), vectors, residuals


class TestRadialModes:
    @pytest.mark.parametrize("P,L,n,V0_", [(3, 80, 500, V0), (2, 12, 40, 0.0)])
    def test_match_csr_path(self, P, L, n, V0_):
        prob = RadialProblem(R_MIN, R_MAX, M_EFF, V0_)
        for ell in range(L + 1):
            lam, vecs = radial_modes(ell, P, n, prob)
            want_lam, want_vecs, residuals = csr_radial_modes(ell, P, n, prob)
            assert lam.tobytes() == want_lam.tobytes()
            assert vecs.tobytes() == want_vecs.tobytes()
            assert max(residuals) <= spectral.RESIDUAL_TOL

    def test_residual_contract_enforced(self, monkeypatch):
        # A perturbed eigenvalue must fail the tridiagonal residual check.
        prob = RadialProblem(R_MIN, R_MAX, M_EFF, V0)
        real = spectral.eigh_tridiagonal
        monkeypatch.setattr(spectral, "eigh_tridiagonal",
                            lambda *a, **k: (lambda w, v: (w + 1e-6, v))(*real(*a, **k)))
        with pytest.raises(spectral.NumericalError, match="residual"):
            radial_modes(2, 3, 500, prob)

    def test_trap_ground_eigenvalue_matches_shooting_oracle(self):
        prob = RadialProblem(R_MIN, R_MAX, M_EFF, V0)
        lam, _ = radial_modes(0, 0, 500, prob)
        assert abs(lam[0] - LAM_TRAP_GROUND) / abs(LAM_TRAP_GROUND) < 1e-5

    def test_free_case_matches_bessel_within_half_percent(self):
        # The radial operator is (1/2m) times the Laplacian one, so compare
        # 2 m lambda against the analytic eigenvalues.
        free = RadialProblem(R_MIN, R_MAX, M_EFF, 0.0)
        for alpha in (0, 1):
            lam, _ = radial_modes(alpha, 2, 500, free)
            pairs = annulus_eigenpairs(alpha, 3, R_MIN, R_MAX)
            for k in range(3):
                rel = abs(2 * M_EFF * lam[k] - pairs[k].lam) / pairs[k].lam
                assert rel < 5e-3

    @pytest.mark.parametrize("ell", [0, 2, 5])
    def test_sturm_oscillation_counts(self, ell):
        prob = RadialProblem(R_MIN, R_MAX, M_EFF, V0)
        _, vecs = radial_modes(ell, 3, 500, prob)
        for p in range(4):
            interior = vecs[p, 1:-1]
            sgn = np.sign(interior[np.abs(interior) > 1e-10])
            assert int(np.sum(sgn[1:] != sgn[:-1])) == p

    def test_residual_contract_on_original_operator(self):
        prob = RadialProblem(R_MIN, R_MAX, M_EFF, V0)
        H = assemble_radial_operator(2, 500, prob)
        lam, vecs = radial_modes(2, 3, 500, prob)
        for p in range(4):
            phi = vecs[p, 1:-1]
            assert np.linalg.norm(H @ phi - lam[p] * phi) <= 1e-8
            assert np.linalg.norm(phi) == pytest.approx(1.0, abs=1e-12)

    def test_boundary_values_zero(self):
        prob = RadialProblem(R_MIN, R_MAX, M_EFF, V0)
        _, vecs = radial_modes(1, 2, 300, prob)
        assert np.all(vecs[:, 0] == 0.0)
        assert np.all(vecs[:, -1] == 0.0)


@pytest.fixture(scope="module")
def small_basis():
    mesh = build_ring_mesh(MeshParams(r_min=R_MIN, r_max=R_MAX, h=0.1))
    return mode_basis(mesh, P=1, L=6, n=300, m=M_EFF, V0=V0)


class TestModeBasis:
    def test_counts_and_normalization(self, small_basis):
        assert small_basis.n_modes == 2 * 13
        for col in small_basis.fields:
            for f in col:
                assert abs(norm(f) - 1.0) < 1e-12

    def test_distinct_ell_orthogonal_to_machine_precision(self, small_basis):
        # Per ring the angles are uniform, so the angular sums cancel exactly
        # whenever the ell difference is not a multiple of the point count.
        b = small_basis
        for ell in (-6, -2, 0, 3):
            for ellp in (ell + 1, ell + 3):
                if ellp > 6:
                    continue
                v = abs(complex_pairing(b.field(0, ell), b.field(1, ellp)))
                assert v < 1e-10

    def test_same_ell_quasi_orthogonality_level(self, small_basis):
        worst = max(abs(complex_pairing(small_basis.field(0, ell),
                                        small_basis.field(1, ell)))
                    for ell in range(-6, 7))
        assert worst < 2e-3

    def test_eigenvalue_parity(self, small_basis):
        for p in range(2):
            for ell in range(1, 7):
                assert small_basis.eigenvalue(p, ell) == small_basis.eigenvalue(p, -ell)


class TestDecompose:
    def test_self_coefficient(self, small_basis):
        c = decompose(small_basis.field(1, 3), small_basis)
        assert abs(c[1, 3 + 6] - 1.0) < 1e-12
        mask = np.ones_like(c, dtype=bool)
        mask[1, 3 + 6] = False
        assert np.abs(c[mask]).max() < 2e-3

    def test_near_frame_bound(self, small_basis):
        mesh = small_basis.mesh
        rng = np.random.default_rng(11)
        u = normalize(Field(mesh, rng.standard_normal(mesh.n_triangles)
                            + 1j * rng.standard_normal(mesh.n_triangles)))
        assert np.sum(np.abs(decompose(u, small_basis)) ** 2) <= 1.0 + 1e-2
        mode = small_basis.field(0, -2)
        assert np.sum(np.abs(decompose(mode, small_basis)) ** 2) <= 1.0 + 1e-2

    def test_conjugate_parity_for_real_fields(self, small_basis):
        mesh = small_basis.mesh
        r = np.hypot(mesh.centers[:, 0], mesh.centers[:, 1])
        u = Field(mesh, np.exp(-8.0 * (r - 1.0) ** 2))
        c = decompose(u, small_basis)
        L = small_basis.L
        for p in range(2):
            for ell in range(1, L + 1):
                assert c[p, L - ell] == pytest.approx(np.conj(c[p, L + ell]), abs=1e-12)

    def test_mesh_mismatch_rejected(self, small_basis):
        other = build_ring_mesh(MeshParams(r_min=R_MIN, r_max=R_MAX, h=0.2))
        with pytest.raises(ValueError):
            decompose(Field.constant(other, 1.0), small_basis)

    def test_ground_state_concentrates_at_ell_zero(self, desk_mesh, desk_ground_state):
        basis = mode_basis(desk_mesh, P=1, L=6, n=300, m=M_EFF, V0=V0)
        c = decompose(desk_ground_state.field, basis)
        L = 6
        off = np.abs(np.delete(c, L, axis=1))
        assert off.max() < 1e-4
        assert np.abs(c[:, L]).max() > 0.1


def stored_basis_oracle(mesh, P, L, n):
    """The stored-basis construction decompose replaced: every mode sampled
    per triangle (radial interpolation times exp(i ell theta)) and
    normalized on the mesh. Returns eigenvalues and fields[p][ell + L]."""
    problem = RadialProblem(mesh.params.r_min, mesh.params.r_max, M_EFF, V0)
    grid = problem.grid(n)
    r = np.hypot(mesh.centers[:, 0], mesh.centers[:, 1])
    theta = np.arctan2(mesh.centers[:, 1], mesh.centers[:, 0])
    eigenvalues = np.zeros((P + 1, 2 * L + 1))
    fields = [[None] * (2 * L + 1) for _ in range(P + 1)]
    for ell_abs in range(L + 1):
        lam, vecs = radial_modes(ell_abs, P, n, problem)
        for ell in {ell_abs, -ell_abs}:
            for p in range(P + 1):
                u = Field(mesh, np.interp(r, grid, vecs[p]) * np.exp(1j * ell * theta))
                fields[p][ell + L] = Field(mesh, u.values / norm(u))
                eigenvalues[p, ell + L] = lam[p]
    return eigenvalues, fields


def assert_matches_oracle(mesh, P, L, n, states):
    basis = mode_basis(mesh, P, L, n, M_EFF, V0)
    eigenvalues, fields = stored_basis_oracle(mesh, P, L, n)
    assert np.array_equal(basis.eigenvalues, eigenvalues)
    for u in states:
        want = np.array([[complex_pairing(u, phi) for phi in row] for row in fields])
        assert np.abs(decompose(u, basis) - want).max() <= 1e-12 * np.abs(want).max()
    for p in range(P + 1):
        for ell in range(-L, L + 1):
            got = basis.field(p, ell).values
            assert np.abs(got - fields[p][ell + L].values).max() <= 1e-11


def random_state(mesh, seed):
    rng = np.random.default_rng(seed)
    return Field(mesh, rng.standard_normal(mesh.n_triangles)
                 + 1j * rng.standard_normal(mesh.n_triangles))


class TestAgainstStoredBasis:
    def test_desk_mesh(self, desk_mesh, desk_ground_state):
        # L = 120 passes N_p / 2 = 109, where ell and ell - N_p share an FFT bin.
        assert_matches_oracle(desk_mesh, 1, 120, 300,
                              [desk_ground_state.field, random_state(desk_mesh, 3)])

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(n_points=st.integers(3, 63), n_circles=st.integers(2, 6),
           match_paper_counts=st.booleans(), P=st.integers(0, 3),
           seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_random_meshes(self, n_points, n_circles, match_paper_counts, P, seed, data):
        mesh = build_ring_mesh(MeshParams(r_min=R_MIN, r_max=R_MAX, h=0.1,
                                          n_circles=n_circles, n_points=n_points,
                                          match_paper_counts=match_paper_counts))
        L = data.draw(st.integers(0, 2 * n_points), label="L")
        n = data.draw(st.integers(P + 2, 120), label="n")
        r = np.hypot(mesh.centers[:, 0], mesh.centers[:, 1])
        if not np.any((R_MIN < r) & (r < R_MAX)):
            # Obtuse triangles of a coarse ring have their circumcenters
            # off the ring, where every radial profile is zero.
            with pytest.raises(ValueError, match="vanishes"):
                mode_basis(mesh, P, L, n, M_EFF, V0)
            return
        assert_matches_oracle(mesh, P, L, n, [random_state(mesh, seed)])


class TestSlotGeometryGuard:
    @staticmethod
    def perturbed(mesh, scale=1.0, angle=0.0):
        # Moves the circumcenter of (band 3, slot 5, kind 1) off its circle.
        k = 2 * (3 * mesh.n_points + 5) + 1
        cos, sin = np.cos(angle), np.sin(angle)
        centers = mesh.centers.copy()
        centers[k] = scale * np.array([[cos, -sin], [sin, cos]]) @ centers[k]
        return dataclasses.replace(mesh, centers=centers)

    def test_desk_mesh_accepted(self, desk_mesh):
        mode_basis(desk_mesh, P=0, L=1, n=60, m=M_EFF, V0=V0)

    def test_radius_defect_rejected(self, desk_mesh):
        mesh = self.perturbed(desk_mesh, scale=1.0 + 1e-8)
        with pytest.raises(ValueError, match=r"radius spread [1-9]\.\d{3}e-09"):
            mode_basis(mesh, P=0, L=1, n=60, m=M_EFF, V0=V0)

    def test_angle_defect_rejected(self, desk_mesh):
        mesh = self.perturbed(desk_mesh, angle=1e-8)
        with pytest.raises(ValueError, match=r"angle defect 1\.000e-08"):
            mode_basis(mesh, P=0, L=1, n=60, m=M_EFF, V0=V0)


class TestStorageContract:
    def test_spans_storage_and_lazy_fields(self, desk_mesh, monkeypatch):
        calls = []

        def counting(ell, *args):
            calls.append(ell)
            return radial_modes(ell, *args)

        monkeypatch.setattr(spectral, "radial_modes", counting)
        basis = spectral.mode_basis(desk_mesh, P=2, L=6, n=300, m=M_EFF, V0=V0)
        assert calls == list(range(7))
        arrays = [getattr(basis, f.name) for f in dataclasses.fields(basis)
                  if isinstance(getattr(basis, f.name), np.ndarray)]
        assert sum(a.size for a in arrays) < desk_mesh.n_triangles
        assert all(desk_mesh.n_triangles not in a.shape for a in arrays)
        first, second = ([[f.values for f in row] for row in basis.fields] for _ in range(2))
        assert len(first) == 3 and all(len(row) == 13 for row in first)
        assert all(np.array_equal(a, b) for ra, rb in zip(first, second)
                   for a, b in zip(ra, rb))
