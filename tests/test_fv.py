import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scipy.sparse as sp

from ringgpe.mesh import MeshParams, build_ring_mesh
from ringgpe.fv import (
    Field,
    assemble_laplacian,
    complex_pairing,
    discrete_curl,
    discrete_gradient,
    inner_product,
    norm,
    normalize,
)


@pytest.fixture(scope="module")
def mesh():
    return build_ring_mesh(MeshParams(r_min=0.6, r_max=1.4, h=0.06))


@pytest.fixture(scope="module")
def op(mesh):
    return assemble_laplacian(mesh, "dirichlet")


@pytest.fixture(scope="module")
def op_neumann(mesh):
    return assemble_laplacian(mesh, "neumann")


def random_field(mesh, rng, complex_=True):
    v = rng.standard_normal(mesh.n_triangles)
    if complex_:
        v = v + 1j * rng.standard_normal(mesh.n_triangles)
    return Field(mesh, v)


def at_centers(mesh, fn):
    """The field of fn(x, y) at the circumcenters."""
    return Field(mesh, fn(mesh.centers[:, 0], mesh.centers[:, 1]))


def interior_triangles(mesh):
    bnd = np.unique(mesh.edge_K[mesh.boundary_edges])
    return np.setdiff1d(np.arange(mesh.n_triangles), bnd)


class TestField:
    def test_length_checked(self, mesh):
        with pytest.raises(ValueError):
            Field(mesh, np.zeros(mesh.n_triangles + 1))

    def test_nan_rejected(self, mesh):
        v = np.zeros(mesh.n_triangles)
        v[3] = np.nan
        with pytest.raises(ValueError):
            Field(mesh, v)
        v[3] = np.inf
        with pytest.raises(ValueError):
            Field(mesh, v)

    def test_abs2(self, mesh):
        u = Field.constant(mesh, 3.0 + 4.0j)
        assert np.allclose(u.abs2(), 25.0)


class TestInnerProducts:
    def test_pairing_conjugate_symmetry(self, mesh):
        rng = np.random.default_rng(1)
        u, v = random_field(mesh, rng), random_field(mesh, rng)
        assert complex_pairing(u, v) == pytest.approx(
            np.conj(complex_pairing(v, u)), rel=1e-13)

    def test_norm_is_weighted_l2(self, mesh):
        rng = np.random.default_rng(2)
        u = random_field(mesh, rng)
        assert norm(u)**2 == pytest.approx(complex_pairing(u, u).real, rel=1e-13)
        assert inner_product(u, u) == pytest.approx(norm(u)**2, rel=1e-13)

    def test_constant_norm_close_to_annulus_area(self, mesh):
        area = math.pi * (1.4**2 - 0.6**2)
        assert norm(Field.constant(mesh)) == pytest.approx(math.sqrt(area), rel=1e-3)

    def test_mismatched_meshes_rejected(self, mesh):
        other = build_ring_mesh(MeshParams(r_min=0.6, r_max=1.4, h=0.06))
        with pytest.raises(ValueError):
            inner_product(Field.constant(mesh), Field.constant(other))

    def test_normalize(self, mesh):
        rng = np.random.default_rng(3)
        u = normalize(random_field(mesh, rng))
        assert norm(u) == pytest.approx(1.0, abs=1e-13)
        with pytest.raises(ValueError):
            normalize(Field.constant(mesh, 0.0))


class TestLaplacian:
    def test_flux_matrix_symmetric(self, op, op_neumann):
        assert abs(op.A - op.A.T).max() == 0.0
        assert abs(op_neumann.A - op_neumann.A.T).max() == 0.0

    def test_self_adjoint_weighted(self, mesh, op):
        rng = np.random.default_rng(4)
        for _ in range(100):
            u = normalize(random_field(mesh, rng))
            v = normalize(random_field(mesh, rng))
            lhs = inner_product(Field(mesh, op.A_T @ u.values), v)
            rhs = inner_product(u, Field(mesh, op.A_T @ v.values))
            assert abs(lhs - rhs) < 1e-12

    def test_negative_semidefinite(self, mesh, op, op_neumann):
        rng = np.random.default_rng(5)
        for _ in range(100):
            u = random_field(mesh, rng)
            assert op.quadratic_form(u) < 0.0
            assert op_neumann.quadratic_form(u) <= 1e-10

    def test_quadratic_form_is_jump_sum(self, mesh, op, op_neumann):
        # Independent identity: <U, A_T U>_T = -sum_int c |U_L - U_K|^2
        # - sum_bnd c |U_K|^2 (Dirichlet only for the boundary part).
        rng = np.random.default_rng(6)
        u = random_field(mesh, rng)
        ie = mesh.interior_edges
        c = mesh.edge_length[ie] / mesh.edge_d[ie]
        jumps = np.abs(u.values[mesh.edge_L[ie]] - u.values[mesh.edge_K[ie]])**2
        expected = -(c * jumps).sum()
        assert op_neumann.quadratic_form(u) == pytest.approx(expected, rel=1e-11)
        be = mesh.boundary_edges
        cb = mesh.edge_length[be] / mesh.edge_d[be]
        expected -= (cb * np.abs(u.values[mesh.edge_K[be]])**2).sum()
        assert op.quadratic_form(u) == pytest.approx(expected, rel=1e-11)

    def test_neumann_kernel(self, mesh, op_neumann):
        res = op_neumann.A_T @ np.ones(mesh.n_triangles)
        assert np.abs(res).max() < 1e-9
        res_flux = op_neumann.A @ np.ones(mesh.n_triangles)
        assert np.abs(res_flux).max() < 1e-12

    def test_consistency_on_quadratic(self, mesh, op):
        # A_T (x^2 + y^2) -> 4 pointwise away from the boundary, first order.
        u = at_centers(mesh, lambda x, y: x * x + y * y)
        inside = interior_triangles(mesh)
        err_fine = np.abs((op.A_T @ u.values)[inside] - 4.0).max()
        coarse = build_ring_mesh(MeshParams(r_min=0.6, r_max=1.4, h=0.12))
        opc = assemble_laplacian(coarse, "dirichlet")
        uc = at_centers(coarse, lambda x, y: x * x + y * y)
        err_coarse = np.abs((opc.A_T @ uc.values)[interior_triangles(coarse)] - 4.0).max()
        assert err_fine < err_coarse / 1.4

    def test_bad_bc_rejected(self, mesh):
        with pytest.raises(ValueError):
            assemble_laplacian(mesh, "robin")

    def test_mesh_mismatch_rejected(self, op):
        other = build_ring_mesh(MeshParams(r_min=0.6, r_max=1.4, h=0.2))
        with pytest.raises(ValueError, match="field mesh does not match operator mesh"):
            op.quadratic_form(Field.constant(other))

    def test_assembly_deterministic(self, mesh):
        a1 = assemble_laplacian(mesh, "dirichlet")
        a2 = assemble_laplacian(mesh, "dirichlet")
        assert np.array_equal(a1.A.data, a2.A.data)
        assert np.array_equal(a1.A.indices, a2.A.indices)
        assert np.array_equal(a1.A.indptr, a2.A.indptr)


class TestGradient:
    def test_affine_exact_inside(self, mesh):
        u = at_centers(mesh, lambda x, y: 3.0 * x - 2.0 * y + 0.5)
        grad = discrete_gradient(u)
        inside = interior_triangles(mesh)
        assert np.abs(grad[inside] - np.array([3.0, -2.0])).max() < 1e-10

    def test_constant_zero_inside(self, mesh):
        grad = discrete_gradient(Field.constant(mesh, 2.5))
        inside = interior_triangles(mesh)
        assert np.abs(grad[inside]).max() < 1e-11

    def test_neumann_constant_zero_everywhere(self, mesh):
        grad = discrete_gradient(Field.constant(mesh, 2.5), bc="neumann")
        assert np.abs(grad).max() < 1e-11

    def test_complex_linearity(self, mesh):
        rng = np.random.default_rng(7)
        u = random_field(mesh, rng)
        v = random_field(mesh, rng)
        a = 0.3 - 1.7j
        lhs = discrete_gradient(Field(mesh, a * u.values + v.values))
        rhs = a * discrete_gradient(u) + discrete_gradient(v)
        assert np.abs(lhs - rhs).max() < 1e-9

    def test_bad_bc_rejected(self, mesh):
        with pytest.raises(ValueError):
            discrete_gradient(Field.constant(mesh), bc="periodic")


class TestCurl:
    def test_constant_field_zero(self, mesh):
        v = np.tile([1.3, -0.7], (mesh.n_triangles, 1))
        assert np.abs(discrete_curl(mesh, v)).max() < 1e-12

    def test_rigid_rotation_edge_sampled(self, mesh):
        v = np.column_stack([-mesh.edge_mid[:, 1], mesh.edge_mid[:, 0]])
        curl = discrete_curl(mesh, v)
        assert np.abs(curl - 2.0).max() < 1e-11

    def test_rigid_rotation_triangle_averaged(self, mesh):
        v = np.column_stack([-mesh.centers[:, 1], mesh.centers[:, 0]])
        curl = discrete_curl(mesh, v)
        inside = interior_triangles(mesh)
        assert np.abs(curl[inside] - 2.0).max() < 0.3

    def test_linearity(self, mesh):
        rng = np.random.default_rng(8)
        v = rng.standard_normal((mesh.n_triangles, 2))
        w = rng.standard_normal((mesh.n_triangles, 2))
        lhs = discrete_curl(mesh, 2.0 * v - 3.0 * w)
        rhs = 2.0 * discrete_curl(mesh, v) - 3.0 * discrete_curl(mesh, w)
        assert np.abs(lhs - rhs).max() < 1e-9

    def test_shape_validation(self, mesh):
        with pytest.raises(ValueError):
            discrete_curl(mesh, np.zeros((17, 2)))
        with pytest.raises(ValueError):
            discrete_curl(mesh, np.zeros(mesh.n_triangles))


def add_at_gradient(u, bc):
    """discrete_gradient as it scattered with np.add.at (test oracle)."""
    mesh = u.mesh
    vals = u.values
    out = np.zeros((mesh.n_triangles, 2),
                   dtype=np.complex128 if np.iscomplexobj(vals) else np.float64)
    ie = mesh.interior_edges
    k = mesh.edge_K[ie]
    l = mesh.edge_L[ie]
    t = mesh.edge_length[ie] / mesh.edge_d[ie]
    jump = t * (vals[l] - vals[k])
    mid = mesh.edge_mid[ie]
    np.add.at(out, k, jump[:, None] * (mid - mesh.centers[k]))
    np.add.at(out, l, -jump[:, None] * (mid - mesh.centers[l]))
    if bc == "dirichlet":
        be = mesh.boundary_edges
        kb = mesh.edge_K[be]
        tb = mesh.edge_length[be] / mesh.edge_d[be]
        jump_b = -tb * vals[kb]
        np.add.at(out, kb, jump_b[:, None] * (mesh.edge_mid[be] - mesh.centers[kb]))
    out /= mesh.areas[:, None]
    return out


def add_at_curl(mesh, v):
    """discrete_curl as it scattered with np.add.at (test oracle)."""
    if v.shape[0] == mesh.n_edges:
        v_edge = v
    else:
        v_edge = v[mesh.edge_K].copy()
        ie = mesh.interior_edges
        v_edge[ie] = 0.5 * (v[mesh.edge_K[ie]] + v[mesh.edge_L[ie]])
    evec = mesh.vertices[mesh.edge_vertices[:, 1]] - mesh.vertices[mesh.edge_vertices[:, 0]]
    s = np.sign(-mesh.edge_normal[:, 1] * evec[:, 0]
                + mesh.edge_normal[:, 0] * evec[:, 1])
    circ = s * np.einsum("ij,ij->i", v_edge, evec)
    out = np.zeros(mesh.n_triangles,
                   dtype=np.complex128 if np.iscomplexobj(v) else np.float64)
    np.add.at(out, mesh.edge_K, circ)
    ie = mesh.interior_edges
    np.add.at(out, mesh.edge_L[ie], -circ[ie])
    out /= mesh.areas
    return out


# Small meshes: N_p even, odd and 3, down to a single band.
SMALL_MESHES = {
    "even": MeshParams(r_min=0.6, r_max=1.4, h=0.1, n_points=128),
    "odd": MeshParams(r_min=0.6, r_max=1.4, h=0.2),
    "three": MeshParams(r_min=0.6, r_max=1.4, h=0.2, n_circles=3, n_points=3),
    "one band": MeshParams(r_min=0.6, r_max=1.4, h=0.2, n_circles=2, n_points=7),
}


@functools.cache
def small_mesh(name):
    return build_ring_mesh(SMALL_MESHES[name])


def random_values(rng, shape, complex_):
    # Magnitudes spread over many decades, with exact zeros of both signs.
    v = rng.standard_normal(shape) * 10.0 ** rng.integers(-150, 150, shape)
    v[rng.random(shape) < 0.05] = 0.0
    v[rng.random(shape) < 0.05] = -0.0
    if complex_:
        v = v + 1j * random_values(rng, shape, False)
    return v


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestScatterOracle:
    """bincount scatters against the np.add.at ones they replace, bit for bit."""

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(name=st.sampled_from(sorted(SMALL_MESHES)), complex_=st.booleans(),
           bc=st.sampled_from(["dirichlet", "neumann"]), seed=st.integers(0, 2**32 - 1))
    def test_gradient(self, name, complex_, bc, seed):
        mesh = small_mesh(name)
        u = Field(mesh, random_values(np.random.default_rng(seed), mesh.n_triangles, complex_))
        assert same_bits(discrete_gradient(u, bc), add_at_gradient(u, bc))

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(name=st.sampled_from(sorted(SMALL_MESHES)), complex_=st.booleans(),
           per_edge=st.booleans(), seed=st.integers(0, 2**32 - 1))
    def test_curl(self, name, complex_, per_edge, seed):
        mesh = small_mesh(name)
        n = mesh.n_edges if per_edge else mesh.n_triangles
        v = random_values(np.random.default_rng(seed), (n, 2), complex_)
        assert same_bits(discrete_curl(mesh, v), add_at_curl(mesh, v))

    @pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
    def test_desk_mesh(self, mesh, bc):
        rng = np.random.default_rng(12)
        for complex_ in (False, True):
            u = random_field(mesh, rng, complex_)
            grad = discrete_gradient(u, bc)
            assert same_bits(grad, add_at_gradient(u, bc))
            assert same_bits(discrete_curl(mesh, grad), add_at_curl(mesh, grad))


def branchy_assembly(mesh, bc):
    """assemble_laplacian as it branched on bc in COO form (test oracle)."""
    n = mesh.n_triangles
    ie = mesh.interior_edges
    k = mesh.edge_K[ie]
    l = mesh.edge_L[ie]
    c = mesh.edge_length[ie] / mesh.edge_d[ie]
    rows = [k, l, k, l]
    cols = [l, k, k, l]
    vals = [c, c, -c, -c]
    if bc == "dirichlet":
        be = mesh.boundary_edges
        kb = mesh.edge_K[be]
        rows.append(kb)
        cols.append(kb)
        vals.append(-(mesh.edge_length[be] / mesh.edge_d[be]))
    A = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n),
    ).tocsr()
    A.sum_duplicates()
    A.sort_indices()
    A_T = (sp.diags(1.0 / mesh.areas) @ A).tocsr()
    A_T.sort_indices()
    return A, A_T


def same_csr(a, b):
    return all(same_bits(getattr(a, f), getattr(b, f)) for f in ("data", "indices", "indptr"))


def assert_assembly_matches_oracle(mesh, bc):
    op = assemble_laplacian(mesh, bc)
    A, A_T = branchy_assembly(mesh, bc)
    assert same_csr(op.A, A)
    assert same_csr(op.A_T, A_T)


RANDOM_MESH = st.builds(
    lambda r_min, width, steps: MeshParams(r_min=r_min, r_max=r_min + width, h=width / steps),
    st.floats(0.1, 1.0), st.floats(0.2, 1.7), st.floats(2.01, 8.0))


class TestAssemblyOracle:
    """The wall-edge assembly against the branchy one it replaced, bit for bit."""

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(params=st.one_of(st.sampled_from([SMALL_MESHES[k] for k in sorted(SMALL_MESHES)]),
                            RANDOM_MESH),
           bc=st.sampled_from(["dirichlet", "neumann"]))
    def test_small_meshes(self, params, bc):
        assert_assembly_matches_oracle(build_ring_mesh(params), bc)

    @pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
    def test_desk_mesh(self, mesh, bc):
        assert_assembly_matches_oracle(mesh, bc)
