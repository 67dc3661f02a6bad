import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringgpe.fv import Field, assemble_laplacian, inner_product, norm
from ringgpe.mesh import (
    MeshParams,
    build_ring_mesh,
    compute_radii,
    derive_mesh_counts,
    triangle_shells,
    verify_admissibility,
    _increment_profile,
)
from conftest import shifted_triangles


@pytest.fixture(scope="module")
def small_mesh():
    # Coarse annulus, small enough for O(N^2) brute-force oracles, with at
    # least one band of fully interior triangles.
    return build_ring_mesh(MeshParams(r_min=0.5, r_max=1.5, h=0.25))


@pytest.fixture(scope="module")
def desk_mesh():
    return build_ring_mesh(MeshParams(r_min=0.6, r_max=1.4, h=0.06))


def brute_vertex_neighbors(triangles, t):
    """Independent O(N) scan for triangles sharing a vertex with t."""
    verts = set(triangles[t])
    return sorted(u for u in range(len(triangles))
                  if u != t and verts & set(triangles[u]))


def sliced_shells(mesh, center, max_lambda):
    """triangle_shells with one CSR row slice per frontier triangle (test oracle)."""
    indptr, indices = mesh.adjacency.indptr, mesh.adjacency.indices
    visited = np.zeros(mesh.n_triangles, dtype=bool)
    visited[center] = True
    shells = [np.array([center], dtype=np.int64)]
    frontier = shells[0]
    for _ in range(max_lambda):
        if frontier.size == 0:
            shells.append(np.empty(0, dtype=np.int64))
            continue
        cand = np.unique(np.concatenate([indices[indptr[t]:indptr[t + 1]] for t in frontier]))
        nxt = cand[~visited[cand]]
        visited[nxt] = True
        shells.append(nxt)
        frontier = nxt
    return shells


def brute_shells(triangles, center, max_lam):
    """Independent BFS over the vertex-sharing graph."""
    seen = {center}
    shells = [[center]]
    frontier = [center]
    for _ in range(max_lam):
        nxt = set()
        for t in frontier:
            for u in brute_vertex_neighbors(triangles, t):
                if u not in seen:
                    nxt.add(u)
        seen |= nxt
        frontier = sorted(nxt)
        shells.append(frontier)
    return shells


class TestCounts:
    def test_known_count_pairs(self):
        # ceil(1.0/0.1) = 10 circles; ceil(2*pi*sqrt(2)*10 / (1 - 0.5/1.5))
        # = ceil(133.286...) = 134 points.
        assert derive_mesh_counts(0.1, 0.5, 1.5) == (10, 134)
        # (1.6-0.4)/0.05 rounds up from 24.000000000000004 in double precision.
        assert derive_mesh_counts(0.05, 0.4, 1.6) == (25, 297)
        assert derive_mesh_counts(0.06, 0.6, 1.4) == (14, 218)

    def test_validation(self):
        with pytest.raises(ValueError):
            derive_mesh_counts(0.0, 0.5, 1.5)
        with pytest.raises(ValueError):
            derive_mesh_counts(0.1, 1.5, 0.5)
        with pytest.raises(ValueError):
            derive_mesh_counts(0.1, -0.1, 1.5)
        with pytest.raises(ValueError):
            MeshParams(r_min=0.5, r_max=1.5, h=-1.0)

    def test_triangle_count_formula(self, small_mesh, desk_mesh):
        for m in (small_mesh, desk_mesh):
            assert m.n_triangles == 2 * m.n_points * (m.n_circles - 1)

    def test_published_figure_counts(self):
        m = build_ring_mesh(MeshParams(r_min=0.4, r_max=1.6, h=0.05,
                                       match_paper_counts=True))
        assert m.n_triangles == 14850
        assert (m.n_circles, m.n_points) == (26, 297)
        m2 = build_ring_mesh(MeshParams(r_min=0.6, r_max=1.4, h=0.03,
                                        n_circles=41, n_points=486,
                                        match_paper_counts=True))
        assert m2.n_triangles == 39852

    def test_overrides(self):
        m = build_ring_mesh(MeshParams(r_min=0.5, r_max=1.5, h=0.2,
                                       n_circles=7, n_points=90))
        assert m.n_circles == 7
        assert m.n_points == 90


class TestRadii:
    def test_endpoints_exact(self):
        r = compute_radii(25, 0.4, 1.6)
        assert r[0] == 0.4
        assert r[-1] == 1.6
        assert r.size == 25
        assert np.all(np.diff(r) > 0)

    def test_increments_symmetric(self):
        inc = np.diff(compute_radii(25, 0.4, 1.6))
        assert np.abs(inc - inc[::-1]).max() < 1e-14

    def test_single_rescale_of_profile(self):
        # The realized increments are one common multiple of the profile.
        n_c = 25
        inc = np.diff(compute_radii(n_c, 0.4, 1.6))
        f = _increment_profile(np.arange(1, n_c) / n_c, n_c, 0.4, 1.6)
        ratio = inc / f
        assert np.ptp(ratio) < 1e-13

    def test_profile_alpha_value(self):
        # alpha = 6*25/(25^2+2) * 1.2
        f = _increment_profile(np.array([0.0, 0.5]), 25, 0.4, 1.6)
        alpha = 4.0 * (f[0] - f[1])
        assert alpha == pytest.approx(0.28708133971291866, rel=1e-12)

    def test_spacing_tightest_in_middle(self):
        inc = np.diff(compute_radii(25, 0.6, 1.4))
        assert np.argmin(inc) in (inc.size // 2 - 1, inc.size // 2)
        # Base spacing (r_max - r_min)/(2 N_c) times the endpoint rescale.
        assert inc.min() == pytest.approx(0.8 / 50, rel=0.15)


class TestGeometry:
    def test_all_isosceles(self, desk_mesh):
        p = desk_mesh.vertices[desk_mesh.triangles]
        s0 = np.linalg.norm(p[:, 1] - p[:, 2], axis=1)
        s1 = np.linalg.norm(p[:, 2] - p[:, 0], axis=1)
        s2 = np.linalg.norm(p[:, 0] - p[:, 1], axis=1)
        sides = np.sort(np.column_stack([s0, s1, s2]), axis=1)
        closest = np.minimum(sides[:, 1] - sides[:, 0], sides[:, 2] - sides[:, 1])
        assert (closest / sides[:, 2]).max() < 1e-12

    def test_admissibility(self, small_mesh, desk_mesh):
        for m in (small_mesh, desk_mesh):
            rep = verify_admissibility(m)
            assert rep.is_admissible
            assert rep.max_angle < math.pi / 2
            assert rep.max_orthogonality_defect < 1e-10
            assert rep.min_center_margin > 0.0
            assert rep.min_center_distance > 0.0

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(r_min=st.floats(0.1, 1.0), width=st.floats(0.2, 1.7),
           steps=st.floats(2.01, 12.0), match_paper_counts=st.booleans(),
           seed=st.integers(0, 2**32 - 1))
    def test_random_meshes_admissible(self, r_min, width, steps, match_paper_counts, seed):
        # h <= width / 2.01 gives at least three circles.
        mesh = build_ring_mesh(MeshParams(r_min=r_min, r_max=r_min + width,
                                          h=width / steps,
                                          match_paper_counts=match_paper_counts))
        assert mesh.n_circles >= 3
        assert verify_admissibility(mesh).is_admissible
        # A_T is self-adjoint for the area-weighted inner product.
        u, v = (Field(mesh, x) for x in
                np.random.default_rng(seed).standard_normal((2, mesh.n_triangles)))
        for bc in ("dirichlet", "neumann"):
            a_t = assemble_laplacian(mesh, bc).A_T
            au, av = Field(mesh, a_t @ u.values), Field(mesh, a_t @ v.values)
            gap = abs(inner_product(au, v) - inner_product(u, av))
            assert gap <= 1e-14 * norm(au) * norm(v)

    def test_circumcenters_equidistant(self, desk_mesh):
        p = desk_mesh.vertices[desk_mesh.triangles]
        d = np.linalg.norm(p - desk_mesh.centers[:, None, :], axis=2)
        assert (np.ptp(d, axis=1) / d[:, 0]).max() < 1e-10

    def test_area_sum_close_to_annulus(self, desk_mesh):
        p = desk_mesh.params
        exact = math.pi * (p.r_max**2 - p.r_min**2)
        assert desk_mesh.areas.sum() == pytest.approx(exact, rel=1e-3)

    def test_twist_between_circles(self, small_mesh):
        n_p = small_mesh.n_points
        v = small_mesh.vertices
        ang = np.arctan2(v[:, 1], v[:, 0]).reshape(small_mesh.n_circles, n_p)
        step = math.pi / n_p
        d01 = (ang[1, 0] - ang[0, 0]) / step
        assert d01 == pytest.approx(round(d01), abs=1e-9)
        assert int(round(d01)) % 2 == 1  # odd multiple: half a spacing

    def test_rotation_invariance(self, desk_mesh):
        # Rotation by 2*pi/N_p moves every triangle one slot on.
        perm = shifted_triangles(desk_mesh, np.arange(desk_mesh.n_triangles), [1])[0]
        assert np.array_equal(np.sort(perm), np.arange(desk_mesh.n_triangles))
        c = 2 * math.pi / desk_mesh.n_points
        rot = np.array([[math.cos(c), -math.sin(c)], [math.sin(c), math.cos(c)]])
        rotated = desk_mesh.centers @ rot.T
        assert np.abs(rotated - desk_mesh.centers[perm]).max() < 1e-12
        assert np.abs(desk_mesh.areas - desk_mesh.areas[perm]).max() < 1e-14


class TestEdges:
    def test_edge_count_identity(self, small_mesh, desk_mesh):
        for m in (small_mesh, desk_mesh):
            nb = m.boundary_edges.size
            assert nb == 2 * m.n_points
            assert m.n_edges == (3 * m.n_triangles + nb) // 2

    def test_interior_edge_distances(self, desk_mesh):
        m = desk_mesh
        ie = m.interior_edges
        assert np.all(m.edge_L[ie] >= 0)
        assert np.all(m.edge_K[ie] < m.edge_L[ie])
        d = np.linalg.norm(m.centers[m.edge_L[ie]] - m.centers[m.edge_K[ie]], axis=1)
        assert np.abs(d - m.edge_d[ie]).max() < 1e-14

    def test_boundary_edge_distances(self, desk_mesh):
        m = desk_mesh
        be = m.boundary_edges
        assert np.all(m.edge_L[be] == -1)
        # d is the perpendicular distance from the circumcenter to the edge.
        p0 = m.vertices[m.edge_vertices[be, 0]]
        p1 = m.vertices[m.edge_vertices[be, 1]]
        t = (p1 - p0) / m.edge_length[be, None]
        to_mid = m.edge_mid[be] - m.centers[m.edge_K[be]]
        perp = np.abs(to_mid[:, 0] * t[:, 1] - to_mid[:, 1] * t[:, 0])
        assert np.abs(perp - m.edge_d[be]).max() < 1e-14
        assert m.edge_d[be].min() > 0

    def test_normals_unit_and_perpendicular(self, desk_mesh):
        m = desk_mesh
        nrm = np.linalg.norm(m.edge_normal, axis=1)
        assert np.abs(nrm - 1.0).max() < 1e-12
        p0 = m.vertices[m.edge_vertices[:, 0]]
        p1 = m.vertices[m.edge_vertices[:, 1]]
        t = (p1 - p0) / m.edge_length[:, None]
        assert np.abs(np.einsum("ij,ij->i", t, m.edge_normal)).max() < 1e-10

    def test_normal_points_away_from_K(self, desk_mesh):
        m = desk_mesh
        toward = m.edge_mid - m.centers[m.edge_K]
        assert np.einsum("ij,ij->i", toward, m.edge_normal).min() > 0


class TestShells:
    def test_match_bruteforce(self, small_mesh):
        tris = small_mesh.triangles.tolist()
        rng = np.random.default_rng(7)
        for center in rng.choice(small_mesh.n_triangles, size=6, replace=False):
            got = triangle_shells(small_mesh, int(center), 3)
            want = brute_shells(tris, int(center), 3)
            assert [list(s) for s in got] == want

    def test_first_shell_size_range(self, small_mesh):
        # Interior triangles see 12 vertex-neighbors, boundary ones fewer.
        sizes = np.diff(small_mesh.adjacency.indptr)
        assert sizes.max() == 12
        assert sizes.min() >= 7
        interior_tri = int(np.argmin(
            np.abs(np.hypot(*small_mesh.centers.T) - 1.0)))
        assert len(brute_vertex_neighbors(small_mesh.triangles.tolist(),
                                          interior_tri)) == 12

    def test_exhausted_graph_gives_empty_shells(self, small_mesh):
        shells = triangle_shells(small_mesh, 0, 200)
        sizes = [s.size for s in shells]
        assert sum(sizes) == small_mesh.n_triangles
        assert sizes[-1] == 0

    def test_match_per_triangle_slices(self, small_mesh):
        # Every center, out to a graph exhausted several shells early.
        depth = sum(s.size > 0 for s in triangle_shells(small_mesh, 0, 200)) + 2
        for center in range(small_mesh.n_triangles):
            got = triangle_shells(small_mesh, center, depth)
            want = sliced_shells(small_mesh, center, depth)
            assert len(got) == len(want) == depth + 1
            assert all(g.dtype == w.dtype and np.array_equal(g, w) for g, w in zip(got, want))
            assert got[-1].size == 0

    def test_bad_center_rejected(self, small_mesh):
        with pytest.raises(ValueError):
            triangle_shells(small_mesh, small_mesh.n_triangles, 2)
