"""Twisted concentric triangulations of an annulus.

The mesh stacks N_p equally spaced points on each circle of a radius family,
rotating consecutive circles against each other by half an angular spacing
and keeping the radial spacing tightest midway across the annulus, where the
trap minimum sits. Every triangle is isosceles and (for point counts from
``derive_mesh_counts``) acute, so circumcenters lie strictly inside their
triangles and the segment joining the circumcenters of two edge-adjacent
triangles is orthogonal to the shared edge. Two-point flux operators on such
a mesh are consistent with the Laplacian; see fv.py.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

# N_p grows like 2*pi*sqrt(2) * N_c / (1 - r_min/r_max); the sqrt(2) keeps
# the apex angle of every triangle below pi/2.
POINT_COUNT_FACTOR = 2.0 * math.pi * math.sqrt(2.0)
# Largest mesh build_ring_mesh accepts (paper62 has 39 852 triangles); the
# count is checked before any per-circle array is allocated.
MAX_TRIANGLES = 10_000_000
# Largest |cos| of an edge and its circumcenter segment deemed orthogonal.
ORTHOGONALITY_TOL = 1e-10


@dataclass(frozen=True)
class MeshParams:
    """Geometry of the annulus and resolution controls.

    n_circles / n_points override the counts derived from h when given.
    match_paper_counts switches the radius family to N_c increments over
    N_c + 1 circles (one extra circle), which is the published construction.
    """

    r_min: float
    r_max: float
    h: float
    n_circles: int | None = None
    n_points: int | None = None
    match_paper_counts: bool = False

    def __post_init__(self):
        if not (0.0 < self.r_min < self.r_max):
            raise ValueError("need 0 < r_min < r_max")
        if not self.h > 0.0:
            raise ValueError("h must be positive")


def derive_mesh_counts(h: float, r_min: float, r_max: float) -> tuple[int, int]:
    """Circle count N_c and per-circle point count N_p for edge-size target h.

    N_c = ceil((r_max - r_min)/h), N_p = ceil(2 pi sqrt(2) N_c / (1 - r_min/r_max)),
    evaluated in plain floating point. N_p is the smallest count of this form
    that keeps all triangle angles acute across the whole annulus.
    """
    if not (0.0 < r_min < r_max):
        raise ValueError("need 0 < r_min < r_max")
    if not h > 0.0:
        raise ValueError("h must be positive")
    n_c = math.ceil((r_max - r_min) / h)
    n_p = math.ceil(POINT_COUNT_FACTOR * n_c / (1.0 - r_min / r_max))
    return n_c, n_p


def _increment_profile(x: np.ndarray, n_c: int, r_min: float, r_max: float) -> np.ndarray:
    """Radial increment profile f(x) = alpha (x - 1/2)^2 + (r_max - r_min)/(2 N_c)."""
    dr = r_max - r_min
    alpha = 6.0 * n_c / (n_c * n_c + 2.0) * dr
    return alpha * (x - 0.5) ** 2 + dr / (2.0 * n_c)


def _radii_from_increments(increments: np.ndarray, r_min: float, r_max: float) -> np.ndarray:
    # One global rescale of the increments makes the endpoints exact without
    # touching the concentration profile.
    t = np.concatenate(([0.0], np.cumsum(increments)))
    t /= t[-1]
    r = r_min * (1.0 - t) + r_max * t
    r[0] = r_min
    r[-1] = r_max
    return r


def compute_radii(n_circles: int, r_min: float, r_max: float) -> np.ndarray:
    """Radii of the n_circles mesh circles, concentrated toward mid-annulus.

    Uses increments f(k/N_c) for k = 1 .. N_c - 1, rescaled by a single factor
    so that the first and last radii are exactly r_min and r_max.
    """
    if n_circles < 2:
        raise ValueError("need at least two circles")
    k = np.arange(1, n_circles)
    inc = _increment_profile(k / n_circles, n_circles, r_min, r_max)
    return _radii_from_increments(inc, r_min, r_max)


@dataclass(eq=False)
class RingMesh:
    """Triangulation with the precomputed geometry the flux operators need.

    Triangles are indexed 2*(band*N_p + slot) + kind where kind 0 is the
    inward-pointing triangle (apex on the inner circle of the band) and kind 1
    the outward-pointing one; layout.slot_view and its inverse slot_labels
    map between the two. Vertex id on circle j at slot k is j*N_p + k.
    Edges are sorted by their (low vertex, high vertex) pair; edge_L is -1 on
    the boundary. edge_normal points from triangle K toward L (outward at the
    boundary) and equals the unit vector along the circumcenter segment, so it
    is exactly perpendicular to the edge. The vertex-sharing adjacency graph
    is built on first use, by the detectors, and kept.
    """

    params: MeshParams
    radii: np.ndarray
    n_points: int
    vertices: np.ndarray
    triangles: np.ndarray
    centers: np.ndarray
    areas: np.ndarray
    edge_vertices: np.ndarray
    edge_K: np.ndarray
    edge_L: np.ndarray
    edge_length: np.ndarray
    edge_d: np.ndarray
    edge_mid: np.ndarray
    edge_normal: np.ndarray

    @functools.cached_property
    def adjacency(self) -> sp.csr_matrix:
        """Vertex-sharing triangle graph, CSR with sorted indices. Only
        triangle_shells and detect_by_vorticity read it."""
        n_tri = self.n_triangles
        inc = sp.csr_matrix(
            (np.ones(3 * n_tri, dtype=np.int8),
             (np.repeat(np.arange(n_tri), 3), self.triangles.ravel())),
            shape=(n_tri, self.n_vertices),
        )
        graph = (inc @ inc.T).tocsr()
        graph.setdiag(0)
        graph.eliminate_zeros()
        graph.sort_indices()
        return graph

    @property
    def n_triangles(self) -> int:
        return self.triangles.shape[0]

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_circles(self) -> int:
        return self.radii.size

    @property
    def n_bands(self) -> int:
        return self.radii.size - 1

    @property
    def n_edges(self) -> int:
        return self.edge_vertices.shape[0]

    @property
    def interior_edges(self) -> np.ndarray:
        return np.flatnonzero(self.edge_L >= 0)

    @property
    def boundary_edges(self) -> np.ndarray:
        return np.flatnonzero(self.edge_L < 0)


def _circumcenters(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    d = 2.0 * (a[:, 0] * (b[:, 1] - c[:, 1])
               + b[:, 0] * (c[:, 1] - a[:, 1])
               + c[:, 0] * (a[:, 1] - b[:, 1]))
    a2 = np.einsum("ij,ij->i", a, a)
    b2 = np.einsum("ij,ij->i", b, b)
    c2 = np.einsum("ij,ij->i", c, c)
    ux = (a2 * (b[:, 1] - c[:, 1]) + b2 * (c[:, 1] - a[:, 1]) + c2 * (a[:, 1] - b[:, 1])) / d
    uy = (a2 * (c[:, 0] - b[:, 0]) + b2 * (a[:, 0] - c[:, 0]) + c2 * (b[:, 0] - a[:, 0])) / d
    return np.column_stack([ux, uy])


def _circles(params: MeshParams) -> tuple[np.ndarray, int]:
    """Radii of the mesh circles and the point count N_p per circle."""
    try:
        n_c, n_p = derive_mesh_counts(params.h, params.r_min, params.r_max)
    except OverflowError:
        raise ValueError(f"h = {params.h!r} gives no finite mesh counts") from None
    if params.n_circles is not None:
        n_c = int(params.n_circles)
    if params.n_points is not None:
        n_p = int(params.n_points)
    if n_c < 2 or n_p < 3:
        raise ValueError("mesh counts too small")
    n_triangles = 2 * (n_c - 1 + params.match_paper_counts) * n_p
    if n_triangles > MAX_TRIANGLES:
        raise ValueError(f"mesh of {n_triangles} triangles exceeds the limit of "
                         f"{MAX_TRIANGLES}")
    if not params.match_paper_counts:
        return compute_radii(n_c, params.r_min, params.r_max), n_p
    # Published variant: N_c increments f(k/N_c), k = 1 .. N_c, spanning
    # N_c + 1 circles. With the alpha above these already sum to r_max - r_min
    # up to rounding; the rescale factor is 1 + O(eps).
    inc = _increment_profile(np.arange(1, n_c + 1) / n_c, n_c, params.r_min, params.r_max)
    return _radii_from_increments(inc, params.r_min, params.r_max), n_p


def _vertex_positions(radii: np.ndarray, n_p: int, ids: np.ndarray) -> np.ndarray:
    # Vertex j*N_p + k: point k of circle j, twisted by -j*pi/N_p from circle 0.
    j, k = np.divmod(ids, n_p)
    theta = (2 * k - j) * (math.pi / n_p)
    return np.stack([radii[j] * np.cos(theta), radii[j] * np.sin(theta)], axis=-1)


def _slot_triangles(n_circ: int, n_p: int, slots: np.ndarray) -> np.ndarray:
    """Vertex ids of the triangles (band, slot in slots, kind), in index order.

    Kind 0 has its apex on the inner circle of the band, kind 1 on the outer.
    """
    jb = np.arange(n_circ - 1)[:, None]
    k = np.asarray(slots)[None, :]
    kp = (k + 1) % n_p
    v00 = jb * n_p + k
    v01 = jb * n_p + kp
    v10 = (jb + 1) * n_p + k
    v11 = (jb + 1) * n_p + kp
    t_in = np.stack(np.broadcast_arrays(v00, v10, v11), axis=-1)
    t_out = np.stack(np.broadcast_arrays(v00, v01, v11), axis=-1)
    return np.stack([t_in, t_out], axis=2).reshape(-1, 3)


def _max_angle(pa: np.ndarray, pb: np.ndarray, pc: np.ndarray) -> float:
    """Largest interior angle of the triangles (pa[i], pb[i], pc[i])."""
    max_angle = 0.0
    for u, v, w in ((pa, pb, pc), (pb, pc, pa), (pc, pa, pb)):
        e1 = v - u
        e2 = w - u
        cosang = np.einsum("ij,ij->i", e1, e2) / (
            np.hypot(e1[:, 0], e1[:, 1]) * np.hypot(e2[:, 0], e2[:, 1]))
        max_angle = max(max_angle, float(np.arccos(np.clip(cosang, -1.0, 1.0)).max()))
    return max_angle


def max_triangle_angle(params: MeshParams) -> float:
    """Largest triangle angle of build_ring_mesh(params), from the 2*n_bands
    triangles of slot 0 (every slot is a rotation of it, up to round-off)."""
    radii, n_p = _circles(params)
    corners = _vertex_positions(radii, n_p, _slot_triangles(radii.size, n_p, [0]))
    return _max_angle(corners[:, 0], corners[:, 1], corners[:, 2])


def _oriented_triangles(vertices: np.ndarray, n_circ: int,
                        n_p: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Triangles in index order, each turned counterclockwise, with their
    areas and circumcenters."""
    triangles = _slot_triangles(n_circ, n_p, np.arange(n_p))
    pa = vertices[triangles[:, 0]]
    pb = vertices[triangles[:, 1]]
    pc = vertices[triangles[:, 2]]
    cross = ((pb[:, 0] - pa[:, 0]) * (pc[:, 1] - pa[:, 1])
             - (pb[:, 1] - pa[:, 1]) * (pc[:, 0] - pa[:, 0]))
    flip = cross < 0.0
    triangles[flip] = triangles[flip][:, [0, 2, 1]]
    pb[flip], pc[flip] = pc[flip], pb[flip]  # the corners of the turned triangles
    return triangles, 0.5 * np.abs(cross), _circumcenters(pa, pb, pc)


def _edge_keys(triangles: np.ndarray, n_vertices: int) -> np.ndarray:
    """low * n_vertices + high for the edges (0, 1), (1, 2) and (2, 0) of
    every triangle, edge j of triangle t at 3 t + j."""
    shifted = triangles[:, [1, 2, 0]]
    keys = np.minimum(triangles, shifted)
    keys *= n_vertices
    keys += np.maximum(triangles, shifted)
    return keys.ravel()


def _unique_edges(triangles: np.ndarray,
                  n_vertices: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Edge vertex pairs (low, high) in ascending order, with the triangles
    K and L on either side (L = -1 on the boundary).

    Edge j of triangle t is instance 3 t + j, keyed by its sorted vertex
    pair; within one key the stable sort keeps triangle order, so
    edge_K < edge_L deterministically.
    """
    keys = _edge_keys(triangles, n_vertices)
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    first = np.empty(keys.size, dtype=bool)
    first[0] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    starts = np.flatnonzero(first)
    counts = np.diff(np.append(starts, keys.size))
    if counts.max() > 2:
        raise RuntimeError("non-manifold edge in mesh construction")
    edge_vertices = np.stack(np.divmod(keys[starts], n_vertices), axis=1)
    edge_L = np.full(starts.size, -1, dtype=np.int64)
    two = counts == 2
    edge_L[two] = order[starts[two] + 1] // 3
    return edge_vertices, order[starts] // 3, edge_L


def _edge_vectors(vertices: np.ndarray,
                  edge_vertices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The vector from the low to the high vertex of every edge, and its midpoint."""
    p0 = vertices[edge_vertices[:, 0]]
    vec = vertices[edge_vertices[:, 1]]
    mid = p0 + vec
    mid *= 0.5
    vec -= p0
    return vec, mid


def _center_segments(centers: np.ndarray, edge_K: np.ndarray, edge_L: np.ndarray,
                     interior: np.ndarray) -> np.ndarray:
    """centers[L] - centers[K] across the given interior edges."""
    seg = centers[edge_L[interior]]
    seg -= centers[edge_K[interior]]
    return seg


def _edge_geometry(vertices: np.ndarray, centers: np.ndarray, edge_vertices: np.ndarray,
                   edge_K: np.ndarray, edge_L: np.ndarray):
    """Length, center distance d, midpoint and unit normal of every edge."""
    edge_vec, edge_mid = _edge_vectors(vertices, edge_vertices)
    edge_length = np.hypot(edge_vec[:, 0], edge_vec[:, 1])
    edge_d = np.empty(edge_length.size)
    edge_normal = np.empty((edge_length.size, 2))
    interior = edge_L >= 0
    seg = _center_segments(centers, edge_K, edge_L, interior)
    edge_d[interior] = np.hypot(seg[:, 0], seg[:, 1])
    seg /= edge_d[interior, None]
    edge_normal[interior] = seg
    bnd = ~interior
    # Boundary: unit normal to the edge, oriented away from the owning cell.
    tangent = edge_vec[bnd] / edge_length[bnd, None]
    nrm = np.column_stack([tangent[:, 1], -tangent[:, 0]])
    toward = edge_mid[bnd] - centers[edge_K[bnd]]
    nrm *= np.sign(np.einsum("ij,ij->i", nrm, toward))[:, None]
    edge_normal[bnd] = nrm
    edge_d[bnd] = np.einsum("ij,ij->i", nrm, toward)
    return edge_length, edge_d, edge_mid, edge_normal


def build_ring_mesh(params: MeshParams) -> RingMesh:
    """Build the twisted annulus triangulation for the given parameters.

    Each stage is a helper, so its temporaries are freed when it returns.
    """
    radii, n_p = _circles(params)
    vertices = _vertex_positions(radii, n_p, np.arange(radii.size * n_p))
    triangles, areas, centers = _oriented_triangles(vertices, radii.size, n_p)
    edge_vertices, edge_K, edge_L = _unique_edges(triangles, vertices.shape[0])
    edge_length, edge_d, edge_mid, edge_normal = _edge_geometry(
        vertices, centers, edge_vertices, edge_K, edge_L)
    return RingMesh(
        params=params,
        radii=radii,
        n_points=n_p,
        vertices=vertices,
        triangles=triangles,
        centers=centers,
        areas=areas,
        edge_vertices=edge_vertices,
        edge_K=edge_K,
        edge_L=edge_L,
        edge_length=edge_length,
        edge_d=edge_d,
        edge_mid=edge_mid,
        edge_normal=edge_normal,
    )


def triangle_shells(mesh: RingMesh, center: int, max_lambda: int) -> list[np.ndarray]:
    """Graph-distance shells S_0 .. S_max_lambda around a triangle.

    Distance is hop count in the vertex-sharing adjacency graph. Each shell
    comes back as a sorted array of triangle indices; the search stops at
    the first empty shell, and the shells past it are one shared empty array.
    """
    if not 0 <= center < mesh.n_triangles:
        raise ValueError("center triangle out of range")
    indptr, indices = mesh.adjacency.indptr, mesh.adjacency.indices
    visited = np.zeros(mesh.n_triangles, dtype=bool)
    visited[center] = True
    shells = [np.array([center], dtype=np.int64)]
    frontier = shells[0]
    while len(shells) <= max_lambda and frontier.size:
        # The CSR rows of the whole frontier in one gather: row t spans
        # indptr[t] .. indptr[t + 1], laid end to end.
        starts = indptr[frontier]
        counts = indptr[frontier + 1] - starts
        offsets = np.repeat(starts - (np.cumsum(counts) - counts), counts)
        reached = indices[offsets + np.arange(counts.sum())]
        nxt = np.unique(reached[~visited[reached]])
        visited[nxt] = True
        shells.append(nxt)
        frontier = nxt
    return shells + [np.empty(0, dtype=np.int64)] * (max_lambda + 1 - len(shells))


@dataclass(frozen=True)
class AdmissibilityReport:
    max_angle: float
    max_orthogonality_defect: float
    min_center_margin: float
    min_center_distance: float
    is_admissible: bool


def _center_margin(pa: np.ndarray, pb: np.ndarray, pc: np.ndarray,
                   centers: np.ndarray) -> float:
    """Smallest barycentric coordinate of any circumcenter in its triangle."""
    d = centers
    det = ((pb[:, 0] - pa[:, 0]) * (pc[:, 1] - pa[:, 1])
           - (pb[:, 1] - pa[:, 1]) * (pc[:, 0] - pa[:, 0]))
    l1 = ((pb[:, 1] - pc[:, 1]) * (d[:, 0] - pc[:, 0])
          + (pc[:, 0] - pb[:, 0]) * (d[:, 1] - pc[:, 1])) / det
    l2 = ((pc[:, 1] - pa[:, 1]) * (d[:, 0] - pc[:, 0])
          + (pa[:, 0] - pc[:, 0]) * (d[:, 1] - pc[:, 1])) / det
    return float(np.minimum(np.minimum(l1, l2), 1.0 - l1 - l2).min())


def _angle_and_margin(mesh: RingMesh) -> tuple[float, float]:
    """Largest triangle angle, and the smallest circumcenter margin."""
    pa = mesh.vertices[mesh.triangles[:, 0]]
    pb = mesh.vertices[mesh.triangles[:, 1]]
    pc = mesh.vertices[mesh.triangles[:, 2]]
    return _max_angle(pa, pb, pc), _center_margin(pa, pb, pc, mesh.centers)


def _orthogonality_defect(mesh: RingMesh) -> float:
    """Largest |cos| of an edge and its normal."""
    tangent = mesh.vertices[mesh.edge_vertices[:, 1]]
    tangent -= mesh.vertices[mesh.edge_vertices[:, 0]]
    tangent /= mesh.edge_length[:, None]
    return float(np.abs(np.einsum("ij,ij->i", tangent, mesh.edge_normal)).max())


def verify_admissibility(mesh: RingMesh) -> AdmissibilityReport:
    """Check the properties the two-point flux scheme relies on.

    All triangle angles acute, circumcenters strictly interior (margin is the
    smallest barycentric coordinate of any circumcenter), circumcenter
    segments orthogonal to their edges, and positive center separations.
    Each check is a helper, so its temporaries are freed when it returns.
    """
    max_angle, margin = _angle_and_margin(mesh)
    defect = _orthogonality_defect(mesh)
    min_d = float(mesh.edge_d.min())
    ok = (max_angle < math.pi / 2.0 and margin > 0.0
          and defect < ORTHOGONALITY_TOL and min_d > 0.0)
    return AdmissibilityReport(
        max_angle=max_angle,
        max_orthogonality_defect=defect,
        min_center_margin=margin,
        min_center_distance=min_d,
        is_admissible=ok,
    )
