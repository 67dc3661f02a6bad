"""Two-point flux operators and weighted inner products on a RingMesh.

The discrete Laplacian comes in two guises: A is the symmetric flux form,
A_T = diag(1/|K|) A the area-scaled form consistent with the continuous
Laplacian. A_T is self-adjoint for the area-weighted inner product and
negative (semi-)definite: its quadratic form is minus a weighted sum of
squared jumps. All of this rests on the mesh orthogonality property
(circumcenter segments perpendicular to edges).

The boundary condition is one choice of wall edges: the boundary edges
that carry the ghost value 0 (all of them for Dirichlet conditions, none
for Neumann ones). The Laplacian and the gradient then run one path over
the interior edges and the wall edges.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .mesh import RingMesh

_BCS = ("dirichlet", "neumann")


@dataclass(eq=False)
class Field:
    """Per-triangle complex (or real) values tied to a mesh."""

    mesh: RingMesh
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values)
        if v.ndim != 1 or v.shape[0] != self.mesh.n_triangles:
            raise ValueError("field length must equal the triangle count")
        if np.iscomplexobj(v):
            v = v.astype(np.complex128, copy=False)
        else:
            v = v.astype(np.float64, copy=False)
        if not np.isfinite(v).all():
            raise ValueError("field contains non-finite entries")
        self.values = v

    @classmethod
    def constant(cls, mesh: RingMesh, value: complex = 1.0) -> "Field":
        return cls(mesh, np.full(mesh.n_triangles, value))

    def abs2(self) -> np.ndarray:
        return self.values.real**2 + self.values.imag**2


def _check_same_mesh(u: Field, v: Field):
    if u.mesh is not v.mesh:
        raise ValueError("fields live on different meshes")


def complex_pairing(u: Field, v: Field) -> complex:
    """Sesquilinear pairing sum_K u_K conj(v_K) |K|."""
    _check_same_mesh(u, v)
    return complex(np.sum(u.values * np.conj(v.values) * u.mesh.areas))


def inner_product(u: Field, v: Field) -> float:
    """Real part of the area-weighted pairing; the inner product of the scheme."""
    return complex_pairing(u, v).real


def norm(u: Field) -> float:
    """L2(T) norm, sqrt(sum |u_K|^2 |K|)."""
    return float(np.sqrt(np.sum(u.abs2() * u.mesh.areas)))


def normalize(u: Field) -> Field:
    n = norm(u)
    if n == 0.0:
        raise ValueError("cannot normalize the zero field")
    return Field(u.mesh, u.values / n)


@dataclass(eq=False)
class LaplacianOperator:
    """Assembled discrete Laplacian pair (A, A_T) with its boundary condition."""

    mesh: RingMesh
    bc: str
    A: sp.csr_matrix
    A_T: sp.csr_matrix

    def quadratic_form(self, u: Field) -> float:
        """<u, A_T u>_T; always <= 0.

        Summed by np.sum, whose order is fixed, not by a BLAS dot, whose
        order follows the thread count, so the value is the same for any.
        """
        if u.mesh is not self.mesh:
            raise ValueError("field mesh does not match operator mesh")
        return float(np.sum((np.conj(u.values) * (self.A @ u.values)).real))


def _flux_edges(mesh: RingMesh, bc: str):
    """Interior edges and wall edges, each with its t = |sigma|/d.

    The walls are the boundary edges that carry the ghost value 0: every
    boundary edge for Dirichlet conditions, none for Neumann ones. This is
    the one place where the boundary condition enters the flux stencil.
    """
    if bc not in _BCS:
        raise ValueError(f"bc must be one of {_BCS}")
    inner = mesh.interior_edges
    walls = mesh.boundary_edges if bc == "dirichlet" else mesh.boundary_edges[:0]
    edges = np.concatenate((inner, walls))
    t = mesh.edge_length[edges] / mesh.edge_d[edges]
    return inner, walls, t[:inner.size], t[inner.size:]


def assemble_laplacian(mesh: RingMesh, bc: str = "dirichlet") -> LaplacianOperator:
    """Assemble the two-point flux Laplacian on the mesh.

    Interior edge sigma between K and L contributes the flux
    |sigma| (U_L - U_K)/d_{K,L} to row K (and its negative to row L); a
    wall edge contributes -|sigma| U_K / d_{K,sigma} to row K (ghost value 0
    beyond it). Assembly walks edges in their stored sorted order, so the
    matrices are reproducible bit for bit.
    """
    inner, walls, c, cw = _flux_edges(mesh, bc)
    n = mesh.n_triangles
    k = mesh.edge_K[inner]
    l = mesh.edge_L[inner]
    kw = mesh.edge_K[walls]
    A = sp.coo_matrix(
        (np.concatenate((c, c, -c, -c, -cw)),
         (np.concatenate((k, l, k, l, kw)), np.concatenate((l, k, k, l, kw)))),
        shape=(n, n),
    ).tocsr()
    A.sum_duplicates()
    A.sort_indices()
    A_T = (sp.diags(1.0 / mesh.areas) @ A).tocsr()
    A_T.sort_indices()
    return LaplacianOperator(mesh=mesh, bc=bc, A=A, A_T=A_T)


def _scatter_add(n: int, owners: np.ndarray, terms: np.ndarray) -> np.ndarray:
    """out[owners[i]] += terms[i] over i in order, into n zeros.

    np.bincount sums each bin sequentially in index order, as np.add.at
    does, so the result is bitwise that of np.add.at on zeros. Complex
    addition rounds its real and imaginary parts separately, so they are
    scattered separately.
    """
    if np.iscomplexobj(terms):
        out = np.empty(n, dtype=terms.dtype)
        out.real = np.bincount(owners, terms.real, minlength=n)
        out.imag = np.bincount(owners, terms.imag, minlength=n)
        return out
    return np.bincount(owners, terms, minlength=n)


def discrete_gradient(u: Field, bc: str = "dirichlet") -> np.ndarray:
    """Diamond-point gradient reconstruction, one 2-vector per triangle.

    grad(K) = (1/|K|) sum_sigma t_sigma du_sigma (x_sigma - x_K) over the
    interior and wall edges of K, with t_sigma = |sigma|/d and du the jump
    toward the neighbour (toward the ghost value 0 across a wall).
    Exact for affine fields on triangles with no boundary edge.
    """
    mesh = u.mesh
    vals = u.values
    inner, walls, c, cw = _flux_edges(mesh, bc)
    k = mesh.edge_K[inner]
    l = mesh.edge_L[inner]
    kw = mesh.edge_K[walls]
    jump = c * (vals[l] - vals[k])
    # Per side of every flux edge, in the order the sums run: the owning
    # triangle, the weighted jump and the edge.
    owners, weights, edges = (k, l, kw), (jump, -jump, -cw * vals[kw]), (inner, inner, walls)

    term_owner = np.concatenate(owners)
    terms = np.empty(term_owner.size, dtype=jump.dtype)
    out = np.empty((mesh.n_triangles, 2), dtype=jump.dtype)
    for j in range(2):
        x_edge, x_tri = mesh.edge_mid[:, j], mesh.centers[:, j]
        start = 0
        for o, w, e in zip(owners, weights, edges):
            np.multiply(w, x_edge[e] - x_tri[o], out=terms[start:start + o.size])
            start += o.size
        out[:, j] = _scatter_add(mesh.n_triangles, term_owner, terms)
    out /= mesh.areas[:, None]
    return out


def discrete_curl(mesh: RingMesh, v: np.ndarray) -> np.ndarray:
    """Discrete curl: per-triangle circulation density of a vector field.

    curl(K) = (1/|K|) sum_sigma |sigma| v(sigma) . tau_sigma with tau the unit
    tangent oriented counterclockwise around K. Accepts v per edge (shape
    (n_edges, 2)) or per triangle (shape (N, 2)); per-triangle input is
    averaged onto edges (adjacent-value mean, inside value at the boundary).
    """
    v = np.asarray(v)
    if v.ndim != 2 or v.shape[1] != 2:
        raise ValueError("vector field must have shape (*, 2)")
    if v.shape[0] == mesh.n_edges:
        v_edge = v
    elif v.shape[0] == mesh.n_triangles:
        # np.take gathers the rows of an (n, 2) array several times faster
        # than fancy indexing does; the mean is formed in place.
        v_edge = np.take(v, mesh.edge_K, axis=0)
        v_edge += np.take(v, np.where(mesh.edge_L >= 0, mesh.edge_L, mesh.edge_K), axis=0)
        v_edge *= 0.5
        be = mesh.boundary_edges
        v_edge[be] = v[mesh.edge_K[be]]
    else:
        raise ValueError("vector field length matches neither edges nor triangles")

    # |sigma| tau for side K: the exact edge vector, signed so that the
    # (outward normal, tangent) frame of K is positively oriented. Using the
    # raw vertex difference (not a normalized rotate of the normal) lets the
    # closed-loop sum for a constant field telescope to round-off.
    evec = (np.take(mesh.vertices, mesh.edge_vertices[:, 1], axis=0)
            - np.take(mesh.vertices, mesh.edge_vertices[:, 0], axis=0))
    s = np.sign(-mesh.edge_normal[:, 1] * evec[:, 0]
                + mesh.edge_normal[:, 0] * evec[:, 1])
    circ = s * np.einsum("ij,ij->i", v_edge, evec)
    ie = mesh.interior_edges
    out = _scatter_add(mesh.n_triangles, np.concatenate((mesh.edge_K, mesh.edge_L[ie])),
                       np.concatenate((circ, -circ[ie])))
    out /= mesh.areas
    return out
