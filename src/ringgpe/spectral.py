"""Analytic annulus eigenfunctions and the radial mode decomposition.

Two spectral paths over the ring r_min < r < r_max:

* Bessel path: Dirichlet Laplacian eigenfunctions
  u(r, theta) = [J_a(r sqrt(l)) + c Y_a(r sqrt(l))] cos/sin(a theta), with
  sqrt(l) running over the zeros of the cross-product determinant
  f_a(x) = J_a(r_min x) Y_a(r_max x) - J_a(r_max x) Y_a(r_min x);
* finite-difference path: the radial Sturm-Liouville operator
  H = -(1/2m)(d_rr + d_r / r - ell^2 / r^2) - V0 exp(-2m(r-1)^2)
  on a uniform grid, giving the radial profiles of the mode basis
  Phi_{p,ell} = phi_p(r) exp(i ell theta) on the triangulation.

The mesh is invariant under rotation by 2 pi / N_p, so the basis keeps one
radial sample per (band, kind) circle, and decompose takes the complex
volume pairing <u, Phi_{p,ell}>_T of every mode from one FFT over slots.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.fft
from scipy.linalg import eigh_tridiagonal
from scipy.optimize import brentq
from scipy.special import jv, yv

from .errors import NumericalError
from .fv import Field, norm
from .layout import slot_defect, slot_view
from .mesh import RingMesh
from .potentials import trap_profile

ROOT_XTOL = 1e-12
RESIDUAL_TOL = 1e-8
# Largest radius spread and angle defect of one (band, kind) circle that
# mode_basis accepts; built meshes sit near 1e-13.
SLOT_GEOMETRY_TOL = 1e-10


@dataclass(frozen=True)
class AnnulusEigenpair:
    """One Dirichlet Laplacian eigenvalue of the ring with its mixing weight.

    The eigenfunction radial profile is J_alpha(r sqrt(lam)) +
    c Y_alpha(r sqrt(lam)); beta counts the zeros of the determinant in
    ascending order starting at 1.
    """

    alpha: int
    beta: int
    lam: float
    c: float


def _cross_determinant(alpha: int, r_min: float, r_max: float):
    def f(x):
        return (jv(alpha, r_min * x) * yv(alpha, r_max * x)
                - jv(alpha, r_max * x) * yv(alpha, r_min * x))
    return f


def annulus_eigenpairs(alpha: int, count: int, r_min: float,
                       r_max: float) -> list[AnnulusEigenpair]:
    """First `count` Dirichlet eigenvalues of -Laplace for angular order alpha.

    Zeros of the cross-product determinant are bracketed on a scan grid four
    times finer than the asymptotic zero spacing pi/(r_max - r_min), then
    refined by bisection to ROOT_XTOL.
    """
    if not (isinstance(alpha, (int, np.integer)) and alpha >= 0):
        raise ValueError("alpha must be a nonnegative integer")
    if count < 1:
        raise ValueError("count must be >= 1")
    if not 0.0 < r_min < r_max:
        raise ValueError("need 0 < r_min < r_max")

    f = _cross_determinant(alpha, r_min, r_max)
    spacing = np.pi / (r_max - r_min)
    step = spacing / 4.0
    # The first zero sits right of the order (Bessel oscillation onset).
    x_hi = (count + 2) * spacing + (alpha + 4) / r_min
    grid = np.arange(step * 1e-3, x_hi, step)
    vals = f(grid)
    roots: list[float] = []
    for a, b, fa, fb in zip(grid[:-1], grid[1:], vals[:-1], vals[1:]):
        if fa == 0.0:
            roots.append(float(a))
        elif fa * fb < 0.0:
            roots.append(brentq(f, a, b, xtol=ROOT_XTOL))
        if len(roots) >= count:
            break
    if len(roots) < count:
        raise RuntimeError(
            f"found only {len(roots)} zeros on (0, {x_hi:.3f}] for alpha={alpha}; "
            f"asked for {count}")

    pairs = []
    for beta, x in enumerate(roots[:count], start=1):
        lam = x * x
        c = -jv(alpha, r_max * x) / yv(alpha, r_max * x)
        pairs.append(AnnulusEigenpair(alpha=int(alpha), beta=beta, lam=lam, c=float(c)))
    return pairs


def annulus_eigenfunction_field(mesh: RingMesh, pair: AnnulusEigenpair,
                                sigma: int) -> Field:
    """Eigenfunction sampled at circumcenters, L2-normalized on the mesh.

    sigma selects the angular factor: 1 for cos(alpha theta), 2 for
    sin(alpha theta) (only when alpha > 0).
    """
    if sigma not in (1, 2):
        raise ValueError("sigma must be 1 or 2")
    if sigma == 2 and pair.alpha == 0:
        raise ValueError("sigma=2 requires alpha > 0, the sine branch vanishes")
    r = np.hypot(mesh.centers[:, 0], mesh.centers[:, 1])
    theta = np.arctan2(mesh.centers[:, 1], mesh.centers[:, 0])
    root = np.sqrt(pair.lam)
    radial = jv(pair.alpha, r * root) + pair.c * yv(pair.alpha, r * root)
    angular = np.cos(pair.alpha * theta) if sigma == 1 else np.sin(pair.alpha * theta)
    u = Field(mesh, radial * angular)
    return Field(mesh, u.values / norm(u))


@dataclass(frozen=True)
class RadialProblem:
    """Interval and physical constants of the radial eigenvalue problem."""

    r_min: float
    r_max: float
    m: float
    V0: float

    def __post_init__(self):
        if not 0.0 < self.r_min < self.r_max:
            raise ValueError("need 0 < r_min < r_max")
        if not self.m > 0.0:
            raise ValueError("m must be positive")
        if not self.V0 >= 0.0:
            raise ValueError("V0 must be nonnegative")

    def grid(self, n: int) -> np.ndarray:
        """n+1 equidistant points covering [r_min, r_max]."""
        return np.linspace(self.r_min, self.r_max, n + 1)


def _radial_diagonals(ell: int, n: int,
                      problem: RadialProblem) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sub-, main and super-diagonal of the interior radial operator, size n-1.

    Second-order central differences for both derivative terms; the Dirichlet
    boundary points are eliminated rather than kept as zero rows, so the
    spectrum has no spurious zero eigenvalues.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    r = problem.grid(n)[1:-1]
    h = (problem.r_max - problem.r_min) / n
    inv2m = 1.0 / (2.0 * problem.m)
    diag = inv2m * (2.0 / h ** 2 + ell ** 2 / r ** 2) + trap_profile(r, problem.m, problem.V0)
    sub = -inv2m * (1.0 / h ** 2 - 1.0 / (2.0 * h * r[1:]))
    sup = -inv2m * (1.0 / h ** 2 + 1.0 / (2.0 * h * r[:-1]))
    return sub, diag, sup


def radial_modes(ell: int, P: int, n: int,
                 problem: RadialProblem) -> tuple[np.ndarray, np.ndarray]:
    """First P+1 radial eigenpairs for angular index ell.

    Returns eigenvalues (ascending) and eigenvectors on the full n+1 point
    grid including the zero boundary values, each vector l2-normalized with
    its largest-magnitude entry positive. The nonsymmetric tridiagonal
    operator is balanced into symmetric form by an exact diagonal similarity
    (the scaling agrees with sqrt(r) up to O(h^2)); the residual is verified
    against the original operator, applied as a tridiagonal product.
    """
    if not P >= 0:
        raise ValueError("P must be >= 0")
    if not P + 1 <= n - 1:
        raise ValueError("need P + 1 <= n - 1 interior points")
    sub, diag, sup = _radial_diagonals(ell, n, problem)
    if np.any(sub * sup <= 0.0):
        raise NumericalError("radial operator cannot be balanced into symmetric form")
    # d_{k+1}/d_k = sqrt(sub/sup) makes D^{-1} H D symmetric with
    # off-diagonal -sqrt(sub*sup) and unchanged diagonal.
    log_ratio = 0.5 * np.log(sub / sup)
    d = np.exp(np.concatenate(([0.0], np.cumsum(log_ratio))))
    off = -np.sqrt(sub * sup)
    w, v = eigh_tridiagonal(diag, off, select="i", select_range=(0, P))

    vectors = np.zeros((P + 1, n + 1))
    for p in range(P + 1):
        phi = d * v[:, p]
        phi /= np.linalg.norm(phi)
        if phi[np.argmax(np.abs(phi))] < 0.0:
            phi = -phi
        H_phi = diag * phi
        H_phi[:-1] += sup * phi[1:]
        H_phi[1:] += sub * phi[:-1]
        res = np.linalg.norm(H_phi - w[p] * phi)
        if not res <= RESIDUAL_TOL:
            raise NumericalError(
                f"radial eigenpair p={p}, ell={ell} residual {res:.3e} above contract")
        vectors[p, 1:-1] = phi
    return w.copy(), vectors


@dataclass(frozen=True)
class ModeBasis:
    """Modes phi_p(r) exp(i ell theta), normalized in L2(T), kept per (band, kind).

    Each (band, kind) has its circumcenters on one circle, at the angles
    theta0 + 2 pi slot / N_p. radial[p, |ell|] holds the profile, linearly
    interpolated from the grid of resolution n onto those radii and divided
    by its L2(T) norm. field(p, ell) samples a mode on demand, and fields
    lazily yields rows p of field(p, ell) for ell = -L .. L.
    """

    mesh: RingMesh
    P: int
    L: int
    eigenvalues: np.ndarray
    radial: np.ndarray
    theta0: np.ndarray

    @property
    def fields(self):
        return ((self.field(p, ell) for ell in range(-self.L, self.L + 1))
                for p in range(self.P + 1))

    def field(self, p: int, ell: int) -> Field:
        # exp(i ell theta) = exp(i ell theta0) exp(2 pi i (ell slot mod N_p) / N_p)
        n_p = self.mesh.n_points
        slot_phase = np.exp(2j * np.pi / n_p * (ell * np.arange(n_p) % n_p))
        row = self.radial[p, abs(ell)] * np.exp(1j * ell * self.theta0)
        return Field(self.mesh, (row[:, None, :] * slot_phase[:, None]).ravel())


def mode_basis(mesh: RingMesh, P: int, L: int, n: int,
               m: float, V0: float) -> ModeBasis:
    """Build the (P+1) x (2L+1) mode family on a mesh.

    Radial problems share the interval of the mesh; profiles for -ell reuse
    the ell computation since the operator depends on ell^2 only. Raises
    ValueError unless the circumcenters of each (band, kind) form one
    uniformly spaced circle to within SLOT_GEOMETRY_TOL.
    """
    problem = RadialProblem(mesh.params.r_min, mesh.params.r_max, m, V0)
    x, y = slot_view(mesh, mesh.centers[:, 0]), slot_view(mesh, mesh.centers[:, 1])
    r, theta = np.hypot(x, y), np.arctan2(y, x)
    theta0 = theta[:, 0]
    # Angle about the uniform spacing, plus pi so the wrap stays away from it.
    drift = (theta - theta0[:, None] + np.pi
             - 2 * np.pi / mesh.n_points * np.arange(mesh.n_points)[:, None]) % (2 * np.pi)
    defects = slot_defect(mesh, r), slot_defect(mesh, drift)
    if not max(defects) <= SLOT_GEOMETRY_TOL:
        raise ValueError("circumcenters of a (band, kind) are not one uniformly spaced "
                         "circle: radius spread {:.3e}, angle defect {:.3e}".format(*defects))
    areas = slot_view(mesh, mesh.areas).sum(axis=1)

    eigenvalues = np.zeros((P + 1, 2 * L + 1))
    radial = np.zeros((P + 1, L + 1) + theta0.shape)
    for ell in range(L + 1):
        lam, vecs = radial_modes(ell, P, n, problem)
        eigenvalues[:, L - ell] = eigenvalues[:, L + ell] = lam
        radial[:, ell] = [np.interp(r[:, 0], problem.grid(n), v) for v in vecs]
    norms = np.sqrt(np.einsum("plbk,bk->pl", radial * radial, areas))
    if not np.all(norms > 0.0):
        raise ValueError("a radial profile vanishes at every circumcenter")
    radial /= norms[:, :, None, None]
    return ModeBasis(mesh=mesh, P=P, L=L, eigenvalues=eigenvalues, radial=radial,
                     theta0=theta0)


def decompose(u: Field, basis: ModeBasis) -> np.ndarray:
    """Complex coefficient grid c[p, ell + L] = <u, Phi_{p, ell}>_T.

    Bin ell mod N_p of one FFT over slots of areas * u is each (band, kind)
    circle's angular sum, up to the phase exp(-i ell theta0).
    """
    mesh = u.mesh
    if mesh is not basis.mesh:
        raise ValueError("field mesh does not match basis mesh")
    ells = np.arange(-basis.L, basis.L + 1)
    spectrum = scipy.fft.fft(slot_view(mesh, u.values * mesh.areas), axis=1)
    angular = spectrum[:, ells % mesh.n_points].transpose(1, 0, 2) \
        * np.exp(-1j * ells[:, None, None] * basis.theta0)
    return np.einsum("pjbk,jbk->pj", basis.radial[:, np.abs(ells)], angular)
