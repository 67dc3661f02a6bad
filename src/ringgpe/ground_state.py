"""Ground states by the normalized gradient flow.

Imaginary-time descent with a semi-implicit linearized step followed by
renormalization to the unit-mass sphere. A step is accepted only if the
energy strictly decreases; otherwise the step size kappa is halved and never
re-grown. Iteration stops when the projected gradient (the residual of the
Euler-Lagrange equation on the sphere) drops below epsilon.

The flow starts from the constant field, and a step maps a slot-invariant
field to a slot-invariant one, so every iterate lies in slot mode 0: one
value per (band, kind), in the row order of layout.slot_symbol. The flow
runs on those 2*n_bands rows (SlotInvariantProblem), where each step is a
tridiagonal solve, and the result is tiled onto the mesh, so it is exactly
slot-invariant. energy is the same quantity for any field on the mesh.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded

from .errors import NumericalError
from .fv import Field, LaplacianOperator
from .layout import ResidualBounds, mode0_rows, slot_symbol, tile_mode0

# Relative residual contract for every inner linear solve.
SOLVER_RESIDUAL_TOL = 1e-10

# Smallest gradient-flow step size: below it the flow cannot lower the energy.
KAPPA_MIN = 1e-14

# Relative margin of refinement_certificate for the rounding of its norms
# and constants: each is within ~n eps of exact for n values, far below it.
CERTIFICATE_MARGIN = 1e-6


def refinement_certificate(bounds: ResidualBounds, rhs_norm: float, x0_norm: float,
                           r_norm: float) -> float:
    """Upper bound on ||mat @ x1 - rhs|| after one identity refinement.

    x0 = solve(rhs), r = rhs - mat @ x0 and x1 = x0 + r as checked_solve
    computes them, bounds = layout.residual_bounds(mat) = (g, a, c eps,
    floor) and the norms those of rhs, x0 and r. In exact arithmetic
    mat x1 - rhs = (mat - I) r. Rounded, with u = eps/2 and k the most
    entries in a row of mat (Higham, Accuracy and Stability of Numerical
    Algorithms, 2002, sec. 3: a complex inner product of k terms errs by at
    most sqrt(2) gamma_(k+2) |mat| |x|, a sum or difference by u of its
    value), mat x1 - rhs = (mat - I) r + mat e1 - e3 + e2 with
    ||e1|| <= u (||x0|| + ||r||) (the sum), ||e3|| <= sqrt(2) gamma_(k+2)
    a ||x0|| (the product) and ||e2|| <= u (||rhs|| + a ||x0||) (the
    difference), so to first order in u

        ||mat x1 - rhs|| <= g ||r|| + 2 (k + 3) u (a (||x0|| + ||r||) + ||rhs||).

    Computing the residual as the exact check does, fl(fl(mat @ x1) - rhs),
    adds at most as much again, as ||x1|| <= (1 + u) (||x0|| + ||r||).
    The certificate takes c eps = 8 (k + 2) u >= 4 (k + 3) u for both,
    which leaves room for the second-order terms, divides by
    1 - CERTIFICATE_MARGIN for the rounding of the norms and constants,
    and adds the floor for gradual underflow; an overflow leaves a norm
    that is not finite. It thus bounds the exact residual and the one the
    exact check would compute.
    """
    rounding = bounds.rounding * (bounds.abs_norm * (x0_norm + r_norm) + rhs_norm)
    return (bounds.gap * r_norm + rounding) / (1.0 - CERTIFICATE_MARGIN) + bounds.floor


def _norm(a: np.ndarray) -> float:
    # One pass over a's values, where np.linalg.norm of a complex array
    # makes two strided ones: 28 against 44 us on 39 852 values.
    return math.sqrt(np.vdot(a, a).real)


def checked_solve(solve, mat, rhs: np.ndarray, what: str,
                  bounds: ResidualBounds | None = None) -> np.ndarray:
    """Solve mat @ x = rhs with solve(b) ~ mat^-1 b under the residual contract.

    Every solve gets one step of iterative refinement against mat:
    x = solve(rhs), then x += refine(rhs - mat @ x) with an approximate
    inverse refine ~ mat^-1, which multiplies the error by I - refine mat.
    bounds picks refine. Without bounds it is a second solve. With
    bounds = layout.residual_bounds(mat) it is the identity, which suffices
    for the Cayley matrix mat = I - z A_T: I - mat = z A_T scales the error
    in each eigenmode of A_T by |z lambda|, far below 1 in the smooth modes
    that carry the state, which is where solver round-off would move the
    mass (unrefined, the Cayley flow drifts by 3e-14 to 9e-14 over 300
    steps; refined either way, by ~2e-16). The residual of the returned x
    is then checked: above the contract, or NaN, it raises a
    NumericalError naming `what`. A zero right-hand side gives zero. solve
    must return a new array, which the correction updates in place, and
    mat @ x a new array that can hold the residual, which is formed in it.

    With bounds the check may skip its product: when
    refinement_certificate, an upper bound on the residual of x from the
    refinement's own residual, is at most the contract times ||rhs||, the
    exact check would pass and x is returned. Otherwise, or on NaN, the
    exact residual ||mat @ x - rhs|| / ||rhs|| decides, as without bounds.
    Either way every accept or refuse is that of the exact check, and one
    product is made where the certificate holds.
    """
    scale = np.linalg.norm(rhs)
    if scale == 0.0:
        return np.zeros_like(rhs)
    x = solve(rhs)
    r = mat @ x
    np.subtract(rhs, r, out=r)
    if bounds is None:
        x += solve(r)
    else:
        cert = refinement_certificate(bounds, scale, _norm(x), _norm(r))
        x += r
        if cert <= SOLVER_RESIDUAL_TOL * scale:
            return x
    r = mat @ x
    r -= rhs
    res = np.linalg.norm(r) / scale
    if not res <= SOLVER_RESIDUAL_TOL:
        raise NumericalError(f"{what} residual {res:.3e} above contract")
    return x


@dataclass(frozen=True)
class GradientFlowConfig:
    kappa0: float = 1e-2
    epsilon: float = 5e-3
    max_iters: int = 50000

    def __post_init__(self):
        if not (self.kappa0 > 0.0 and self.epsilon > 0.0):
            raise ValueError("kappa0 and epsilon must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be at least 1")


@dataclass
class GroundStateResult:
    field: Field
    energies: np.ndarray
    residuals: np.ndarray
    iterations: int
    n_rejections: int
    final_kappa: float
    converged: bool

    @property
    def energy(self) -> float:
        return float(self.energies[-1])

    @property
    def residual(self) -> float:
        return float(self.residuals[-1])


def energy(u: Field, trap: Field, op: LaplacianOperator, m: float, gamma: float) -> float:
    """E(U) = -(1/2m) <U, A_T U> + <U, V U> + (gamma/2) <U, |U|^2 U>."""
    a = u.mesh.areas
    dens = u.abs2()
    kin = -0.5 / m * op.quadratic_form(u)
    pot = float(np.sum(trap.values.real * dens * a))
    quart = 0.5 * gamma * float(np.sum(dens * dens * a))
    return kin + pot + quart


class _Tridiagonal:
    """A tridiagonal matrix held in solve_banded's (1, 1) layout."""

    def __init__(self, ab: np.ndarray):
        self.ab = ab

    def __matmul__(self, x: np.ndarray) -> np.ndarray:
        ab = self.ab
        y = ab[1] * x
        y[:-1] += ab[0, 1:] * x[1:]
        y[1:] += ab[2, :-1] * x[:-1]
        return y

    def solve(self, b: np.ndarray) -> np.ndarray:
        return solve_banded((1, 1), self.ab, b)


class SlotInvariantProblem:
    """The energy of slot-invariant real fields, on their mode-0 rows.

    A row j stands for the N_p triangles of one (band, kind), which together
    weigh N_p times the slot-0 area. A_T acts on the rows as the tridiagonal
    slot_symbol(mesh, op.A_T, [0]) of mode 0 alone, held in solve_banded's
    (1, 1) layout; the trap is sampled at slot 0.
    """

    def __init__(self, trap: Field, op: LaplacianOperator, m: float, gamma: float):
        mesh = op.mesh
        if trap.mesh is not mesh:
            raise ValueError("trap mesh does not match operator mesh")
        self.mesh = mesh
        self.m = m
        self.gamma = gamma
        self.weight = mesh.n_points * mode0_rows(mesh, mesh.areas)
        self.trap = mode0_rows(mesh, trap.values.real)
        lower, diag, upper = slot_symbol(mesh, op.A_T, [0])[:, 0, :].real
        self.laplacian = _Tridiagonal(np.array([np.roll(upper, 1), diag, np.roll(lower, -1)]))

    def norm(self, u: np.ndarray) -> float:
        return float(np.sqrt(np.sum(self.weight * u * u)))

    def energy(self, u: np.ndarray) -> float:
        """E(U) = -(1/2m) <U, A_T U> + <U, V U> + (gamma/2) <U, U^3>."""
        dens = u * u
        kin = -0.5 / self.m * float(np.sum(self.weight * u * (self.laplacian @ u)))
        pot = float(np.sum(self.weight * self.trap * dens))
        quart = 0.5 * self.gamma * float(np.sum(self.weight * dens * dens))
        return kin + pot + quart

    def residual(self, u: np.ndarray) -> float:
        """Norm of the energy gradient projected on the tangent of the unit sphere at u."""
        grad = (-1.0 / self.m) * (self.laplacian @ u) \
            + 2.0 * self.trap * u + 2.0 * self.gamma * u * u * u
        proj = grad - np.sum(self.weight * grad * u) * u
        return self.norm(proj)

    def field(self, u: np.ndarray) -> Field:
        """The slot-invariant field on the mesh whose mode-0 rows are u."""
        return Field(self.mesh, tile_mode0(self.mesh, u))


def gradient_flow_step(u: np.ndarray, problem: SlotInvariantProblem,
                       kappa: float) -> np.ndarray | None:
    """One semi-implicit descent step followed by renormalization.

    Solves (I - kappa [(1/m) A_T - 2V - 2 gamma |U^n|^2]) W = U^n on the
    mode-0 rows u = U^n of problem and returns W / ||W||. The linearization
    freezes the density at the current iterate. The system is tridiagonal;
    solve_banded factors it with partial pivoting, so an indefinite one
    (a negative trap) needs no other path. Returns None when ||W|| is 0 or
    not finite, as when a huge kappa makes W underflow: such a W has no
    direction to renormalize.
    """
    mat = _Tridiagonal((-kappa / problem.m) * problem.laplacian.ab)
    mat.ab[1] += 1.0 + kappa * (2.0 * problem.trap + 2.0 * problem.gamma * u * u)
    w = checked_solve(mat.solve, mat, u, "linear solve")
    scale = problem.norm(w)
    if not 0.0 < scale < np.inf:
        return None
    return w / scale


def compute_ground_state(trap: Field, op: LaplacianOperator, m: float, gamma: float,
                         config: GradientFlowConfig = GradientFlowConfig()) -> GroundStateResult:
    """Run the normalized gradient flow from the constant field to the stopping residual.

    The flow runs on the mode-0 rows of SlotInvariantProblem and the field
    it returns is their tiling, exactly slot-invariant. Raises
    NumericalError if kappa underflows KAPPA_MIN; returns converged=False if
    max_iters runs out first.
    """
    problem = SlotInvariantProblem(trap, op, m, gamma)
    u = np.ones_like(problem.weight)
    u /= problem.norm(u)

    e = problem.energy(u)
    res = problem.residual(u)
    energies = [e]
    residuals = [res]
    kappa = config.kappa0
    rejections = 0
    iterations = 0
    converged = res <= config.epsilon

    while not converged and iterations < config.max_iters:
        candidate = gradient_flow_step(u, problem, kappa)
        e_new = np.inf if candidate is None else problem.energy(candidate)
        if e_new < e:
            u = candidate
            e = e_new
            iterations += 1
            res = problem.residual(u)
            energies.append(e)
            residuals.append(res)
            converged = res <= config.epsilon
        else:
            rejections += 1
            kappa *= 0.5
            if kappa < KAPPA_MIN:
                raise NumericalError(
                    f"gradient-flow step size underflow (kappa={kappa:.3e}) "
                    f"at iteration {iterations}, residual {res:.3e}")

    return GroundStateResult(
        field=problem.field(u),
        energies=np.asarray(energies),
        residuals=np.asarray(residuals),
        iterations=iterations,
        n_rejections=rejections,
        final_kappa=kappa,
        converged=converged,
    )
