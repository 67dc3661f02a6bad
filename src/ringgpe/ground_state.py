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

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded

from .errors import NumericalError
from .fv import Field, LaplacianOperator
from .layout import checked_solve, mode0_rows, slot_symbol, tile_mode0

# Smallest gradient-flow step size: below it the flow cannot lower the energy.
KAPPA_MIN = 1e-14


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
