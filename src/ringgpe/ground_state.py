"""Ground states by the normalized gradient flow.

Imaginary-time descent with a semi-implicit linearized step followed by
renormalization to the unit-mass sphere. A step is accepted only if the
energy strictly decreases; otherwise the step size kappa is halved and never
re-grown. Iteration stops when the projected gradient (the residual of the
Euler-Lagrange equation on the sphere) drops below epsilon.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import splu

from .errors import NumericalError
from .fv import Field, LaplacianOperator, inner_product, norm, normalize
from .layout import SlotFFTSolver

# Relative residual contract for every inner linear solve.
SOLVER_RESIDUAL_TOL = 1e-10

# Smallest gradient-flow step size: below it the flow cannot lower the energy.
KAPPA_MIN = 1e-14


def checked_solve(solve, mat, rhs: np.ndarray, what: str) -> np.ndarray:
    """Solve mat @ x = rhs with solve(b) ~ mat^-1 b under the residual contract.

    Every solve gets one step of iterative refinement against mat (without
    it the slot-FFT round-off lets the Cayley flow drift in mass by ~5e-14
    over 300 steps). A residual then above the contract, or NaN, raises a
    NumericalError naming `what`. A zero right-hand side gives zero.
    """
    scale = np.linalg.norm(rhs)
    if scale == 0.0:
        return np.zeros_like(rhs)
    x = solve(rhs)
    x = x + solve(rhs - mat @ x)
    res = np.linalg.norm(mat @ x - rhs) / scale
    if not res <= SOLVER_RESIDUAL_TOL:
        raise NumericalError(f"{what} residual {res:.3e} above contract")
    return x


@dataclass(frozen=True)
class GradientFlowConfig:
    kappa0: float = 1e-2
    epsilon: float = 5e-3
    max_iters: int = 50000

    def __post_init__(self):
        if self.kappa0 <= 0.0 or self.epsilon <= 0.0:
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


def energy_gradient(u: Field, trap: Field, op: LaplacianOperator,
                    m: float, gamma: float) -> Field:
    """Gradient for the area-weighted real inner product:
    -(1/m) A_T U + 2 V U + 2 gamma |U|^2 U."""
    g = (-1.0 / m) * (op.A_T @ u.values) \
        + 2.0 * trap.values.real * u.values \
        + 2.0 * gamma * u.abs2() * u.values
    return Field(u.mesh, g)


def residual_criterion(u: Field, grad: Field) -> float:
    """Norm of the gradient projected on the tangent of the unit sphere at u."""
    proj = grad.values - inner_product(grad, u) * u.values
    return norm(Field(u.mesh, proj))


def gradient_flow_step(u: Field, trap: Field, op: LaplacianOperator,
                       m: float, gamma: float, kappa: float) -> Field:
    """One semi-implicit descent step followed by renormalization.

    Solves (I - kappa [(1/m) A_T - 2V - 2 gamma |U^n|^2]) W = U^n and returns
    W / ||W||. The linearization freezes the density at the current iterate.
    The matrix is op.shifted(1 + 2 kappa (V + gamma |U^n|^2), -kappa/m) and
    the solve the slot-FFT one. When the solver refuses it (the diagonal is
    not slot-invariant, as for a non-invariant U^n, or an indefinite system
    meets a small pivot) the matrix gets a sparse LU instead.
    """
    shift = 1.0 + kappa * (2.0 * trap.values.real + 2.0 * gamma * u.abs2())
    mat = op.shifted(shift, -kappa / m)
    try:
        solve = SlotFFTSolver(op, shift, -kappa / m).solve
    except NumericalError:  # shift not slot-invariant, or a pivot too small
        lu = splu(mat.tocsc())

        def solve(b):
            # Real factorization; complex right-hand sides split into two solves.
            if np.iscomplexobj(b):
                return lu.solve(b.real) + 1j * lu.solve(b.imag)
            return lu.solve(b)

    w = checked_solve(solve, mat, u.values, "linear solve")
    return normalize(Field(u.mesh, w))


def compute_ground_state(trap: Field, op: LaplacianOperator, m: float, gamma: float,
                         config: GradientFlowConfig = GradientFlowConfig(),
                         u0: Field | None = None) -> GroundStateResult:
    """Run the normalized gradient flow to the stopping residual.

    Starts from the normalized constant field unless u0 is given. Raises
    NumericalError if kappa underflows KAPPA_MIN; returns converged=False if
    max_iters runs out first.
    """
    mesh = op.mesh
    if trap.mesh is not mesh or (u0 is not None and u0.mesh is not mesh):
        raise ValueError("trap/initial field mesh does not match operator mesh")
    u = normalize(u0 if u0 is not None else Field.constant(mesh, 1.0))

    e = energy(u, trap, op, m, gamma)
    res = residual_criterion(u, energy_gradient(u, trap, op, m, gamma))
    energies = [e]
    residuals = [res]
    kappa = config.kappa0
    rejections = 0
    iterations = 0
    converged = res <= config.epsilon

    while not converged and iterations < config.max_iters:
        candidate = gradient_flow_step(u, trap, op, m, gamma, kappa)
        e_new = energy(candidate, trap, op, m, gamma)
        if e_new < e:
            u = candidate
            e = e_new
            iterations += 1
            res = residual_criterion(u, energy_gradient(u, trap, op, m, gamma))
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
        field=u,
        energies=np.asarray(energies),
        residuals=np.asarray(residuals),
        iterations=iterations,
        n_rejections=rejections,
        final_kappa=kappa,
        converged=converged,
    )
