"""Time evolution by Strang splitting.

One step over [t, t+tau] composes the exact potential/nonlinear phase flow
for half a step, the Cayley (Pade (1,1)) kinetic flow for a full step, and
the phase flow for the remaining half:

    Phi(tau, t) = B(tau/2, t + tau/2) o A(tau) o B(tau/2, t).

B multiplies by a pointwise phase (the exact time integral of the potential
plus tau*gamma*|w|^2) and preserves every modulus. A is unitary for the
area-weighted inner product because A_T is self-adjoint for it; with
M = I - z A_T it is applied as M^-1 (I + z A_T) u = 2 M^-1 u - u, so a step
solves M x = u and needs no product with I + z A_T. Because B preserves
moduli, the trailing half-B of one step and the leading half-B of the next
fuse into a single full B, which the evolution loop exploits; the trailing
half is applied to a copy whenever a snapshot is due.

Both flows map arrays to arrays: flow_potential the values at the points of
a potentials.phase_table, which carries the potential's parameters and the
time-independent factors of its integral there; KineticFlow the values of
its sector. evolve builds the table and the flow once, for its sector.

Both flows commute with every rotation that maps the mesh and the potential
onto themselves, and with negation. evolve therefore runs on the rotation
sector that the initial state and the stirrer share (layout.sector): with k
the largest divisor of gcd(n_theta, N_p) (of N_p for a static potential)
for which u0 repeats exactly every N_p/k slots, or changes sign exactly
every N_p/k slots with k even (sign -1, layout.invariant_fold), it steps
only the first N_p/k slots and tiles them, with the sign, for every
emission. With k = 1 the sector is the whole mesh.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .fv import Field, LaplacianOperator, norm, normalize
from .ground_state import checked_solve, energy
from .layout import SlotFFTSolver, invariant_fold, sector, slot_view, tile
from .potentials import PhaseTable, PotentialParams, phase_integral, phase_table, total_field


@dataclass(frozen=True)
class SplitStepConfig:
    tau: float
    t_max: float
    snapshot_stride: int = 0

    def __post_init__(self):
        if not (self.tau > 0.0 and self.t_max > 0.0):
            raise ValueError("tau and t_max must be positive")
        if self.snapshot_stride < 0:
            raise ValueError("snapshot_stride must be >= 0")
        steps = self.t_max / self.tau
        j = round(steps) if math.isfinite(steps) else 0
        if j < 1 or abs(j * self.tau - self.t_max) > 1e-9 * self.t_max:
            raise ValueError("t_max must be an integer number of steps")

    @property
    def n_steps(self) -> int:
        return round(self.t_max / self.tau)


def flow_potential(u: np.ndarray, t: float, dt: float, table: PhaseTable,
                   gamma: float) -> np.ndarray:
    """Exact phase flow of the potential + nonlinear part over [t, t+dt].

    w -> exp(-i [integral_t^{t+dt} V ds + dt gamma |w|^2]) w at the points of
    table, with V its potential; every modulus is preserved exactly.
    """
    # exp(-i phase) as cos + i sin of the negated real phase, with no complex
    # exponential and no complex temporary for the phase.
    angle = -dt * gamma * (u.real**2 + u.imag**2) - phase_integral(table, t, dt)
    out = np.empty(angle.shape, dtype=np.complex128)
    np.cos(angle, out=out.real)
    np.sin(angle, out=out.imag)
    out *= u
    return out


class KineticFlow:
    """Cayley flow (I - i tau/(4m) A_T)^(-1) (I + i tau/(4m) A_T).

    With M = I - z A_T and z = i tau/(4m), M^-1 (I + z A_T) = 2 M^-1 - I, so
    a step is one solve M x = u and returns 2x - u. The flow holds one
    layout.SlotFFTSolver(op, 1, -z, fold, sign), factored once and reused across
    steps; every solve is refined once against its matrix, M on the sector,
    and checked against the residual contract on it
    (ground_state.checked_solve, given the solver's bounds). The
    refinement is then the identity, x += r0 with r0 = u - M x: since
    I - M = z A_T, the error in each eigenmode of A_T shrinks by
    |z lambda|, which is small in the modes a smooth state lives in. The
    refined x then has residual M x - u = (M - I) r0 = -z A_T r0 up to
    rounding, so the check bounds it by ||M - I||_2 ||r0|| plus rounding
    terms, with constants the solver computes once for M
    (layout.residual_bounds), instead of a second product; on the
    benchmark's states that bound stays below
    2e-13 ||u||, against a contract of 1e-10. A step thus makes one
    slot-FFT solve and one sparse product, and a second product only when
    the bound does not clear the contract, where the exact residual
    decides.

    apply maps the values of a field's sector (layout.sector; at fold 1,
    of every triangle) to those of its image; with sign -1 the field
    changes sign from one sector to the next.
    """

    def __init__(self, op: LaplacianOperator, tau: float, m: float, fold: int = 1,
                 sign: int = 1):
        if not (tau > 0.0 and m > 0.0):
            raise ValueError("tau and m must be positive")
        self.tau = tau
        z = 1j * tau / (4.0 * m)
        self._solver = SlotFFTSolver(op, 1.0, -z, fold, sign)

    def apply(self, u: np.ndarray) -> np.ndarray:
        minus = self._solver.matrix
        if u.shape != (minus.shape[0],):
            raise ValueError(f"expected {minus.shape[0]} sector values, got shape {u.shape}")
        v = u.astype(np.complex128, copy=False)
        x = checked_solve(self._solver.solve, minus, v, "kinetic solve", self._solver.bounds)
        # x is the solver's own new array, so 2x - v can overwrite it.
        x *= 2.0
        x -= v
        return x


@dataclass
class EvolveResult:
    times: np.ndarray
    mass: np.ndarray
    energy: np.ndarray
    err_reference: np.ndarray | None
    snapshots: list[Field]
    final: Field
    fold: int  # the run stepped N_p/fold slots (layout.sector)
    sign: int  # +1, or -1 where the state changes sign from sector to sector


def evolve(u0: Field, op: LaplacianOperator, params: PotentialParams, m: float,
           gamma: float, config: SplitStepConfig, reference: Field | None = None,
           on_emit=None, keep_snapshots: bool = True) -> EvolveResult:
    """Run the splitting over [0, t_max] with snapshots every stride steps.

    Mass, energy (with the potential frozen at the emission time) and, when a
    reference field is given, || |psi| - reference || are recorded at every
    emission. Emissions happen at t=0, every snapshot_stride-th step, and at
    t_max. Aborts with the step index if the state stops being finite.

    The steps run on the sector of the largest fold k that the stirrer
    allows and u0 keeps exactly, up to a sign (see the module docstring);
    emissions and the final state see the field tiled from it.
    """
    if u0.mesh is not op.mesh:
        raise ValueError("field mesh does not match operator mesh")
    if reference is not None and reference.mesh is not op.mesh:
        raise ValueError("reference mesh does not match operator mesh")
    mesh = op.mesh
    tau = config.tau
    n_steps = config.n_steps
    stride = config.snapshot_stride
    # The stirrer repeats every 2 pi/n_theta, the mesh every 2 pi/N_p.
    stirrer_fold = math.gcd(params.n_theta, mesh.n_points) if params.V_p != 0.0 else mesh.n_points
    fold, sign = invariant_fold(mesh, u0.values, stirrer_fold)
    kinetic = KineticFlow(op, tau, m, fold, sign)
    in_sector = sector(mesh, fold)
    table = phase_table(params, mesh.centers[in_sector])

    times, masses, energies, errs = [], [], [], []
    snapshots: list[Field] = []

    def emit(step: int, psi: Field):
        t = step * tau
        times.append(t)
        masses.append(norm(psi) ** 2)
        energies.append(energy(psi, total_field(params, t, mesh), op, m, gamma))
        if reference is not None:
            diff = np.abs(psi.values) - np.abs(reference.values)
            errs.append(norm(Field(mesh, diff)))
        if keep_snapshots:
            snapshots.append(psi)
        if on_emit is not None:
            on_emit(step, t, psi)

    def tiled(psi: np.ndarray) -> Field:
        return Field(mesh, tile(mesh, psi, fold, sign))

    emit(0, Field(mesh, u0.values.astype(np.complex128)))

    psi = flow_potential(u0.values[in_sector], 0.0, 0.5 * tau, table, gamma)
    for j in range(1, n_steps + 1):
        try:
            psi = kinetic.apply(psi)
        except NumericalError as exc:
            raise NumericalError(f"step {j}: {exc}") from None
        # Phase flows preserve the modulus, so this is the only spot a
        # non-finite value can enter the state.
        if not np.isfinite(psi).all():
            raise NumericalError(f"non-finite state at step {j}")
        t_half = (j - 0.5) * tau
        if j < n_steps:
            if stride and j % stride == 0:
                emit(j, tiled(flow_potential(psi, t_half, 0.5 * tau, table, gamma)))
            psi = flow_potential(psi, t_half, tau, table, gamma)
        else:
            psi = flow_potential(psi, t_half, 0.5 * tau, table, gamma)

    final = tiled(psi)
    emit(n_steps, final)
    return EvolveResult(
        times=np.asarray(times),
        mass=np.asarray(masses),
        energy=np.asarray(energies),
        err_reference=np.asarray(errs) if reference is not None else None,
        snapshots=snapshots,
        final=final,
        fold=fold,
        sign=sign,
    )


def make_unstable_state(u_gs: Field) -> Field:
    """Antisymmetrized, regularized copy of the ground state.

    Flips the sign for x > 0 and damps by exp(-0.1/|x|) so the flip is smooth
    across the x = 0 line, then renormalizes. The result is orthogonal-ish to
    the ground state and dynamically unstable under the full flow.

    The profile is odd in x, and for even N_p the half-turn, N_p/2 slots,
    maps x to -x. The profile is then computed on the first N_p/2 slots and
    negated onto the others, so that a slot-invariant u_gs gives a state
    that changes sign exactly under the half-turn (evolve steps it at fold
    2, sign -1); from the circumcenters of both halves it would do so only
    up to their rounding.
    """
    mesh = u_gs.mesh
    x = mesh.centers[:, 0]
    half = mesh.n_points % 2 == 0
    if half:
        x = slot_view(mesh, x)[:, :mesh.n_points // 2]
    sign = np.where(x > 0.0, 1.0, -1.0)
    with np.errstate(divide="ignore"):
        profile = sign * np.exp(-0.1 / np.abs(x))
    if half:
        profile = tile(mesh, profile, 2, -1)
    return normalize(Field(mesh, u_gs.values * profile))


def order_estimate(y_coarse: Field, y_mid: Field, y_fine: Field) -> float:
    """Observed splitting order from runs at steps 2 tau, tau, tau/2:
    log2 of the ratio ||y_2tau - y_tau|| / ||y_tau - y_tau/2||."""
    num = norm(Field(y_mid.mesh, y_coarse.values - y_mid.values))
    den = norm(Field(y_mid.mesh, y_mid.values - y_fine.values))
    if den == 0.0:
        raise NumericalError("order estimate degenerate: identical trajectories")
    return float(np.log2(num / den))
