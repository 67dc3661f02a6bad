"""Ring trap and stirring potentials.

The static trap is a Gaussian well along the circle r = 1 (trap_profile);
the stirrer modulates it with an angular harmonic rotating at angular rate
omega. Every sampler takes the polar coordinates of its points and the trap
profile once: eval_total evaluates V(t, x) pointwise, trap_field and
total_field sample the trap and V(t, .) at circumcenters. The split-step
scheme never samples the stirrer pointwise in time: it uses the exact time
integral over a step (phase_integral), which keeps the potential
half-flow exact for any step size. None of trap, trap cos(n theta) and
trap sin(n theta) depends on t, so a PhaseTable holds them for fixed points
and phase_integral combines them with four scalar cosines and sines of
omega t by angle addition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fv import Field
from .mesh import RingMesh

# Below this |omega| the stirrer is treated as static (the closed-form
# integral divides by omega).
OMEGA_STATIC_TOL = 1e-12


@dataclass(frozen=True)
class PotentialParams:
    """Trap/stirrer parameters: depth V0, width scale m, stirring (V_p, n_theta, omega)."""

    m: float
    V0: float
    V_p: float = 0.0
    n_theta: int = 0
    omega: float = 0.0

    def __post_init__(self):
        if not self.m > 0.0:
            raise ValueError("m must be positive")
        if not self.V0 >= 0.0:
            raise ValueError("V0 must be nonnegative")
        if not 0.0 <= self.V_p <= 1.0:
            raise ValueError("V_p must lie in [0, 1]")


def _radius_angle(points):
    pts = np.asarray(points, dtype=float)
    r = np.hypot(pts[..., 0], pts[..., 1])
    theta = np.arctan2(pts[..., 1], pts[..., 0])
    return r, theta


def trap_profile(r, m: float, V0: float) -> np.ndarray:
    """The trap as a function of radius, -V0 exp(-2 m (r - 1)^2); minimum -V0 on r = 1."""
    return -V0 * np.exp(-2.0 * m * (r - 1.0) ** 2)


def eval_total(params: PotentialParams, t: float, points) -> np.ndarray:
    """Full potential V(t, x) = V_pot(r) + V_p V_pot(r) sin(n_theta theta - omega t)."""
    r, theta = _radius_angle(points)
    trap = trap_profile(r, params.m, params.V0)
    return trap + params.V_p * trap * np.sin(params.n_theta * theta - params.omega * t)


@dataclass(frozen=True)
class PhaseTable:
    """The time-independent factors of phase_integral at fixed points."""

    params: PotentialParams
    trap: np.ndarray  # V_pot(r)
    trap_cos: np.ndarray  # V_pot(r) cos(n_theta theta)
    trap_sin: np.ndarray  # V_pot(r) sin(n_theta theta)


def phase_table(params: PotentialParams, points) -> PhaseTable:
    """Tabulate trap, trap cos(n theta) and trap sin(n theta) at points."""
    r, theta = _radius_angle(points)
    trap = trap_profile(r, params.m, params.V0)
    phase = params.n_theta * theta
    return PhaseTable(params, trap, trap * np.cos(phase), trap * np.sin(phase))


def phase_integral(table: PhaseTable, t: float, dt: float) -> np.ndarray:
    """Exact integral_0^dt V(t + s, x) ds at the points table was built at.

    The potential is table.params. The trap contributes V_pot dt. For
    |omega| > OMEGA_STATIC_TOL the stirrer integrates to V_p V_pot [cos(n th
    - omega (t+dt)) - cos(n th - omega t)] / omega, which angle addition
    turns into (V_p / omega) [(cos omega (t+dt) - cos omega t) V_pot cos(n th)
    + (sin omega (t+dt) - sin omega t) V_pot sin(n th)]; below that
    threshold it is static and contributes V_p V_pot sin(n th) dt.
    """
    params = table.params
    out = table.trap * dt
    if params.V_p != 0.0:
        w = params.omega
        if abs(w) > OMEGA_STATIC_TOL:
            c = params.V_p / w * (math.cos(w * (t + dt)) - math.cos(w * t))
            s = params.V_p / w * (math.sin(w * (t + dt)) - math.sin(w * t))
            out += c * table.trap_cos
            out += s * table.trap_sin
        else:
            out += params.V_p * dt * table.trap_sin
    return out


def trap_field(params: PotentialParams, mesh: RingMesh) -> Field:
    """Static trap sampled at circumcenters."""
    r, _ = _radius_angle(mesh.centers)
    return Field(mesh, trap_profile(r, params.m, params.V0))


def total_field(params: PotentialParams, t: float, mesh: RingMesh) -> Field:
    """Full potential at time t sampled at circumcenters."""
    return Field(mesh, eval_total(params, t, mesh.centers))
