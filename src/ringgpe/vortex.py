"""Vortex detection and topological charge computation.

Three independent detectors over a piecewise-constant complex field:

* density shells: local density minima confirmed by a contrast test on a
  surrounding graph-distance shell, with the charge obtained by unwinding the
  phase around that shell;
* regularized vorticity: curl of the saturated velocity
  Im(conj(psi) grad psi) / (|psi|^2 + delta);
* pseudo-vorticity: grad(Re psi) x grad(Im psi), the curl of half the
  density current.

The vorticity detectors threshold |omega| and report one record per connected
component of the exceedance set, signed by its extremal value.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse.csgraph import connected_components

from .errors import NumericalError
from .fv import Field, discrete_curl, discrete_gradient
from .layout import slot_shifted
from .mesh import triangle_shells

# Fractional part of the winding quotient above which a density record is
# demoted to unreliable: discrete phases never close exactly, but a defect
# this large means the shell does not resolve the phase structure.
WINDING_DEFECT_TOL = 0.25

METHOD_DENSITY = "density"
METHOD_REG_VORTICITY = "reg_vorticity"
METHOD_PSEUDO_VORTICITY = "pseudo_vorticity"
_METHODS = (METHOD_DENSITY, METHOD_REG_VORTICITY, METHOD_PSEUDO_VORTICITY)


@dataclass(frozen=True)
class DetectionParams:
    """Thresholds shared by the three detectors.

    tol1 bounds the density at a candidate center, tol2 the required contrast
    on the confirming shell, lambda_max the largest shell searched. delta
    saturates the regularized velocity; vort_threshold cuts |omega| for the
    vorticity detectors.
    """

    tol1: float = 0.1
    tol2: float = 0.05
    lambda_max: int = 10
    delta: float = 0.1
    vort_threshold: float = 50.0

    def __post_init__(self):
        if not (self.tol1 > 0.0 and self.tol2 > 0.0):
            raise ValueError("tol1 and tol2 must be positive")
        if not (isinstance(self.lambda_max, int) and self.lambda_max >= 1):
            raise ValueError("lambda_max must be an integer >= 1")
        if not self.delta > 0.0:
            raise ValueError("delta must be positive")
        if not self.vort_threshold > 0.0:
            raise ValueError("vort_threshold must be positive")


@dataclass(frozen=True)
class VortexRecord:
    """One detected vortex.

    index_or_sign is the full winding number for the density method and the
    sign of the extremum for the vorticity methods. characteristic_length is
    the confirming shell distance (density method) and 0 otherwise.
    extremum_value stores the center density, respectively the signed
    vorticity extremum. reliable is cleared when the winding quotient does
    not round cleanly or the phase is undefined on the shell.
    """

    triangle: int
    position: tuple[float, float]
    index_or_sign: int
    characteristic_length: int
    method: str
    extremum_value: float
    reliable: bool = True

    def __post_init__(self):
        if self.method not in _METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.reliable and self.index_or_sign == 0:
            raise ValueError("a reliable record must carry a nonzero charge")


def _unwound_shell_phase(u: Field, center: int, shell: np.ndarray) -> tuple[int, float]:
    """Winding number and rounding defect of arg(u) around the triangles of shell.

    Shell triangles are ordered by increasing polar angle about the center
    circumcenter and the loop is closed by revisiting the first one; each
    phase is lifted to within pi of its predecessor.
    """
    mesh = u.mesh
    if shell.size == 0:
        raise ValueError("empty shell, winding undefined")
    vals = u.values[shell]
    if np.any(vals == 0.0):
        raise ValueError("zero modulus on shell, winding undefined")
    rel = mesh.centers[shell] - mesh.centers[center]
    order = np.argsort(np.arctan2(rel[:, 1], rel[:, 0]))
    loop = np.angle(vals[order])
    theta = np.unwrap(np.append(loop, loop[0]))
    jump = np.abs(np.diff(theta)).max()
    if not jump <= np.pi + 1e-9:
        raise NumericalError(
            f"unwrapped phase jumps by {jump!r} > pi around center {center} "
            f"on its shell of {shell.size} triangles")
    quotient = (theta[-1] - theta[0]) / (2.0 * np.pi)
    index = int(np.rint(quotient))
    return index, abs(quotient - index)


def detect_by_density(u: Field, params: DetectionParams) -> list[VortexRecord]:
    """Density-minimum detector with shell confirmation and phase unwinding.

    Candidates are triangles with density below tol1; each is confirmed by the
    smallest shell (distance <= lambda_max) on which every density exceeds the
    center density by tol2. Overlapping centers are thinned keeping the lower
    density, then each survivor gets its winding number.

    Rotation by 2*pi/N_p is an automorphism of the adjacency graph, so the
    shells around (band, slot, kind) are those around (band, 0, kind) shifted
    by slot along the periodic slot axis. One shell search per (band, kind)
    therefore confirms every candidate of that (band, kind) at once, and
    gives each record the shell its winding is unwound on.

    A candidate fails shell lam as soon as one member fails, so each open
    candidate is first tested against the members of shell lam in its own
    band, a few triangles, and only those that pass gather the full shell.
    Candidates in a low-density region, such as the bands near a Dirichlet
    wall, mostly fail there: their own band is as dilute as they are.
    """
    mesh = u.mesh
    dens = u.abs2()
    candidates = np.flatnonzero(dens < params.tol1)

    # Confirming shell per candidate (0: unconfirmed), and per (band, kind)
    # the shells 0 .. lambda_max around slot 0.
    lam_of = np.zeros(candidates.size, dtype=np.int64)
    templates = {}
    group = 2 * mesh.band[candidates] + mesh.kind[candidates]
    for key in np.unique(group):
        in_group = np.flatnonzero(group == key)
        band, kind = divmod(int(key), 2)
        shells = triangle_shells(mesh, 2 * band * mesh.n_points + kind, params.lambda_max)
        for lam in range(1, params.lambda_max + 1):
            open_ = in_group[lam_of[in_group] == 0]
            # Shells past the graph boundary stay empty and confirm nothing.
            if open_.size == 0 or shells[lam].size == 0:
                break
            shell = shells[lam]
            for members in (shell[mesh.band[shell] == band], shell):
                centers = candidates[open_]
                ring = dens[slot_shifted(mesh, members, mesh.slot[centers])]
                open_ = open_[np.all(ring > dens[centers, None] + params.tol2, axis=1)]
            lam_of[open_] = lam
        templates[key] = shells

    # Thin conflicting centers: scan by ascending (density, triangle) and drop
    # any center lying in an already kept center's shell union (graph distance
    # is symmetric, so one-sided membership covers both directions).
    confirmed = np.flatnonzero(lam_of)
    centers = candidates[confirmed]
    records = []
    blocked = np.zeros(mesh.n_triangles, dtype=bool)
    for i in confirmed[np.lexsort((centers, dens[centers]))]:
        n = int(candidates[i])
        if blocked[n]:
            continue
        shells, lam, slot = templates[group[i]], int(lam_of[i]), mesh.slot[[n]]
        blocked[slot_shifted(mesh, np.concatenate(shells[1:]), slot)] = True
        # Ascending, as triangle_shells gives it: the angle sort of the
        # winding breaks exact ties by position in the shell.
        shell = np.sort(slot_shifted(mesh, shells[lam], slot)[0])
        try:
            index, defect = _unwound_shell_phase(u, n, shell)
            reliable = defect <= WINDING_DEFECT_TOL and index != 0
        except ValueError:
            index, reliable = 0, False
        records.append(VortexRecord(
            triangle=n,
            position=(float(mesh.centers[n, 0]), float(mesh.centers[n, 1])),
            index_or_sign=index,
            characteristic_length=lam,
            method=METHOD_DENSITY,
            extremum_value=float(dens[n]),
            reliable=reliable,
        ))
    records.sort(key=lambda r: r.triangle)
    return records


def regularized_vorticity(u: Field, delta: float, bc: str = "dirichlet") -> Field:
    """Curl of the saturated velocity Im(conj(u) grad u) / (|u|^2 + delta).

    bc is the run's boundary condition, which the gradient sees at the walls.
    """
    if not delta > 0.0:
        raise ValueError("delta must be positive")
    grad = discrete_gradient(u, bc)
    velocity = (np.conj(u.values)[:, None] * grad).imag / (u.abs2() + delta)[:, None]
    return Field(u.mesh, discrete_curl(u.mesh, velocity))


def pseudo_vorticity(u: Field, bc: str = "dirichlet") -> Field:
    """Cross product grad(Re u) x grad(Im u), per triangle.

    bc is the run's boundary condition, which the gradients see at the walls.
    """
    gr = discrete_gradient(Field(u.mesh, u.values.real), bc)
    gi = discrete_gradient(Field(u.mesh, u.values.imag), bc)
    return Field(u.mesh, gr[:, 0] * gi[:, 1] - gr[:, 1] * gi[:, 0])


def detect_by_vorticity(omega: Field, threshold: float,
                        method: str = METHOD_PSEUDO_VORTICITY) -> list[VortexRecord]:
    """One record per connected component of {|omega| > threshold}.

    Components are taken in the vertex-sharing triangle adjacency; each is
    positioned at its extremal triangle and signed by the extremum.
    """
    if not threshold > 0.0:
        raise ValueError("threshold must be positive")
    mesh = omega.mesh
    w = omega.values.real
    mask = np.flatnonzero(np.abs(w) > threshold)
    if mask.size == 0:
        return []
    sub = mesh.adjacency[mask][:, mask]
    n_comp, labels = connected_components(sub, directed=False)

    records = []
    for c in range(n_comp):
        members = mask[labels == c]
        peak = members[np.argmax(np.abs(w[members]))]
        value = w[peak]
        records.append(VortexRecord(
            triangle=int(peak),
            position=(float(mesh.centers[peak, 0]), float(mesh.centers[peak, 1])),
            index_or_sign=1 if value > 0 else -1,
            characteristic_length=0,
            method=method,
            extremum_value=float(value),
        ))
    records.sort(key=lambda r: r.triangle)
    return records
