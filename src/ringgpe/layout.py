"""The (band, slot, kind) view of per-triangle arrays and the slot-FFT solver.

Triangle 2*(band*N_p + slot) + kind reshapes to an (n_bands, N_p, 2) array
whose slot axis is periodic. The mesh is invariant under rotation by
2*pi/N_p, so the Laplacian A_T is block-circulant along that axis (Davis,
Circulant Matrices, 1979): an FFT over slots splits a system
(diag(shift) + scale A_T) x = b into N_p independent systems, one per slot
mode, each coupling the 2*n_bands (band, kind) unknowns of that mode.

Kind 0 couples only to kind 1 of its own band and of the band above, kind 1
only to kind 0 of its own band and of the band below. Ordering the unknowns
of a mode as 2*band + (1 - kind) therefore makes every mode's system
tridiagonal. After an FFT along the slot axis, row j of every mode is the
slot axis of one (band, kind), so SlotFFTSolver eliminates all modes at
once, row by row, without moving the data out of that layout.

The same rotation maps the triangle adjacency graph onto itself, so a set
of triangles found around slot 0 serves every slot once shifted along the
slot axis (slot_shifted); the density detector uses this for its shells.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np
import scipy.fft
import scipy.sparse as sp

from .errors import NumericalError
from .mesh import RingMesh

if TYPE_CHECKING:
    from .fv import LaplacianOperator

# Smallest pivot, relative to the 1-norm of its row, that the unpivoted
# slot-mode factorization accepts. A smaller one would amplify round-off by
# more than 1/PIVOT_TOL in one elimination step, beyond what the single
# refinement step of ground_state.checked_solve is meant to absorb.
PIVOT_TOL = 1e-8

# Largest departure of a shift from its slot mean that SlotFFTSolver accepts.
# Only the mean is factored; the refinement step in checked_solve squares the
# relative error that leaves (for identity plus a positive part), so 1e-8
# solves to ~1e-16. A round-off level test would refuse the ~1e-13 slot defect
# refinement itself leaves in a gradient-flow iterate and send it to splu.
SLOT_INVARIANCE_TOL = 1e-8


def slot_view(mesh: RingMesh, values: np.ndarray) -> np.ndarray:
    """values per triangle as an (n_bands, N_p, 2) array (a view when possible)."""
    return np.asarray(values).reshape(mesh.n_bands, mesh.n_points, 2)


def slot_shifted(mesh: RingMesh, triangles: np.ndarray, slots: np.ndarray) -> np.ndarray:
    """triangles rotated by slots[i] steps of 2*pi/N_p, one row per slot.

    Row i holds the triangles (band, (slot + slots[i]) % N_p, kind) for each
    (band, slot, kind) in triangles.
    """
    n_p = mesh.n_points
    shifted = (mesh.slot[triangles] + np.asarray(slots)[:, None]) % n_p
    return 2 * (mesh.band[triangles] * n_p + shifted) + mesh.kind[triangles]


def slot_defect(mesh: RingMesh, values: np.ndarray) -> float:
    """Largest spread of values across the slots of one (band, kind)."""
    return float(np.ptp(slot_view(mesh, values), axis=1).max())


def slot_symbol(mesh: RingMesh, mat: sp.spmatrix) -> np.ndarray:
    """Per-mode tridiagonal symbol of a slot-invariant operator on the mesh.

    Returns S with shape (3, N_p, 2*n_bands): S[0, q, j], S[1, q, j] and
    S[2, q, j] are the entries (j, j-1), (j, j) and (j, j+1) of mode q's
    matrix, with unknowns ordered j = 2*band + (1 - kind). Each coupling
    coefficient is averaged over the slots, so an operator that is
    slot-invariant up to round-off gets its exact circulant neighbour.
    Raises ValueError if a coupling reaches beyond the neighbouring slot or
    outside the tridiagonal band.
    """
    n_b, n_p = mesh.n_bands, mesh.n_points
    coo = sp.coo_matrix(mat)
    r, c = coo.row.astype(np.int64), coo.col.astype(np.int64)
    j = 2 * (r // (2 * n_p)) + 1 - r % 2
    off = 2 * (c // (2 * n_p)) + 1 - c % 2 - j
    d = ((c // 2 - r // 2 + 1) % n_p) - 1  # slot offset in -1 .. n_p - 2
    if np.any(np.abs(off) > 1) or np.any(d > 1):
        raise ValueError("operator couples beyond the tridiagonal slot-mode band")
    coef = np.zeros((3, 3, 2 * n_b), dtype=coo.dtype)
    np.add.at(coef, (off + 1, d + 1, j), coo.data)
    coef /= n_p
    q = np.arange(n_p)
    phase = np.exp(2j * np.pi / n_p * np.outer(q, [-1, 0, 1]))
    return np.einsum("odj,qd->oqj", coef, phase)


class SlotFFTSolver:
    """Solve (diag(shift) + scale A_T) x = b by FFT over slots.

    shift is a scalar or a per-triangle array; only its slot mean is
    factored, so a shift off that mean by more than SLOT_INVARIANCE_TOL
    raises NumericalError. The factorization is an LU without pivoting of
    every mode's tridiagonal system from op.slot_symbol, done for all modes
    at once row by row. A solve never leaves the (band, slot, kind) layout:
    after an FFT along the slot axis, row j = 2*band + (1 - kind) of all
    modes is the slot axis of one (band, kind), so the forward and back
    sweeps run over the 2*n_bands rows as in-place operations on N_p values
    each, and an inverse FFT follows.

    The Cayley matrix I - z A_T, z = i tau/(4m), needs no pivoting. A_T is
    self-adjoint for the area-weighted inner product, so with the areas as a
    diagonal similarity the matrix has Hermitian part exactly I; so does each
    mode's system (the FFT is unitary and the areas are slot-invariant), and
    every Schur complement of a matrix with Hermitian part >= I has one too.
    The pivots, which a diagonal similarity leaves unchanged, are the 1x1
    Schur complements, so Re p >= 1. Other systems, such as an indefinite
    gradient-flow step, may meet a small pivot: the factorization raises
    NumericalError when a pivot is not finite or falls below PIVOT_TOL of
    its row's 1-norm. On either refusal the caller factors another way.

    The assembled matrix departs from exact slot invariance by round-off, so
    callers refine against it (ground_state.checked_solve). The result is
    real when shift, scale and b are.
    """

    def __init__(self, op: LaplacianOperator, shift, scale: complex):
        mesh = op.mesh
        self.mesh = mesh
        self._real = not (np.iscomplexobj(shift) or np.iscomplexobj(scale))
        shift = slot_view(mesh, np.broadcast_to(shift, (mesh.n_triangles,)))
        mean_shift = shift.mean(axis=1)  # per (band, kind)
        defect = np.abs(shift - mean_shift[:, None]).max()
        if not defect <= SLOT_INVARIANCE_TOL:
            raise NumericalError(
                f"shift departs from its slot mean by {defect:.3e}, above SLOT_INVARIANCE_TOL")
        # Rows j, modes along the second axis. Row 0 has no lower and the
        # last row no upper neighbour: nothing lies below band 0 or above
        # the last band.
        lower, diag, upper = np.ascontiguousarray((scale * op.slot_symbol).transpose(0, 2, 1))
        diag += mean_shift[:, ::-1].reshape(-1, 1)  # in row order j = 2*band + 1 - kind
        mult = np.zeros_like(diag)
        pivot = diag.copy()
        # A refused pivot may divide by zero on the way; all are checked after.
        with np.errstate(all="ignore"):
            for j in range(1, len(pivot)):
                np.divide(lower[j], pivot[j - 1], out=mult[j])
                pivot[j] -= mult[j] * upper[j - 1]
            row_norm = np.abs(lower) + np.abs(diag) + np.abs(upper)
            bad = ~(np.abs(pivot) >= PIVOT_TOL * row_norm) | ~np.isfinite(pivot)
        if bad.any():
            j, q = np.argwhere(bad)[0]  # the first row that fails, then its first mode
            raise NumericalError(
                f"slot mode {q}: pivot {pivot[j, q]:.3e} in row {j} (band {j // 2}, "
                f"kind {1 - j % 2}) is below PIVOT_TOL of its row or not finite")
        inv_pivot = 1.0 / pivot
        self._mult = mult
        self._upper = upper * inv_pivot  # the back sweep's upper diagonal of D^-1 U
        # In the (band, slot, kind) layout of the transformed right-hand side.
        self._inv_pivot = inv_pivot.reshape(mesh.n_bands, 2, -1)[:, ::-1].transpose(0, 2, 1).copy()

    def solve(self, b: np.ndarray) -> np.ndarray:
        mesh = self.mesh
        xh = scipy.fft.fft(slot_view(mesh, b), axis=1)
        rows = [xh[j // 2, :, 1 - j % 2] for j in range(2 * mesh.n_bands)]
        tmp = np.empty(mesh.n_points, dtype=xh.dtype)
        mult, upper = self._mult, self._upper
        for j in range(1, len(rows)):  # L y = b
            np.multiply(mult[j], rows[j - 1], out=tmp)
            np.subtract(rows[j], tmp, out=rows[j])
        xh *= self._inv_pivot  # then D^-1 U x = D^-1 y
        for j in range(len(rows) - 2, -1, -1):
            np.multiply(upper[j], rows[j + 1], out=tmp)
            np.subtract(rows[j], tmp, out=rows[j])
        x = scipy.fft.ifft(xh, axis=1, overwrite_x=True).reshape(-1)
        if self._real and not np.iscomplexobj(b):
            return x.real.copy()
        return x
