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
tridiagonal, and stacking the modes end to end gives one tridiagonal system
with zero couplings at the mode boundaries, factored by a single LAPACK
?gttrf call.

The same rotation maps the triangle adjacency graph onto itself, so a set
of triangles found around slot 0 serves every slot once shifted along the
slot axis (slot_shifted); the density detector uses this for its shells.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np
import scipy.fft
import scipy.sparse as sp
from scipy.linalg import lapack

from .errors import NumericalError
from .mesh import RingMesh

if TYPE_CHECKING:
    from .fv import LaplacianOperator


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

    shift is a scalar or a per-triangle array that must be slot-invariant
    (only its slot mean is factored). The factorization is one ?gttrf over
    all modes of op.slot_symbol; each solve is FFT -> ?gttrs -> inverse FFT.
    The assembled matrix departs from exact slot invariance by round-off, so
    callers refine against it (ground_state.checked_solve). The result is
    real when shift, scale and b are.
    """

    def __init__(self, op: LaplacianOperator, shift, scale: complex):
        mesh = op.mesh
        self.mesh = mesh
        self._real = not (np.iscomplexobj(shift) or np.iscomplexobj(scale))
        shift = np.broadcast_to(shift, (mesh.n_triangles,))
        # Slot mean per (band, kind), in mode order j = 2*band + 1 - kind.
        mean_shift = slot_view(mesh, shift).mean(axis=1)[:, ::-1].ravel()
        diags = scale * op.slot_symbol
        diags[1] += mean_shift
        # Mode boundaries fall where the lower and upper diagonals are zero
        # already: nothing lies below band 0 or above the last band.
        gttrf, self._gttrs = lapack.get_lapack_funcs(("gttrf", "gttrs"),
                                                     dtype=np.complex128)
        *self._lu, info = gttrf(diags[0].ravel()[1:], diags[1].ravel(),
                                diags[2].ravel()[:-1])
        if info != 0:
            raise NumericalError(f"singular slot-mode system (gttrf info {info})")

    def solve(self, b: np.ndarray) -> np.ndarray:
        # (band, slot, kind) -> (slot mode, band, 1 - kind) and back.
        mesh = self.mesh
        bh = scipy.fft.fft(slot_view(mesh, b).transpose(1, 0, 2)[:, :, ::-1], axis=0)
        xh, info = self._gttrs(*self._lu, bh.reshape(-1, 1))
        if info != 0:
            raise NumericalError(f"slot-mode solve failed (gttrs info {info})")
        x = scipy.fft.ifft(xh.reshape(mesh.n_points, mesh.n_bands, 2), axis=0)
        x = x[:, :, ::-1].transpose(1, 0, 2).reshape(-1)
        if self._real and not np.iscomplexobj(b):
            return x.real.copy()
        return x
