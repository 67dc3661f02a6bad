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

A field that repeats every N_p/k slots (k divides N_p) is determined by its
sector, the first S = N_p/k slots, and its slot FFT vanishes off the modes
q = 0 (mod k). Every slot-invariant operator maps such fields to such
fields, so it acts on the sector alone: SlotFFTSolver solves on the modes
q = k p by a length-S FFT of the sector, and sector_laplacian wraps the
columns of the sector's rows into the sector. For k = 1 the sector is the
whole mesh and folding and tiling are identities. The gradient flow lives
in mode 0 (k = N_p), one value per (band, kind) (mode0_rows).

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


def sector_slots(mesh: RingMesh, fold: int) -> int:
    """S = N_p/fold, the slot count of the sector of fields repeating every S slots."""
    if fold < 1 or mesh.n_points % fold:
        raise ValueError(f"fold {fold} does not divide N_p = {mesh.n_points}")
    return mesh.n_points // fold


def sector(mesh: RingMesh, fold: int) -> np.ndarray:
    """Triangles of the first N_p/fold slots, in (band, slot, kind) order."""
    idx = slot_view(mesh, np.arange(mesh.n_triangles))
    return idx[:, :sector_slots(mesh, fold)].reshape(-1)


def tile(mesh: RingMesh, values: np.ndarray, fold: int) -> np.ndarray:
    """The per-triangle array that repeats sector values fold times along the slots."""
    v = np.asarray(values).reshape(mesh.n_bands, sector_slots(mesh, fold), 2)
    return np.tile(v, (1, fold, 1)).reshape(-1)


def invariant_fold(mesh: RingMesh, values: np.ndarray, k0: int) -> int:
    """Largest divisor k of k0 for which values repeats every N_p/k slots.

    Repetition is tested by exact equality, so a symmetry broken at
    round-off counts as broken. k0 must divide N_p.
    """
    sector_slots(mesh, k0)
    v = slot_view(mesh, values)
    for k in range(k0, 1, -1):
        if k0 % k == 0 and np.array_equal(v, np.roll(v, mesh.n_points // k, axis=1)):
            return k
    return 1


def sector_laplacian(op: LaplacianOperator, fold: int) -> sp.csr_matrix:
    """op.A_T on fields repeating every N_p/fold slots, as a matrix on their sectors.

    Assembled as A_T is, diag(1/area) A, from the sector's rows of the flux
    form A with each column wrapped into the sector, then symmetrized: for
    sector values x, the result times x is the sector of A_T tile(x) up to
    round-off. The mesh repeats under rotation only to round-off, so the
    wrapped rows alone are symmetric only to ~1e-13 on paper62;
    symmetrized, the result is self-adjoint for the sector's areas as A_T
    is for the mesh's, and a Cayley step on it keeps the mass as well. For
    fold 1 this reproduces op.A_T bit for bit.
    """
    mesh = op.mesh
    n_p, n_s = mesh.n_points, sector_slots(mesh, fold)
    rows = op.A.tocsr()[sector(mesh, fold)]
    band_slot = rows.indices // 2
    cols = 2 * (band_slot // n_p * n_s + band_slot % n_p % n_s) + rows.indices % 2
    a = sp.csr_matrix((rows.data, cols, rows.indptr), shape=(rows.shape[0],) * 2)
    a.sum_duplicates()  # for S <= 2 a row meets the same sector slot twice
    a = ((a + a.T) * 0.5).tocsr()
    a_t = (sp.diags(1.0 / mesh.areas[sector(mesh, fold)]) @ a).tocsr()
    a_t.sort_indices()
    return a_t


def mode0_rows(mesh: RingMesh, values: np.ndarray) -> np.ndarray:
    """Slot 0 of values in slot_symbol's row order j = 2*band + (1 - kind)."""
    return slot_view(mesh, values)[:, 0, ::-1].reshape(-1)


def tile_mode0(mesh: RingMesh, rows: np.ndarray) -> np.ndarray:
    """The slot-invariant per-triangle array whose mode0_rows are rows."""
    return tile(mesh, np.asarray(rows).reshape(-1, 2)[:, ::-1], mesh.n_points)


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
    mat = sp.csr_matrix(mat)
    # Row and column of every stored entry, in the index type of the matrix
    # (no 64-bit copies: on paper62 they tripled the transient memory).
    c = mat.indices
    r = np.repeat(np.arange(mat.shape[0], dtype=c.dtype), np.diff(mat.indptr))
    j = 2 * (r // (2 * n_p)) + 1 - r % 2
    off = 2 * (c // (2 * n_p)) + 1 - c % 2 - j
    d = ((c // 2 - r // 2 + 1) % n_p) - 1  # slot offset in -1 .. n_p - 2
    if np.any(np.abs(off) > 1) or np.any(d > 1):
        raise ValueError("operator couples beyond the tridiagonal slot-mode band")
    coef = np.zeros((3, 3, 2 * n_b), dtype=mat.dtype)
    np.add.at(coef, (off + 1, d + 1, j), mat.data)
    coef /= n_p
    q = np.arange(n_p)
    phase = np.exp(2j * np.pi / n_p * np.outer(q, [-1, 0, 1]))
    return np.einsum("odj,qd->oqj", coef, phase)


class SlotFFTSolver:
    """Solve (shift I + scale A_T) x = b by FFT over slots, on a sector.

    shift and scale are scalars. With fold k, b and x are the sectors
    (layout.tile) of fields repeating every S = N_p/k slots; their slot FFT
    lives on the modes q = k p, so only those modes of op.slot_symbol are
    factored and a solve takes length-S FFTs. Fold 1 is the whole mesh.

    The factorization is an LU without pivoting of every mode's tridiagonal
    system, done for all modes at once row by row. A solve never leaves the
    (band, slot, kind) layout: after an FFT along the slot axis, row
    j = 2*band + (1 - kind) of all modes is the slot axis of one
    (band, kind), so the forward and back sweeps run over the 2*n_bands rows
    as in-place operations on S values each, and an inverse FFT follows.

    The Cayley matrix I - z A_T, z = i tau/(4m), needs no pivoting. A_T is
    self-adjoint for the area-weighted inner product, so with the areas as a
    diagonal similarity the matrix has Hermitian part exactly I; so does each
    mode's system (the FFT is unitary and the areas are slot-invariant), and
    every Schur complement of a matrix with Hermitian part >= I has one too.
    The pivots, which a diagonal similarity leaves unchanged, are the 1x1
    Schur complements, so Re p >= 1. Other systems may meet a small pivot:
    the factorization raises NumericalError when a pivot is not finite or
    falls below PIVOT_TOL of its row's 1-norm.

    The assembled matrix departs from exact slot invariance by round-off, so
    callers refine against it (ground_state.checked_solve with
    op.shifted(shift, scale, fold)). The result is real when shift, scale
    and b are.
    """

    def __init__(self, op: LaplacianOperator, shift: complex, scale: complex, fold: int = 1):
        if np.ndim(shift) or np.ndim(scale):
            raise ValueError("shift and scale must be scalars")
        mesh = op.mesh
        self.mesh = mesh
        self.n_slots = sector_slots(mesh, fold)
        self._real = not (np.iscomplexobj(shift) or np.iscomplexobj(scale))
        # Rows j, modes along the second axis. Row 0 has no lower and the
        # last row no upper neighbour: nothing lies below band 0 or above
        # the last band.
        symbol = op.slot_symbol[:, ::fold]
        lower, diag, upper = np.ascontiguousarray((scale * symbol).transpose(0, 2, 1))
        diag += shift
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
            j, p = np.argwhere(bad)[0]  # the first row that fails, then its first mode
            raise NumericalError(
                f"slot mode {p * fold}: pivot {pivot[j, p]:.3e} in row {j} (band {j // 2}, "
                f"kind {1 - j % 2}) is below PIVOT_TOL of its row or not finite")
        inv_pivot = 1.0 / pivot
        self._mult = mult
        self._upper = upper * inv_pivot  # the back sweep's upper diagonal of D^-1 U
        # In the (band, slot, kind) layout of the transformed right-hand side.
        self._inv_pivot = inv_pivot.reshape(mesh.n_bands, 2, -1)[:, ::-1].transpose(0, 2, 1).copy()

    def solve(self, b: np.ndarray) -> np.ndarray:
        n_rows = 2 * self.mesh.n_bands
        xh = scipy.fft.fft(np.reshape(b, (self.mesh.n_bands, self.n_slots, 2)), axis=1)
        rows = [xh[j // 2, :, 1 - j % 2] for j in range(n_rows)]
        tmp = np.empty(self.n_slots, dtype=xh.dtype)
        mult, upper = self._mult, self._upper
        for j in range(1, n_rows):  # L y = b
            np.multiply(mult[j], rows[j - 1], out=tmp)
            np.subtract(rows[j], tmp, out=rows[j])
        xh *= self._inv_pivot  # then D^-1 U x = D^-1 y
        for j in range(n_rows - 2, -1, -1):
            np.multiply(upper[j], rows[j + 1], out=tmp)
            np.subtract(rows[j], tmp, out=rows[j])
        x = scipy.fft.ifft(xh, axis=1, overwrite_x=True).reshape(-1)
        if self._real and not np.iscomplexobj(b):
            return x.real.copy()
        return x
