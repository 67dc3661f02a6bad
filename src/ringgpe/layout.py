"""The (band, slot, kind) view of per-triangle arrays, the slot-FFT solver
and the checked solve.

Triangle 2*(band*N_p + slot) + kind reshapes to an (n_bands, N_p, 2) array
whose slot axis is periodic. The mesh is invariant under rotation by
2*pi/N_p, so the Laplacian A_T is block-circulant along that axis (Davis,
Circulant Matrices, 1979): an FFT over slots splits a system
(shift I + scale A_T) x = b into N_p independent systems, one per slot
mode, each coupling the 2*n_bands (band, kind) unknowns of that mode.

Kind 0 couples only to kind 1 of its own band and of the band above, kind 1
only to kind 0 of its own band and of the band below. Ordering the unknowns
of a mode as 2*band + (1 - kind) therefore makes every mode's system
tridiagonal. The FFT along the slot axis of one (band, kind) is row j of
every mode at once, so SlotFFTSolver eliminates all modes together, one row
of S values per step. On small sectors those steps cost more in numpy calls
than in arithmetic, and the solver partitions the rows into blocks that
sweep together (a substructured elimination after H. H. Wang, A parallel
method for tridiagonal equations, ACM TOMS 7(2), 1981; sweep_blocks).

A field that repeats every N_p/k slots (k divides N_p) is determined by its
sector, the first S = N_p/k slots, and its slot FFT vanishes off the modes
q = 0 (mod k). Every slot-invariant operator maps such fields to such
fields, so it acts on the sector alone: SlotFFTSolver solves on the modes
q = k p by a length-S FFT of the sector, and sector_matrix wraps the
columns of the sector's rows into the sector. For k = 1 the sector is the
whole mesh and folding and tiling are identities. The gradient flow lives
in mode 0 (k = N_p), one value per (band, kind) (mode0_rows).

A field may instead change sign every N_p/k slots, u(s + S) = -u(s), with
k even so that k such shifts return it to itself: an antiperiodic sector,
sign -1 (the periodic one is sign +1). Its slot FFT lives on the modes
q = k p + k/2, which a length-S FFT reaches after the ramp exp(-i pi s/S)
over the sector's slots; a column that wraps w times around the sector
takes the factor sign^w, and tiling negates every odd copy. Every
slot-invariant operator commutes with the sign, so the sector carries the
field as before. Only sign +1 and -1 are supported: negation is exact, a
complex phase is not, and the sign is detected by exact equality, as the
fold is (invariant_fold).

The same rotation maps the triangle adjacency graph onto itself, so the
labels (slot_labels, the inverse of slot_view) of triangles around slot 0
serve slot s with s added modulo N_p; the density detector's shells do so.

Every linear solve of the package goes through checked_solve, which
refines once and holds the residual to SOLVER_RESIDUAL_TOL; its
certificate (residual_bounds, refinement_certificate) spares a product.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, NamedTuple

import numpy as np
import scipy.fft
import scipy.sparse as sp

from .errors import NumericalError
from .mesh import RingMesh

if TYPE_CHECKING:
    from .fv import LaplacianOperator

# Smallest pivot, relative to the 1-norm of its row, that the unpivoted
# slot-mode factorization accepts. A smaller one would amplify round-off by
# more than 1/PIVOT_TOL in one elimination step, beyond what one refinement
# step against SlotFFTSolver.matrix (checked_solve) is meant to absorb; the
# Cayley flow refines with the identity, which corrects no solver error in
# modes where |z lambda| >= 1.
PIVOT_TOL = 1e-8

# Sectors of at most this many slots sweep their slot modes in blocks
# (sweep_blocks). A sweep step is a few numpy calls on the S values of a row,
# and on small sectors those calls, not the arithmetic, set the time of a
# solve; blocking makes about four times fewer calls for one more pass over
# the data. Measured on one core: at S = 81 (41 bands) a solve took 0.45 ms
# serial and 0.32 ms blocked; at S = 109 (13 bands) blocking lost 3-17 % with
# 2, 5 or 13 blocks, at S = 243 and S = 486 (41 bands) 22 % and 33 %.
BLOCKED_SWEEP_MAX_SLOTS = 100


def sweep_blocks(n_rows: int, n_slots: int) -> int:
    """Number of blocks B into which SlotFFTSolver splits its n_rows rows.

    B = 1, the serial sweep, for sectors of more than BLOCKED_SWEEP_MAX_SLOTS
    slots. Otherwise the B, near sqrt(n_rows), with the fewest sweep steps:
    L - 1 inside blocks of L = block_rows(n_rows, B) rows plus B - 1 along
    them; among those, the one that pads the fewest rows.
    """
    if n_slots > BLOCKED_SWEEP_MAX_SLOTS:
        return 1
    return min(range(1, n_rows + 1),
               key=lambda b: (b + block_rows(n_rows, b), b * block_rows(n_rows, b)))


def block_rows(n_rows: int, blocks: int) -> int:
    """Rows L per block: enough for n_rows in total, and even, so a block is whole bands."""
    return 2 * -(-n_rows // (2 * blocks))


def slot_view(mesh: RingMesh, values: np.ndarray) -> np.ndarray:
    """values per triangle as an (n_bands, N_p, 2) array (a view when possible)."""
    return np.asarray(values).reshape(mesh.n_bands, mesh.n_points, 2)


def slot_labels(mesh: RingMesh, triangles: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(band, slot, kind) of each triangle: the inverse of slot_view."""
    return np.unravel_index(triangles, (mesh.n_bands, mesh.n_points, 2))


def slot_defect(mesh: RingMesh, values: np.ndarray) -> float:
    """Largest spread of values across the slots of one (band, kind)."""
    return float(np.ptp(slot_view(mesh, values), axis=1).max())


def sector_slots(mesh: RingMesh, fold: int, sign: int = 1) -> int:
    """S = N_p/fold, the slot count of the sector of fields with u(s + S) = sign u(s)."""
    if fold < 1 or mesh.n_points % fold:
        raise ValueError(f"fold {fold} does not divide N_p = {mesh.n_points}")
    if not (sign == 1 or (sign == -1 and fold % 2 == 0)):
        raise ValueError(f"sign {sign} at fold {fold}: the sign is +1, or -1 at an even fold")
    return mesh.n_points // fold


def sector(mesh: RingMesh, fold: int) -> np.ndarray:
    """Triangles of the first N_p/fold slots, in (band, slot, kind) order."""
    idx = slot_view(mesh, np.arange(mesh.n_triangles))
    return idx[:, :sector_slots(mesh, fold)].reshape(-1)


def tile(mesh: RingMesh, values: np.ndarray, fold: int, sign: int = 1) -> np.ndarray:
    """The per-triangle array that repeats sector values fold times along
    the slots, each copy sign times the one before."""
    n_s = sector_slots(mesh, fold, sign)
    copies = np.tile(np.asarray(values).reshape(mesh.n_bands, 1, n_s, 2), (1, fold, 1, 1))
    if sign < 0:
        copies[:, 1::2] *= -1
    return copies.reshape(-1)


def invariant_fold(mesh: RingMesh, values: np.ndarray, k0: int) -> tuple[int, int]:
    """(k, sign): the largest divisor k of k0 for which values[s + N_p/k] = sign values[s].

    Each k tries sign +1 first, then -1 if k is even. Both are tested by
    exact equality, so a symmetry broken at round-off counts as broken;
    with none kept the result is (1, 1). k0 must divide N_p.
    """
    sector_slots(mesh, k0)
    v = slot_view(mesh, values)
    for k in range(k0, 1, -1):
        if k0 % k:
            continue
        shifted = np.roll(v, mesh.n_points // k, axis=1)
        if np.array_equal(v, shifted):
            return k, 1
        if k % 2 == 0 and np.array_equal(v, -shifted):
            return k, -1
    return 1, 1


def sector_matrix(op: LaplacianOperator, shift: complex, scale: complex,
                  fold: int = 1, sign: int = 1) -> sp.csr_matrix:
    """shift I + scale A_T as a CSR matrix on the sectors of fields with
    u(s + N_p/fold) = sign u(s).

    shift and scale are scalars. The sector's A_T is assembled as A_T is,
    diag(1/area) A, from the sector's rows of the flux form A with their
    columns wrapped into the sector, each times sign^(number of wraps), so
    that A_T tile(x) is tiled from its product with x up to round-off. The
    mesh repeats under rotation only to round-off, so those rows are
    symmetric only to ~1e-13 on paper62; they are symmetrized, which keeps
    the sector's A_T self-adjoint for the sector's areas and a Cayley step
    on it mass-preserving. With sign -1 the wrapped rows are symmetric to
    the same round-off, as sign^k = 1 at even k. At fold 1 the sector is the
    whole mesh and A is exactly symmetric, so the sector's A_T is A_T bit
    for bit, on its own copy of A_T's pattern.
    """
    if np.ndim(shift) or np.ndim(scale):
        raise ValueError("shift and scale must be scalars")
    mesh = op.mesh
    n_p, n_s = mesh.n_points, sector_slots(mesh, fold, sign)
    in_sector = sector(mesh, fold)
    flux = op.A.tocsr()[in_sector]
    band, slot = np.divmod(flux.indices // 2, n_p)
    cols = 2 * (band * n_s + slot % n_s) + flux.indices % 2
    data = flux.data if sign > 0 else np.where(slot // n_s % 2, -flux.data, flux.data)
    a = sp.csr_matrix((data, cols, flux.indptr), shape=(flux.shape[0],) * 2)
    a.sum_duplicates()  # for S <= 2 a row meets the same sector slot twice
    a = ((a + a.T) * 0.5).tocsr()
    a_t = (sp.diags(1.0 / mesh.areas[in_sector]) @ a).tocsr()
    a_t.sort_indices()
    # Every row stores its diagonal: every triangle has an interior edge.
    rows = np.repeat(np.arange(a_t.shape[0]), np.diff(a_t.indptr))
    data = np.multiply(scale, a_t.data, dtype=np.result_type(scale, shift, a_t.data))
    data[a_t.indices == rows] += shift
    return sp.csr_matrix((data, a_t.indices, a_t.indptr), shape=a_t.shape)


class ResidualBounds(NamedTuple):
    """Constants of a square matrix M with which checked_solve certifies the
    residual of a solve refined once with the identity, without a second
    product with M (see refinement_certificate)."""

    gap: float  # >= ||M - I||_2
    abs_norm: float  # >= || |M| ||_2, |M| the entrywise modulus
    rounding: float  # 4 (k + 2) eps, k the most stored entries in a row
    floor: float  # 1e-150 sqrt(n) (gap + abs_norm + 1), slack for gradual underflow


def residual_bounds(mat: sp.csr_matrix) -> ResidualBounds:
    """ResidualBounds of a CSR matrix, each 2-norm bounded by ||B||_2 <= sqrt(||B||_1 ||B||_inf).

    ||B||_1 and ||B||_inf are the largest column and row sums of |B|, so
    the bound on ||M||_2 bounds || |M| ||_2 too; |M - I| has |M|'s
    off-diagonal entries and |m_ii - 1| on the diagonal. Every sum has
    terms >= 0 and is rounded by at most k eps relative, which the
    certificate's margin absorbs. The floor covers gradual underflow,
    which the relative rounding model leaves out: it loses at most
    ~3e-162 sqrt(n) from a norm of n values and far less from a product
    with M.
    """
    n = mat.shape[0]
    rows = np.repeat(np.arange(n, dtype=mat.indices.dtype), np.diff(mat.indptr))
    modulus = np.abs(mat.data)
    off_diagonal = np.where(mat.indices == rows, 0.0, modulus)
    gap_diagonal = np.abs(mat.diagonal() - 1.0)

    def two_norm_bound(data, diagonal=0.0):
        row_sums = np.bincount(rows, data, n) + diagonal
        column_sums = np.bincount(mat.indices, data, n) + diagonal
        return math.sqrt(row_sums.max() * column_sums.max())

    gap = two_norm_bound(off_diagonal, gap_diagonal)
    abs_norm = two_norm_bound(modulus)
    k = int(np.diff(mat.indptr).max())
    return ResidualBounds(gap, abs_norm, 4 * (k + 2) * float(np.finfo(float).eps),
                          1e-150 * math.sqrt(n) * (gap + abs_norm + 1.0))


# Relative residual contract for every inner linear solve.
SOLVER_RESIDUAL_TOL = 1e-10

# Relative margin of refinement_certificate for the rounding of its norms
# and constants: each is within ~n eps of exact for n values, far below it.
CERTIFICATE_MARGIN = 1e-6


def refinement_certificate(bounds: ResidualBounds, rhs_norm: float, x0_norm: float,
                           r_norm: float) -> float:
    """Upper bound on ||mat @ x1 - rhs|| after one identity refinement.

    x0 = solve(rhs), r = rhs - mat @ x0 and x1 = x0 + r as checked_solve
    computes them, bounds = residual_bounds(mat) = (g, a, c eps, floor) and
    the norms those of rhs, x0 and r. In exact arithmetic
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
    bounds = residual_bounds(mat) it is the identity, which suffices
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


def mode0_rows(mesh: RingMesh, values: np.ndarray) -> np.ndarray:
    """Slot 0 of values in slot_symbol's row order j = 2*band + (1 - kind)."""
    return slot_view(mesh, values)[:, 0, ::-1].reshape(-1)


def tile_mode0(mesh: RingMesh, rows: np.ndarray) -> np.ndarray:
    """The slot-invariant per-triangle array whose mode0_rows are rows."""
    return tile(mesh, np.asarray(rows).reshape(-1, 2)[:, ::-1], mesh.n_points)


def _symbol_row(t: np.ndarray, n_p: int) -> np.ndarray:
    """slot_symbol's row j = 2*band + (1 - kind) of each triangle of t."""
    j = t // (2 * n_p)
    j *= 2
    j += 1
    j -= t % 2
    return j


def _symbol_bins(mesh: RingMesh, mat: sp.csr_matrix) -> np.ndarray:
    """The bin of each stored entry of mat in slot_symbol's coefficients, in
    entry order: ((off + 1) * 3 + d + 1) * 2 n_bands + j, with j the
    _symbol_row of the entry's row, off that of its column minus j, and d
    its slot offset.

    Built in place, in the index type of the matrix, from per-row values
    repeated over each row's entries: on paper62, 64-bit copies tripled the
    transient memory, and a fresh array per step still held 1.5 times it.
    """
    n_p = mesh.n_points
    c = mat.indices
    counts = np.diff(mat.indptr)
    rows = np.arange(mat.shape[0], dtype=c.dtype)
    d = c // 2  # slot offset in -1 .. n_p - 2
    d -= np.repeat(rows // 2, counts)
    d += 1
    d %= n_p
    d -= 1
    j = np.repeat(_symbol_row(rows, n_p), counts)
    off = _symbol_row(c, n_p)
    off -= j
    if np.any(np.abs(off) > 1) or np.any(d > 1):
        raise ValueError("operator couples beyond the tridiagonal slot-mode band")
    off += 1
    off *= 3
    off += d
    off += 1
    off *= 2 * mesh.n_bands
    off += j
    return off


def slot_symbol(mesh: RingMesh, mat: sp.spmatrix, modes) -> np.ndarray:
    """Tridiagonal symbol of a real slot-invariant operator in the slot modes q of modes.

    Returns S with shape (3, len(modes), 2*n_bands): S[0, i, j], S[1, i, j]
    and S[2, i, j] are the entries (j, j-1), (j, j) and (j, j+1) of the
    matrix of mode q = modes[i], with unknowns ordered
    j = 2*band + (1 - kind). Each coupling coefficient is averaged over the
    slots, so an operator that is slot-invariant up to round-off gets its
    exact circulant neighbour; the coefficients are summed in entry order,
    so the symbol of a mode does not depend on which other modes are asked
    for. Raises ValueError if a coupling reaches beyond the neighbouring
    slot or outside the tridiagonal band.
    """
    n_b, n_p = mesh.n_bands, mesh.n_points
    mat = sp.csr_matrix(mat)
    # np.bincount sums each bin in index order, as np.add.at does.
    coef = np.bincount(_symbol_bins(mesh, mat), mat.data, 18 * n_b)
    coef = coef.reshape(3, 3, 2 * n_b) / n_p
    phase = np.exp(2j * np.pi / n_p * np.outer(modes, [-1, 0, 1]))
    return np.einsum("odj,qd->oqj", coef, phase)


class SlotFFTSolver:
    """Solve (shift I + scale A_T) x = b by FFT over slots, on a sector.

    shift and scale are scalars. With fold k and sign +1, b and x are the
    sectors (layout.tile) of fields repeating every S = N_p/k slots; their
    slot FFT lives on the modes q = k p, so the solver computes and factors
    the slot_symbol of A_T in those S modes only, and a solve takes
    length-S FFTs. Fold 1 is the whole mesh. With sign -1 the fields change
    sign every S slots and live on the modes q = k p + k/2, the modes it
    then computes and factors: b is multiplied by exp(-i pi s/S)
    before its FFT and the result by exp(i pi s/S) after, which maps those
    modes onto the length-S FFT's.

    The factorization is an LU without pivoting of every mode's tridiagonal
    system, done for all modes at once row by row. A solve writes the slot
    FFT of b into a work array with one row of S mode values for each
    j = 2*band + (1 - kind), runs the forward and back sweeps over those
    rows in place, and transforms back. The rows are split into B blocks
    of an even number L of rows (sweep_blocks), the last one padded with
    rows that stay 0. Each sweep runs inside all blocks at once from a zero
    start (L - 1 steps on B x S values); a carry along the blocks' edge
    rows makes those exact (B - 1 steps on S values); one pass then adds to
    every other row its share of the carry, through products of the
    multipliers formed at factor time. The work array holds row i of every
    block as one contiguous (B, S) array, and the FFTs write and read it in
    that order. B = 1 is the plain serial sweep over the 2*n_bands rows.
    Each solve makes its own work array, so a non-finite b affects only
    its own result.

    The Cayley matrix I - z A_T, z = i tau/(4m), needs no pivoting. A_T is
    self-adjoint for the area-weighted inner product, so with the areas as a
    diagonal similarity the matrix has Hermitian part exactly I; so does each
    mode's system (the FFT is unitary and the areas are slot-invariant), and
    every Schur complement of a matrix with Hermitian part >= I has one too.
    The pivots, which a diagonal similarity leaves unchanged, are the 1x1
    Schur complements, so Re p >= 1. Other systems may meet a small pivot:
    the factorization raises NumericalError when a pivot is not finite or
    falls below PIVOT_TOL of its row's 1-norm.

    Callers check each solve with checked_solve against matrix, the sector's
    sector_matrix, and its residual_bounds, bounds. Each solve returns a new
    complex array, so callers may update it in place.
    """

    def __init__(self, op: LaplacianOperator, shift: complex, scale: complex, fold: int = 1,
                 sign: int = 1):
        self.matrix = sector_matrix(op, shift, scale, fold, sign)
        self.bounds = residual_bounds(self.matrix)
        mesh = self.mesh = op.mesh
        n_slots = self.n_slots = sector_slots(mesh, fold, sign)
        first = fold // 2 if sign < 0 else 0  # the sector's modes are q = fold p + first
        self._ramp = None
        if sign < 0:
            ramp = np.exp(-1j * np.pi / n_slots * np.arange(n_slots))[:, None]
            self._ramp = (ramp, np.conj(ramp))
        # Rows j, modes along the second axis. Row 0 has no lower and the
        # last row no upper neighbour: nothing lies below band 0 or above
        # the last band.
        symbol = slot_symbol(mesh, op.A_T, np.arange(first, mesh.n_points, fold))
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
                f"slot mode {p * fold + first}: pivot {pivot[j, p]:.3e} in row {j} (band {j // 2}, "
                f"kind {1 - j % 2}) is below PIVOT_TOL of its row or not finite")
        inv_pivot = 1.0 / pivot
        n_rows = len(pivot)
        blocks = sweep_blocks(n_rows, n_slots)
        size = block_rows(n_rows, blocks)
        # Rows past the last one pad the last block: with no couplings and
        # pivot 1 they stay 0 and change no other row.
        padded = blocks * size - n_rows
        self._padding = np.zeros((padded // 2, n_slots, 2))

        def by_row(a, fill=0.0):
            # (row, mode) -> (row i of a block, block, mode)
            a = np.pad(a, ((0, padded), (0, 0)), constant_values=fill)
            return a.reshape(blocks, size, -1).transpose(1, 0, 2)

        mult = by_row(mult)
        upper = by_row(upper * inv_pivot)  # the back sweep's upper diagonal of D^-1 U
        self._mult = mult.copy()
        self._upper = upper.copy()
        self._inv_pivot = by_row(inv_pivot, 1.0).copy()
        # How the rows of block b depend on the last row of block b - 1 in
        # the forward sweep (blocks 1..B-1) and on the first row of block
        # b + 1 in the back sweep (blocks 0..B-2): products of the negated
        # multipliers from the block's edge to the row.
        self._lower_gain = np.cumprod(-mult[:, 1:], axis=0)
        self._upper_gain = np.cumprod(-upper[::-1, :-1], axis=0)[::-1].copy()

    def solve(self, b: np.ndarray) -> np.ndarray:
        n_bands, n_slots = self.mesh.n_bands, self.n_slots
        size, blocks = self._mult.shape[:2]
        xb = np.reshape(b, (n_bands, n_slots, 2))
        if self._ramp is not None:
            xb = xb * self._ramp[0]
        if len(self._padding):
            xb = np.concatenate([xb, self._padding])
        # Row i of block k is (band k*size/2 + i // 2, kind 1 - i % 2) of the
        # field; the slot FFT writes it to work[i, k], so that row i of every
        # block is one contiguous (B, S) array.
        by_row = xb.reshape(blocks, size // 2, n_slots, 2)[..., ::-1].transpose(1, 3, 0, 2)
        work = scipy.fft.fft(by_row, axis=3).reshape(size, blocks, n_slots)
        rows = list(work)
        tmp = np.empty((blocks, n_slots), dtype=work.dtype)
        # L y = b: every block from a zero start, then the carry along the
        # blocks' last rows, then each row of a later block gets its share
        # (with one block the carry is empty).
        for m, prev, row in zip(self._mult[1:], rows, rows[1:]):
            np.multiply(m, prev, out=tmp)
            np.subtract(row, tmp, out=row)
        gain = self._lower_gain
        carry = work[-1, :-1].copy()  # becomes the exact last row of blocks 0..B-2
        ends = list(carry)
        for g, prev, end in zip(gain[-1], ends, ends[1:]):
            np.multiply(g, prev, out=tmp[0])
            np.add(end, tmp[0], out=end)
        work[:, 1:] += gain * carry
        work *= self._inv_pivot  # then D^-1 U x = D^-1 y, the same way from the other end
        for u, nxt, row in zip(self._upper[-2::-1], rows[:0:-1], rows[-2::-1]):
            np.multiply(u, nxt, out=tmp)
            np.subtract(row, tmp, out=row)
        gain = self._upper_gain
        carry = work[0, 1:].copy()  # becomes the exact first row of blocks 1..B-1
        ends = list(carry)
        for g, nxt, end in zip(gain[0, :0:-1], ends[:0:-1], ends[-2::-1]):
            np.multiply(g, nxt, out=tmp[0])
            np.add(end, tmp[0], out=end)
        work[:, :-1] += gain * carry
        by_band = work.reshape(size // 2, 2, blocks, n_slots).transpose(2, 0, 3, 1)[..., ::-1]
        x = scipy.fft.ifft(by_band, axis=2)
        if self._ramp is not None:
            x *= self._ramp[1]
        return x.reshape(-1)[:2 * n_bands * n_slots]
