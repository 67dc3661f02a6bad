"""File output: CSV tables, legacy VTK snapshots, and run manifests.

Every CSV row and VTK data line comes from one column formatter, which
renders each column by dtype: integers in decimal, floats as '%.17g' (17
correctly rounded significant digits, so a write/read round trip reproduces
the double exactly), booleans as true/false, strings unchanged. Nothing is
quoted, so a string holding a comma, a quote or a line break is refused;
so is text that is not ASCII, before the file is opened. Floats are not
formatted one value at a time: an exact vectorized kernel computes the
'%.17g' text of each value with 10^-11 <= |x| < 10^16 (any other value
falls back on '%.17g'), and a column in which at most a quarter of the
values are distinct renders each of them once. ``format_float`` is the
per-value reference that the kernel equals. Rows are joined as bytes, one
block of rows at a time, and written in binary mode. VTK output is legacy
ASCII (DataFile version 3.0, unstructured grid, cell data), which every
viewer still reads. Writers return the path they wrote for the manifest,
which records a sha256 per file (files of measured wall-clock data by path
alone); no writer embeds timestamps, so repeat runs are byte-identical.
"""

from __future__ import annotations

import hashlib
import json
import re
import weakref
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .fv import Field
from .mesh import AdmissibilityReport, RingMesh
from .vortex import VortexRecord

__all__ = [
    "format_float",
    "write_csv",
    "write_mesh_tables",
    "write_admissibility_table",
    "write_field_table",
    "write_observables_table",
    "write_flow_history_table",
    "write_vortex_table",
    "write_mode_table",
    "write_eigenvalue_table",
    "field_cell_data",
    "write_legacy_vtk",
    "sha256_of",
    "write_manifest",
]

_VTK_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_NEEDS_QUOTING = re.compile(r'[,"\r\n]')
_FLOAT_FORMAT = "%.17g"
# Rows per joined write: bounds the text held in memory for a large table.
_BLOCK_ROWS = 4096
# Bytes read per hash update: bounds the memory of hashing a large file.
_HASH_CHUNK = 1 << 20


def format_float(x: float) -> str:
    """'%.17g' of x: 17 correctly rounded significant digits, so the text
    reads back as the same double.

    This is the reference that the writers' float kernel must equal.
    """
    return _FLOAT_FORMAT % float(x)


# The float kernel. A double |x| = M·2^E, with M < 2^53 an integer, has the
# decimal exponent k = floor(log10 |x|), and '%.17g' prints the 17 digits of
# D = round-half-even(|x|·10^q) = round-half-even(M·5^q·2^(E+q)), q = 16 - k.
# For 10^-11 <= |x| < 10^16, q <= 27, so 5^q < 2^63 and M·5^q is an exact
# 128-bit product of 32-bit limbs in uint64. Next to a power of ten log10
# may put k off by one; the unrounded D then lies outside [10^16, 10^17),
# which corrects k. Rounding never carries D to 10^17 in this range: the
# largest double below each 10^k lies at least 4.5 units of the 17th digit
# below it. Other values (|x| below 10^-11 or from 10^16 up, zero, nan,
# inf) are formatted one at a time. As doubles the range is
# 1e-11 < |x| < 1e16: the double 1e-11 lies below 10^-11.
_EXACT_MIN, _EXACT_MAX = 1e-11, 1e16
_K_MIN, _K_MAX = -11, 15
# The kernel makes ~60 numpy calls whatever the number of values; below
# this many values '%.17g' one at a time is faster.
_KERNEL_MIN_VALUES = 128
_POW5 = np.array([5 ** q for q in range(17 - _K_MIN)], dtype=np.uint64)
_TEN8, _TEN16, _TEN17 = np.uint64(10 ** 8), np.uint64(10 ** 16), np.uint64(10 ** 17)
_ONE, _LOW32, _U32, _U64 = np.uint64(1), np.uint64(0xFFFFFFFF), np.uint64(32), np.uint64(64)

# The text of a value is gathered from a 32-byte source row: '.', '-' and
# 'e' at bytes 0-2, the 17 digits of D at bytes 3-19 (the last 16 aligned as
# four uint32 of four digits each), '0'-'9' at bytes 20-29 and NUL after.
# A template, keyed by (k, sign, significant digits), lists the source bytes
# of each of the _TEXT_WIDTH text bytes; NUL padding ends the text, since a
# bytes array drops trailing NULs.
_SOURCE = np.frombuffer(b".-e" + bytes(17) + b"0123456789\0\0", dtype=np.uint8)
_SOURCE_ROW = _SOURCE.size
_TEXT_WIDTH = 24
_QUADS = np.frombuffer(b"".join(b"%04d" % i for i in range(10000)), dtype=np.uint32)
_QUAD_TRAILING_ZEROS = np.array([4] + [len(s) - len(s.rstrip("0")) for s in
                                       map(str, range(1, 10000))], dtype=np.intp)


def _float_template(k: int, negative: bool, n_digits: int) -> list[int]:
    """Source bytes of the '%.17g' text of a value with decimal exponent k
    whose 17 digits end in 17 - n_digits zeros."""
    point, minus, e, digit, zero = 0, 1, 2, 3, 20
    digits = list(range(digit, digit + 17))
    text = [minus] if negative else []
    if k >= 0:  # fixed notation; the integer part keeps its zeros
        text += digits[:k + 1]
        if n_digits > k + 1:
            text += [point] + digits[k + 1:n_digits]
    elif k >= -4:  # fixed notation with leading zeros
        text += [zero, point] + [zero] * (-k - 1) + digits[:n_digits]
    else:  # exponent notation, at least two exponent digits
        text += digits[:1] + ([point] + digits[1:n_digits] if n_digits > 1 else [])
        text += [e, minus] + [zero + int(c) for c in "%02d" % -k]
    return text + [_SOURCE_ROW - 1] * (_TEXT_WIDTH - len(text))


_TEMPLATES = np.array([_float_template(k, negative, n_digits)
                       for k in range(_K_MIN, _K_MAX + 1)
                       for negative in (False, True)
                       for n_digits in range(1, 18)], dtype=np.intp)


def _scaled(mant: np.ndarray, exp2: np.ndarray, q: np.ndarray):
    """floor(mant·5^q·2^(exp2+q)), and whether rounding half-even adds one."""
    f = _POW5[q]
    m0, m1 = mant & _LOW32, mant >> _U32
    f0, f1 = f & _LOW32, f >> _U32
    low = m0 * f0
    mid = m0 * f1 + m1 * f0 + (low >> _U32)  # f1 < 2^31 and m1 < 2^21: below 2^64
    lo = (mid << _U32) | (low & _LOW32)
    hi = m1 * f1 + (mid >> _U32)
    shift = exp2 + q
    right = np.maximum(-shift, 0).astype(np.uint64)  # at most 62
    floor = ((hi << (_U64 - right)) | (lo >> right)) << np.maximum(shift, 0).astype(np.uint64)
    twice_rest = (lo & ((_ONE << right) - _ONE)) << _ONE
    unit = _ONE << right
    return floor, (twice_rest > unit) | ((twice_rest == unit) & (floor & _ONE).astype(bool))


def _exact_text(x: np.ndarray) -> np.ndarray:
    """'%.17g' of each value of x, all finite with 1e-11 < |x| < 1e16, as
    an array of NUL-padded bytes."""
    ax = np.abs(x)
    frac, exp2 = np.frexp(ax)
    mant = (frac * 2.0 ** 53).astype(np.uint64)
    exp2 = exp2 - 53
    # Clipped: a log10 a few ulp off at either end of the range must not
    # index past _POW5; the correction below then finds the true k.
    k = np.clip(np.floor(np.log10(ax)), _K_MIN, _K_MAX).astype(np.intp)
    d, up = _scaled(mant, exp2, 16 - k)
    off = (d >= _TEN17).astype(np.intp) - (d < _TEN16)
    fix = np.flatnonzero(off)
    if fix.size:
        k[fix] += off[fix]
        d[fix], up[fix] = _scaled(mant[fix], exp2[fix], 16 - k[fix])
    d += up

    n = x.size
    source = np.tile(_SOURCE, (n, 1))
    hi = (d // _TEN8).astype(np.uint32)  # the first nine digits
    lo = (d - hi * _TEN8).astype(np.uint32)  # the last eight
    lead = hi // 10 ** 8
    quads = np.empty((n, 4), dtype=np.uint32)
    np.divmod(hi - lead * 10 ** 8, 10000, out=(quads[:, 0], quads[:, 1]))
    np.divmod(lo, 10000, out=(quads[:, 2], quads[:, 3]))
    source[:, 3] = lead + ord("0")
    source.view(np.uint32)[:, 1:5] = _QUADS.take(quads)
    # Trailing zeros of D: those of its last quad, unless that quad is 0.
    trailing = _QUAD_TRAILING_ZEROS.take(quads[:, 3])
    whole = np.flatnonzero(quads[:, 3] == 0)
    for j in (2, 1, 0):
        trailing[whole] += _QUAD_TRAILING_ZEROS.take(quads[whole, j])
        whole = whole[quads[whole, j] == 0]
    key = ((k - _K_MIN) * 2 + np.signbit(x)) * 17 + 16 - trailing
    index = _TEMPLATES.take(key, axis=0)
    index += np.arange(0, n * _SOURCE_ROW, _SOURCE_ROW)[:, None]
    return source.ravel().take(index).view(f"S{_TEXT_WIDTH}").ravel()


def _float_text(x: np.ndarray) -> list[bytes]:
    """'%.17g' of each value of a float64 array, as bytes."""
    if x.size < _KERNEL_MIN_VALUES:
        return [format_float(v).encode("ascii") for v in x.tolist()]
    ax = np.abs(x)
    exact = (ax > _EXACT_MIN) & (ax < _EXACT_MAX)
    if exact.all():
        return _exact_text(x).tolist()
    text = np.zeros(x.size, dtype=f"S{_TEXT_WIDTH}")
    text[exact] = _exact_text(x[exact])
    text = text.tolist()
    for i in np.flatnonzero(~exact):
        text[i] = format_float(x[i]).encode("ascii")
    return text


def _repeated_float_text(x: np.ndarray) -> np.ndarray | None:
    """The cells of a float64 column in which at most a quarter of the bit
    patterns are distinct, rendering each distinct value once; None for a
    column with more."""
    bits = x.view(np.uint64)
    ordered = np.sort(bits)
    if 4 * (1 + np.count_nonzero(ordered[1:] != ordered[:-1])) > bits.size:
        return None
    values, inverse = np.unique(bits, return_inverse=True)
    text = np.empty(values.size, dtype=object)
    for start in range(0, values.size, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, values.size)
        text[start:stop] = _float_text(values[start:stop].view(np.float64))
    return text[inverse]


# Conversion of a cell by dtype kind; a column of any other kind is refused.
# Floats, booleans and text reach the row template as bytes.
_CONVERSION = {"b": "%s", "i": "%d", "u": "%d", "f": "%s", "U": "%s"}


def _lines(columns: Iterable, sep: str = ",") -> Iterator[bytes]:
    """Check the columns; return the text of their rows, one block at a time.

    A block is one %-format of the row template repeated once per row, over
    the block's cells flattened in row order. A float column goes through
    the float kernel one block at a time, unless it holds few distinct
    values, which are rendered once for the whole column.
    """
    columns = [np.asarray(c) for c in columns]
    for c in columns:
        if c.ndim != 1 or c.dtype.kind not in _CONVERSION:
            raise TypeError(f"unsupported column of {c.dtype} with shape {c.shape}")
        if c.dtype.kind == "U":
            text = c.tolist()
            if any(map(_NEEDS_QUOTING.search, text)):
                raise ValueError("text cells must not hold a comma, a quote or a line break")
            other = [s for s in text if not s.isascii()]
            if other:
                raise ValueError(f"text must be ASCII, not {other[0]!r}")
    n_rows = len(columns[0]) if columns else 0
    if any(len(c) != n_rows for c in columns):
        raise ValueError("columns differ in length")
    width = len(columns)
    row = (sep.join(_CONVERSION[c.dtype.kind] for c in columns) + "\n").encode("ascii")

    def blocks():
        # Built when the first block is asked for: a writer makes the lines
        # of all its parts before it writes, and only the part being
        # written then holds its cells.
        cells_of = {}  # column -> array whose block slices list their cells
        kernel = {}  # column -> float64 values rendered one block at a time
        for i, c in enumerate(columns):
            kind = c.dtype.kind
            if kind == "f":
                c = c.astype(np.float64, copy=False)
                repeated = _repeated_float_text(c)
                if repeated is None:
                    kernel[i] = c
                else:
                    cells_of[i] = repeated
            elif kind == "b":
                cells_of[i] = np.where(c, b"true", b"false")
            elif kind == "U":
                cells_of[i] = c.astype("S")  # ASCII, checked above
            else:
                cells_of[i] = c
        for start in range(0, n_rows, _BLOCK_ROWS):
            stop = min(start + _BLOCK_ROWS, n_rows)
            cells = [None] * (width * (stop - start))
            for i, c in cells_of.items():
                cells[i::width] = c[start:stop].tolist()
            for i, c in kernel.items():
                cells[i::width] = _float_text(c[start:stop])
            yield row * (stop - start) % tuple(cells)

    return blocks()


def _write(path, parts: Sequence[Iterable[bytes]]) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as handle:
        for part in parts:
            handle.writelines(part)
    return path


def write_csv(path, header: Sequence[str], columns: Sequence) -> Path:
    """Write a table given as columns; their number must match the header's."""
    columns = list(columns)
    if len(columns) != len(header):
        raise ValueError(f"{len(columns)} columns for header width {len(header)}")
    return _write(path, [_lines([[name] for name in header]), _lines(columns)])


def write_mesh_tables(out_dir, mesh: RingMesh) -> list[Path]:
    """vertices.csv, triangles.csv and edges.csv under out_dir."""
    out_dir = Path(out_dir)
    return [
        write_csv(out_dir / "vertices.csv", ["vertex", "x", "y"],
                  [np.arange(mesh.n_vertices), *mesh.vertices.T]),
        write_csv(out_dir / "triangles.csv",
                  ["triangle", "band", "slot", "kind", "v0", "v1", "v2",
                   "center_x", "center_y", "area"],
                  [np.arange(mesh.n_triangles), mesh.band, mesh.slot, mesh.kind,
                   *mesh.triangles.T, *mesh.centers.T, mesh.areas]),
        write_csv(out_dir / "edges.csv",
                  ["edge", "v0", "v1", "triangle_K", "triangle_L", "length",
                   "center_distance", "normal_x", "normal_y"],
                  [np.arange(mesh.n_edges), *mesh.edge_vertices.T, mesh.edge_K,
                   mesh.edge_L, mesh.edge_length, mesh.edge_d, *mesh.edge_normal.T]),
    ]


def write_admissibility_table(path, report: AdmissibilityReport) -> Path:
    # One row; the columns are the report's fields, in order.
    fields = vars(report)
    return write_csv(path, list(fields), [[v] for v in fields.values()])


def write_field_table(path, u: Field) -> Path:
    v = u.values
    return write_csv(path, ["triangle", "re", "im", "density"],
                     [np.arange(v.size), v.real, v.imag, np.abs(v) ** 2])


def write_observables_table(path, times, mass, energy, err_reference=None) -> Path:
    if err_reference is None:
        return write_csv(path, ["t", "mass", "energy"], [times, mass, energy])
    return write_csv(path, ["t", "mass", "energy", "err_reference"],
                     [times, mass, energy, err_reference])


def write_flow_history_table(path, energies, residuals) -> Path:
    return write_csv(path, ["iteration", "energy", "residual"],
                     [np.arange(len(energies)), energies, residuals])


def write_vortex_table(path, rows: Iterable[tuple[float, VortexRecord]]) -> Path:
    """One line per (time, record) pair, all methods mixed in one table."""
    header = ["t", "method", "triangle", "x", "y", "index",
              "characteristic_length", "extremum", "reliable"]
    cells = [(t, r.method, r.triangle, *r.position, r.index_or_sign,
              r.characteristic_length, r.extremum_value, r.reliable) for t, r in rows]
    # Without records, zip gives no columns at all: write the header alone.
    return write_csv(path, header, list(zip(*cells)) or [()] * len(header))


def _mode_grid(basis) -> list[np.ndarray]:
    """p and ell of the (P+1) x (2L+1) mode grid in row-major order."""
    ells = np.arange(-basis.L, basis.L + 1)
    return [np.repeat(np.arange(basis.P + 1), ells.size), np.tile(ells, basis.P + 1)]


def write_mode_table(path, coeffs, basis) -> Path:
    """Coefficient grid from decompose(): columns p, ell, re, im, power."""
    coeffs = np.asarray(coeffs)
    if coeffs.shape != (basis.P + 1, 2 * basis.L + 1):
        raise ValueError(f"coefficient grid {coeffs.shape} does not match basis")
    c = coeffs.ravel()
    # Scalar abs, not np.abs: the array form differs in the last digit.
    power = [abs(x) ** 2 for x in c]
    return write_csv(path, ["p", "ell", "re", "im", "power"],
                     [*_mode_grid(basis), c.real, c.imag, power])


def write_eigenvalue_table(path, basis) -> Path:
    return write_csv(path, ["p", "ell", "eigenvalue"],
                     [*_mode_grid(basis), basis.eigenvalues.ravel()])


def field_cell_data(u: Field) -> dict[str, np.ndarray]:
    """Cell arrays for a snapshot: real part, imaginary part, density."""
    v = u.values
    return {"re": v.real.copy(), "im": v.imag.copy(), "density": np.abs(v) ** 2}


# The POINTS, CELLS and CELL_TYPES text of each RingMesh, which every VTK
# file of that mesh repeats. A mesh is not changed once built.
_VTK_GEOMETRY: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _vtk_geometry(mesh: RingMesh) -> tuple[bytes, ...]:
    cached = isinstance(mesh, RingMesh)  # other mesh-like objects are rendered each time
    text = _VTK_GEOMETRY.get(mesh) if cached else None
    if text is None:
        n_cells = mesh.n_triangles
        text = (
            b"POINTS %d double\n" % mesh.n_vertices,
            *_lines([*mesh.vertices.T, np.zeros(mesh.n_vertices, int)], sep=" "),
            b"CELLS %d %d\n" % (n_cells, 4 * n_cells),
            *_lines([np.full(n_cells, 3), *mesh.triangles.T], sep=" "),
            b"CELL_TYPES %d\n" % n_cells,
            *_lines([np.full(n_cells, 5)]),
        )
        if cached:
            _VTK_GEOMETRY[mesh] = text
    return text


def write_legacy_vtk(path, mesh: RingMesh, cell_data: Mapping[str, np.ndarray] | None = None,
                     title: str = "ringgpe output") -> Path:
    """Write the triangulation (plus per-triangle scalars) as legacy ASCII VTK.

    The geometry text is rendered once per mesh and reused by later files.
    """
    if "\n" in title or len(title) > 255:
        raise ValueError("title must be a single line of at most 255 characters")
    if not title.isascii():
        raise ValueError(f"title must be ASCII, not {title!r}")
    n_cells = mesh.n_triangles
    parts = [
        [b"# vtk DataFile Version 3.0\n%s\nASCII\nDATASET UNSTRUCTURED_GRID\n"
         % title.encode("ascii")],
        _vtk_geometry(mesh),
    ]
    if cell_data:
        parts.append([b"CELL_DATA %d\n" % n_cells])
    for name, values in (cell_data or {}).items():
        if not _VTK_NAME.fullmatch(name):
            raise ValueError(f"invalid VTK array name {name!r}")
        values = np.asarray(values)
        if values.shape != (n_cells,) or values.dtype.kind not in "fiu":
            raise ValueError(f"array {name!r} must hold one real value per triangle")
        parts.append([b"SCALARS %s double 1\nLOOKUP_TABLE default\n" % name.encode("ascii")])
        parts.append(_lines([values.astype(float)]))
    return _write(path, parts)


def sha256_of(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        while chunk := f.read(_HASH_CHUNK):
            digest.update(chunk)
    return digest.hexdigest()


def write_manifest(out_dir, files: Iterable[Path], config_text: str,
                   unhashed: Iterable[Path] = ()) -> Path:
    """manifest.json: the run configuration plus one entry per file.

    Paths are stored relative to out_dir; duplicates collapse. Each file gets
    its sha256 and size, except the unhashed ones (measured wall-clock data),
    which are listed by path alone so that repeat runs give identical
    manifests. The manifest itself is excluded (it cannot contain its own
    hash).
    """
    out_dir = Path(out_dir)
    skip = {Path(f) for f in unhashed}
    entries = []
    for f in sorted({Path(f) for f in files} | skip):
        entry = {"path": f.relative_to(out_dir).as_posix()}
        if f not in skip:
            entry.update(sha256=sha256_of(f), bytes=f.stat().st_size)
        entries.append(entry)
    doc = {"config": config_text, "files": entries}
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return path
