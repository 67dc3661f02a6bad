"""File output: CSV tables, legacy VTK snapshots, and run manifests.

Every CSV row and VTK data line comes from one column formatter, which
renders each column by dtype: integers in decimal, floats with 17
significant digits (a write/read round trip reproduces the double exactly),
booleans as true/false, strings unchanged; nothing is quoted, so a string
holding a comma, a quote or a line break is refused. VTK output is legacy
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

_VTK_NAME = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
_NEEDS_QUOTING = re.compile(r'[,"\r\n]')
_FLOAT_FORMAT = "%.17g"
# Rows per joined write: bounds the text held in memory for a large table.
_BLOCK_ROWS = 4096


def format_float(x: float) -> str:
    """Shortest-ish decimal that reconstructs the double: 17 significant digits."""
    return _FLOAT_FORMAT % float(x)


# Conversion of a cell by dtype kind; a column of any other kind is refused.
# Booleans are turned into text first.
_CONVERSION = {"b": "%s", "i": "%d", "u": "%d", "f": _FLOAT_FORMAT, "U": "%s"}


def _lines(columns: Iterable, sep: str = ",") -> Iterator[str]:
    """Check the columns; return the text of their rows, one block at a time.

    A block is one %-format of the row template repeated once per row, over
    the block's cells flattened in row order.
    """
    columns = [np.asarray(c) for c in columns]
    for c in columns:
        if c.ndim != 1 or c.dtype.kind not in _CONVERSION:
            raise TypeError(f"unsupported column of {c.dtype} with shape {c.shape}")
        if c.dtype.kind == "U" and any(map(_NEEDS_QUOTING.search, c.tolist())):
            raise ValueError("text cells must not hold a comma, a quote or a line break")
    n_rows = len(columns[0]) if columns else 0
    if any(len(c) != n_rows for c in columns):
        raise ValueError("columns differ in length")
    columns = [np.where(c, "true", "false") if c.dtype.kind == "b" else c for c in columns]
    row = sep.join(_CONVERSION[c.dtype.kind] for c in columns) + "\n"

    def blocks():
        for start in range(0, n_rows, _BLOCK_ROWS):
            stop = min(start + _BLOCK_ROWS, n_rows)
            cells = [None] * (len(columns) * (stop - start))
            for i, c in enumerate(columns):
                cells[i::len(columns)] = c[start:stop].tolist()
            yield row * (stop - start) % tuple(cells)

    return blocks()


def _write(path, parts: Sequence[Iterable[str]]) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="ascii", newline="") as handle:
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


def _vtk_geometry(mesh: RingMesh) -> tuple[str, ...]:
    cached = isinstance(mesh, RingMesh)  # other mesh-like objects are rendered each time
    text = _VTK_GEOMETRY.get(mesh) if cached else None
    if text is None:
        n_cells = mesh.n_triangles
        text = (
            f"POINTS {mesh.n_vertices} double\n",
            *_lines([*mesh.vertices.T, np.zeros(mesh.n_vertices, int)], sep=" "),
            f"CELLS {n_cells} {4 * n_cells}\n",
            *_lines([np.full(n_cells, 3), *mesh.triangles.T], sep=" "),
            f"CELL_TYPES {n_cells}\n",
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
    n_cells = mesh.n_triangles
    parts = [
        [f"# vtk DataFile Version 3.0\n{title}\nASCII\nDATASET UNSTRUCTURED_GRID\n"],
        _vtk_geometry(mesh),
    ]
    if cell_data:
        parts.append([f"CELL_DATA {n_cells}\n"])
    for name, values in (cell_data or {}).items():
        if not _VTK_NAME.match(name):
            raise ValueError(f"invalid VTK array name {name!r}")
        values = np.asarray(values)
        if values.shape != (n_cells,) or values.dtype.kind not in "fiu":
            raise ValueError(f"array {name!r} must hold one real value per triangle")
        parts.append([f"SCALARS {name} double 1\nLOOKUP_TABLE default\n"])
        parts.append(_lines([values.astype(float)]))
    return _write(path, parts)


def sha256_of(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


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
