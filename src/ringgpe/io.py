"""File output: CSV tables, legacy VTK snapshots, and run manifests.

Floats are written with 17 significant digits so a write/read round trip
reproduces the double exactly. VTK output uses the legacy ASCII format
(DataFile version 3.0, unstructured grid, cell data) because every viewer
still reads it. Writers return the path they wrote so callers can collect
the list for the manifest; the manifest records a sha256 per file (files
of measured wall-clock data by path alone), and no writer embeds
timestamps, keeping repeat runs and their manifests byte-identical.
"""

from __future__ import annotations

import csv
import hashlib
import json
import re
from pathlib import Path
from typing import Iterable, Mapping, Sequence

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


def format_float(x: float) -> str:
    """Shortest-ish decimal that reconstructs the double: 17 significant digits."""
    return "%.17g" % float(x)


def _format_cell(value) -> str:
    # bool first: it is an int subclass.
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format_float(value)
    if isinstance(value, str):
        return value
    raise TypeError(f"unsupported CSV cell type {type(value).__name__}")


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> Path:
    """Write a table; every row must match the header width."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    width = len(header)
    with open(path, "w", encoding="ascii", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            if len(row) != width:
                raise ValueError(f"row width {len(row)} != header width {width}")
            writer.writerow([_format_cell(v) for v in row])
    return path


def write_mesh_tables(out_dir, mesh: RingMesh) -> list[Path]:
    """vertices.csv, triangles.csv and edges.csv under out_dir."""
    out_dir = Path(out_dir)
    paths = [
        write_csv(
            out_dir / "vertices.csv",
            ["vertex", "x", "y"],
            ((i, v[0], v[1]) for i, v in enumerate(mesh.vertices)),
        ),
        write_csv(
            out_dir / "triangles.csv",
            ["triangle", "band", "slot", "kind", "v0", "v1", "v2",
             "center_x", "center_y", "area"],
            ((i, mesh.band[i], mesh.slot[i], mesh.kind[i],
              mesh.triangles[i, 0], mesh.triangles[i, 1], mesh.triangles[i, 2],
              mesh.centers[i, 0], mesh.centers[i, 1], mesh.areas[i])
             for i in range(mesh.n_triangles)),
        ),
        write_csv(
            out_dir / "edges.csv",
            ["edge", "v0", "v1", "triangle_K", "triangle_L", "length",
             "center_distance", "normal_x", "normal_y"],
            ((i, mesh.edge_vertices[i, 0], mesh.edge_vertices[i, 1],
              mesh.edge_K[i], mesh.edge_L[i], mesh.edge_length[i],
              mesh.edge_d[i], mesh.edge_normal[i, 0], mesh.edge_normal[i, 1])
             for i in range(mesh.edge_K.size)),
        ),
    ]
    return paths


def write_admissibility_table(path, report: AdmissibilityReport) -> Path:
    return write_csv(
        path,
        ["max_angle", "max_orthogonality_defect", "min_center_margin",
         "min_center_distance", "is_admissible"],
        [(report.max_angle, report.max_orthogonality_defect,
          report.min_center_margin, report.min_center_distance,
          report.is_admissible)],
    )


def write_field_table(path, u: Field) -> Path:
    v = u.values
    dens = np.abs(v) ** 2
    return write_csv(
        path,
        ["triangle", "re", "im", "density"],
        ((i, v[i].real, v[i].imag, dens[i]) for i in range(v.size)),
    )


def write_observables_table(path, times, mass, energy, err_reference=None) -> Path:
    times = np.asarray(times)
    header = ["t", "mass", "energy"]
    if err_reference is not None:
        header.append("err_reference")
        rows = zip(times, mass, energy, err_reference)
    else:
        rows = zip(times, mass, energy)
    return write_csv(path, header, rows)


def write_flow_history_table(path, energies, residuals) -> Path:
    return write_csv(
        path,
        ["iteration", "energy", "residual"],
        ((i, e, r) for i, (e, r) in enumerate(zip(energies, residuals))),
    )


def write_vortex_table(path, rows: Iterable[tuple[float, VortexRecord]]) -> Path:
    """One line per (time, record) pair, all methods mixed in one table."""
    return write_csv(
        path,
        ["t", "method", "triangle", "x", "y", "index",
         "characteristic_length", "extremum", "reliable"],
        ((t, r.method, r.triangle, r.position[0], r.position[1],
          r.index_or_sign, r.characteristic_length, r.extremum_value,
          r.reliable) for t, r in rows),
    )


def write_mode_table(path, coeffs, basis) -> Path:
    """Coefficient grid from decompose(): columns p, ell, re, im, power."""
    coeffs = np.asarray(coeffs)
    if coeffs.shape != (basis.P + 1, 2 * basis.L + 1):
        raise ValueError(f"coefficient grid {coeffs.shape} does not match basis")
    rows = []
    for p in range(basis.P + 1):
        for ell in range(-basis.L, basis.L + 1):
            c = coeffs[p, ell + basis.L]
            rows.append((p, ell, c.real, c.imag, abs(c) ** 2))
    return write_csv(path, ["p", "ell", "re", "im", "power"], rows)


def write_eigenvalue_table(path, basis) -> Path:
    rows = []
    for p in range(basis.P + 1):
        for ell in range(-basis.L, basis.L + 1):
            rows.append((p, ell, basis.eigenvalue(p, ell)))
    return write_csv(path, ["p", "ell", "eigenvalue"], rows)


def field_cell_data(u: Field) -> dict[str, np.ndarray]:
    """Cell arrays for a snapshot: real part, imaginary part, density."""
    v = u.values
    return {"re": v.real.copy(), "im": v.imag.copy(), "density": np.abs(v) ** 2}


def write_legacy_vtk(path, mesh: RingMesh, cell_data: Mapping[str, np.ndarray] | None = None,
                     title: str = "ringgpe output") -> Path:
    """Write the triangulation (plus per-triangle scalars) as legacy ASCII VTK."""
    if "\n" in title or len(title) > 255:
        raise ValueError("title must be a single line of at most 255 characters")
    n_cells = mesh.n_triangles
    arrays = dict(cell_data) if cell_data else {}
    for name, values in arrays.items():
        if not _VTK_NAME.match(name):
            raise ValueError(f"invalid VTK array name {name!r}")
        values = np.asarray(values)
        if values.shape != (n_cells,) or values.dtype.kind not in "fiu":
            raise ValueError(f"array {name!r} must hold one real value per triangle")
        arrays[name] = values.astype(float)

    lines = [
        "# vtk DataFile Version 3.0",
        title,
        "ASCII",
        "DATASET UNSTRUCTURED_GRID",
        f"POINTS {mesh.n_vertices} double",
    ]
    lines.extend(
        f"{format_float(x)} {format_float(y)} 0"
        for x, y in mesh.vertices
    )
    lines.append(f"CELLS {n_cells} {4 * n_cells}")
    lines.extend(f"3 {a} {b} {c}" for a, b, c in mesh.triangles)
    lines.append(f"CELL_TYPES {n_cells}")
    lines.extend("5" for _ in range(n_cells))
    if arrays:
        lines.append(f"CELL_DATA {n_cells}")
        for name, values in arrays.items():
            lines.append(f"SCALARS {name} double 1")
            lines.append("LOOKUP_TABLE default")
            lines.extend(format_float(v) for v in values)
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n", encoding="ascii")
    return path


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
