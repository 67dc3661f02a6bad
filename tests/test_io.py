import json

import numpy as np
import pytest

from ringgpe import io as rio
from ringgpe.fv import Field
from ringgpe.mesh import MeshParams, build_ring_mesh, verify_admissibility
from ringgpe.spectral import mode_basis
from ringgpe.vortex import METHOD_DENSITY, METHOD_PSEUDO_VORTICITY, VortexRecord


@pytest.fixture(scope="module")
def mesh():
    return build_ring_mesh(MeshParams(r_min=0.6, r_max=1.4, h=0.2))


@pytest.fixture(scope="module")
def cfield(mesh):
    rng = np.random.default_rng(7)
    values = rng.standard_normal(mesh.n_triangles) * np.exp(
        2j * np.pi * rng.random(mesh.n_triangles))
    return Field(mesh, values)


def read_csv(path):
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    return header, [line.split(",") for line in lines[1:]]


class TestFormatting:
    def test_float_round_trip_exact(self):
        rng = np.random.default_rng(0)
        exponents = rng.integers(-300, 300, size=500)
        values = rng.standard_normal(500) * 10.0 ** exponents
        for x in values:
            assert float(rio.format_float(x)) == x
        assert float(rio.format_float(0.1)) == 0.1
        assert float(rio.format_float(-0.0)) == 0.0

    def test_cell_types(self, tmp_path):
        path = rio.write_csv(tmp_path / "t.csv", ["a", "b", "c", "d"],
                             [(1, 2.5, "name", True), (-3, 1e-300, "x", False)])
        _, rows = read_csv(path)
        assert rows[0] == ["1", "2.5", "name", "true"]
        assert rows[1][3] == "false"
        assert float(rows[1][1]) == 1e-300

    def test_rejects_unsupported_cell(self, tmp_path):
        with pytest.raises(TypeError, match="complex"):
            rio.write_csv(tmp_path / "t.csv", ["a"], [(1 + 2j,)])

    def test_rejects_ragged_row(self, tmp_path):
        with pytest.raises(ValueError, match="width"):
            rio.write_csv(tmp_path / "t.csv", ["a", "b"], [(1,)])

    def test_creates_parent_directories(self, tmp_path):
        path = rio.write_csv(tmp_path / "deep" / "er" / "t.csv", ["a"], [(1,)])
        assert path.exists()


class TestTables:
    def test_mesh_tables_row_counts(self, mesh, tmp_path):
        vertices, triangles, edges = rio.write_mesh_tables(tmp_path, mesh)
        assert len(read_csv(vertices)[1]) == mesh.n_vertices
        assert len(read_csv(triangles)[1]) == mesh.n_triangles
        assert len(read_csv(edges)[1]) == mesh.edge_K.size

    def test_mesh_tables_exact_coordinates(self, mesh, tmp_path):
        vertices, triangles, _ = rio.write_mesh_tables(tmp_path, mesh)
        _, rows = read_csv(vertices)
        k = 17
        assert float(rows[k][1]) == mesh.vertices[k, 0]
        assert float(rows[k][2]) == mesh.vertices[k, 1]
        header, trows = read_csv(triangles)
        assert header[:4] == ["triangle", "band", "slot", "kind"]
        assert float(trows[k][9]) == mesh.areas[k]

    def test_admissibility_table(self, mesh, tmp_path):
        report = verify_admissibility(mesh)
        path = rio.write_admissibility_table(tmp_path / "a.csv", report)
        header, rows = read_csv(path)
        assert rows[0][header.index("is_admissible")] == "true"
        assert float(rows[0][0]) == report.max_angle

    def test_field_table_round_trip(self, mesh, cfield, tmp_path):
        path = rio.write_field_table(tmp_path / "f.csv", cfield)
        _, rows = read_csv(path)
        re = np.array([float(r[1]) for r in rows])
        im = np.array([float(r[2]) for r in rows])
        assert np.array_equal(re + 1j * im, cfield.values)
        assert float(rows[3][3]) == abs(cfield.values[3]) ** 2

    def test_observables_with_and_without_reference(self, tmp_path):
        t = np.array([0.0, 0.5])
        with_ref = rio.write_observables_table(
            tmp_path / "o1.csv", t, [1.0, 1.0], [2.0, 2.0], [0.0, 1e-5])
        without = rio.write_observables_table(
            tmp_path / "o2.csv", t, [1.0, 1.0], [2.0, 2.0])
        assert read_csv(with_ref)[0] == ["t", "mass", "energy", "err_reference"]
        assert read_csv(without)[0] == ["t", "mass", "energy"]
        assert len(read_csv(without)[1]) == 2

    def test_vortex_table(self, tmp_path):
        records = [
            (3.0, VortexRecord(12, (1.0, -0.5), 1, 2, METHOD_DENSITY, 0.01)),
            (3.0, VortexRecord(40, (0.3, 0.9), 0, 1, METHOD_DENSITY, 0.02,
                               reliable=False)),
            (3.0, VortexRecord(7, (-1.0, 0.0), -1, 0, METHOD_PSEUDO_VORTICITY,
                               -55.0)),
        ]
        path = rio.write_vortex_table(tmp_path / "v.csv", records)
        header, rows = read_csv(path)
        assert header == ["t", "method", "triangle", "x", "y", "index",
                          "characteristic_length", "extremum", "reliable"]
        assert rows[0][1] == METHOD_DENSITY and rows[0][5] == "1"
        assert rows[1][8] == "false"
        assert rows[2][1] == METHOD_PSEUDO_VORTICITY and rows[2][5] == "-1"


@pytest.fixture(scope="module")
def basis(mesh):
    return mode_basis(mesh, P=0, L=1, n=60, m=10.0, V0=100.0)


class TestModeTables:
    def test_mode_table_covers_grid(self, basis, tmp_path):
        coeffs = np.arange(3, dtype=complex).reshape(1, 3) * (1 + 2j)
        path = rio.write_mode_table(tmp_path / "m.csv", coeffs, basis)
        header, rows = read_csv(path)
        assert header == ["p", "ell", "re", "im", "power"]
        assert [r[1] for r in rows] == ["-1", "0", "1"]
        assert float(rows[2][4]) == abs(coeffs[0, 2]) ** 2

    def test_mode_table_shape_mismatch(self, basis, tmp_path):
        with pytest.raises(ValueError, match="does not match"):
            rio.write_mode_table(tmp_path / "m.csv", np.zeros((2, 3)), basis)

    def test_eigenvalue_table(self, basis, tmp_path):
        path = rio.write_eigenvalue_table(tmp_path / "e.csv", basis)
        _, rows = read_csv(path)
        assert len(rows) == 3
        # eigenvalues are even in ell
        assert float(rows[0][2]) == float(rows[2][2])


class TestVtk:
    def test_structure(self, mesh, cfield, tmp_path):
        path = rio.write_legacy_vtk(tmp_path / "s.vtk", mesh,
                                    rio.field_cell_data(cfield), title="snap")
        lines = path.read_text().splitlines()
        assert lines[0] == "# vtk DataFile Version 3.0"
        assert lines[1] == "snap"
        assert lines[2] == "ASCII"
        assert lines[3] == "DATASET UNSTRUCTURED_GRID"
        assert lines[4] == f"POINTS {mesh.n_vertices} double"
        first_point = lines[5].split()
        assert float(first_point[0]) == mesh.vertices[0, 0]
        assert first_point[2] == "0"
        cells_at = 5 + mesh.n_vertices
        n = mesh.n_triangles
        assert lines[cells_at] == f"CELLS {n} {4 * n}"
        assert lines[cells_at + 1].split() == ["3"] + [
            str(v) for v in mesh.triangles[0]]
        types_at = cells_at + 1 + n
        assert lines[types_at] == f"CELL_TYPES {n}"
        assert all(line == "5" for line in lines[types_at + 1:types_at + 1 + n])
        data_at = types_at + 1 + n
        assert lines[data_at] == f"CELL_DATA {n}"
        assert lines[data_at + 1] == "SCALARS re double 1"
        assert lines[data_at + 2] == "LOOKUP_TABLE default"
        values = np.array([float(v) for v in lines[data_at + 3:data_at + 3 + n]])
        assert np.array_equal(values, cfield.values.real)

    def test_mesh_only_has_no_cell_data(self, mesh, tmp_path):
        path = rio.write_legacy_vtk(tmp_path / "m.vtk", mesh)
        assert "CELL_DATA" not in path.read_text()

    def test_rejects_bad_array_name(self, mesh, cfield, tmp_path):
        with pytest.raises(ValueError, match="name"):
            rio.write_legacy_vtk(tmp_path / "s.vtk", mesh,
                                 {"has space": cfield.values.real})

    def test_rejects_wrong_length(self, mesh, tmp_path):
        with pytest.raises(ValueError, match="per triangle"):
            rio.write_legacy_vtk(tmp_path / "s.vtk", mesh,
                                 {"short": np.zeros(3)})

    def test_rejects_complex_array(self, mesh, cfield, tmp_path):
        with pytest.raises(ValueError, match="real"):
            rio.write_legacy_vtk(tmp_path / "s.vtk", mesh,
                                 {"raw": cfield.values})

    def test_rejects_multiline_title(self, mesh, tmp_path):
        with pytest.raises(ValueError, match="single line"):
            rio.write_legacy_vtk(tmp_path / "s.vtk", mesh, title="a\nb")


class TestManifest:
    def test_lists_every_file_with_correct_hash(self, mesh, cfield, tmp_path):
        files = rio.write_mesh_tables(tmp_path, mesh)
        files.append(rio.write_field_table(tmp_path / "f.csv", cfield))
        manifest = rio.write_manifest(tmp_path, files, "cfg-text")
        doc = json.loads(manifest.read_text())
        assert doc["config"] == "cfg-text"
        listed = {e["path"] for e in doc["files"]}
        assert listed == {f.name for f in files}
        for entry in doc["files"]:
            target = tmp_path / entry["path"]
            assert rio.sha256_of(target) == entry["sha256"]
            assert target.stat().st_size == entry["bytes"]

    def test_paths_sorted_and_deduplicated(self, mesh, tmp_path):
        a = rio.write_csv(tmp_path / "b.csv", ["x"], [(1,)])
        b = rio.write_csv(tmp_path / "a.csv", ["x"], [(1,)])
        doc = json.loads(rio.write_manifest(tmp_path, [a, b, a], "").read_text())
        assert [e["path"] for e in doc["files"]] == ["a.csv", "b.csv"]

    def test_unhashed_files_listed_by_path_only(self, tmp_path):
        a = rio.write_csv(tmp_path / "a.csv", ["x"], [(1,)])
        t = rio.write_csv(tmp_path / "t.csv", ["s"], [(0.5,)])
        doc = json.loads(rio.write_manifest(tmp_path, [t, a], "", unhashed=[t]).read_text())
        assert [set(e) for e in doc["files"]] == [{"path", "sha256", "bytes"}, {"path"}]
        assert doc["files"][1]["path"] == "t.csv"

    def test_repeat_runs_are_byte_identical(self, mesh, cfield, tmp_path):
        d1, d2 = tmp_path / "one", tmp_path / "two"
        for d in (d1, d2):
            files = rio.write_mesh_tables(d, mesh)
            files.append(rio.write_field_table(d / "f.csv", cfield))
            files.append(rio.write_legacy_vtk(d / "s.vtk", mesh,
                                              rio.field_cell_data(cfield)))
            rio.write_manifest(d, files, "same")
        assert (d1 / "manifest.json").read_bytes() == (d2 / "manifest.json").read_bytes()
