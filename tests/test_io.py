import hashlib
import json
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ringgpe import io as rio
from ringgpe.fv import Field
from ringgpe.mesh import AdmissibilityReport, MeshParams, build_ring_mesh, verify_admissibility
from ringgpe.spectral import ModeBasis, mode_basis
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
                             [[1, -3], [2.5, 1e-300], ["name", "x"], [True, False]])
        _, rows = read_csv(path)
        assert rows[0] == ["1", "2.5", "name", "true"]
        assert rows[1][3] == "false"
        assert float(rows[1][1]) == 1e-300

    def test_rejects_unsupported_cell(self, tmp_path):
        with pytest.raises(TypeError, match="complex"):
            rio.write_csv(tmp_path / "t.csv", ["a"], [[1 + 2j]])

    def test_rejects_ragged_row(self, tmp_path):
        with pytest.raises(ValueError, match="width"):
            rio.write_csv(tmp_path / "t.csv", ["a", "b"], [[1]])

    def test_creates_parent_directories(self, tmp_path):
        path = rio.write_csv(tmp_path / "deep" / "er" / "t.csv", ["a"], [[1]])
        assert path.exists()


# Hand-built inputs holding the values a formatter gets wrong most easily:
# -0.0, the smallest subnormal, huge, nan and infinite floats, negative and
# unsigned integers, booleans and text.
NASTY = np.array([-0.0, 5e-324, 1e300, np.nan, np.inf, -np.inf, 0.1, -2.5])
DIRECT_TABLE = (["i", "u", "x", "ok", "name"],
                [[-3, 7], np.array([0, 255], dtype=np.uint8), [-0.0, np.inf],
                 [True, False], ["a b", "z"]])


def hand_mesh():
    return SimpleNamespace(
        n_vertices=4, n_triangles=2, n_edges=3,
        vertices=NASTY.reshape(4, 2),
        triangles=np.array([[0, 1, 2], [0, 2, 3]]),
        band=np.array([0, 1]), slot=np.array([0, 3]), kind=np.array([0, 1]),
        centers=np.array([[1e300, -0.0], [np.nan, 5e-324]]),
        areas=np.array([np.inf, 0.5]),
        edge_vertices=np.array([[0, 1], [1, 2], [0, 2]]),
        edge_K=np.array([0, 0, 1]), edge_L=np.array([-1, 1, -1]),
        edge_length=NASTY[:3], edge_d=NASTY[3:6], edge_normal=NASTY[:6].reshape(3, 2),
    )


def write_every_table(out):
    """Every writer once on hand-built inputs; returns the files written."""
    mesh = hand_mesh()
    u = Field(mesh, np.array([1.0 + 2.0j, -0.0 - 3e-310j]))
    report = AdmissibilityReport(1.5, 5e-324, -0.0, np.nan, False)
    records = [
        (3.0, VortexRecord(12, (1.0, -0.0), 1, 2, METHOD_DENSITY, 5e-324)),
        (3.0, VortexRecord(40, (0.3, 1e300), 0, 1, METHOD_DENSITY, 0.02,
                           reliable=False)),
        (3.0, VortexRecord(7, (-1.0, 0.0), -1, 0, METHOD_PSEUDO_VORTICITY, -55.0)),
    ]
    basis = ModeBasis(mesh, P=1, L=1, n=2,
                      eigenvalues=np.array([[4.0, 1e300, 4.0], [-0.0, 5e-324, 7.5]]),
                      radial=np.zeros((2, 2, 1, 2)), theta0=np.zeros((1, 2)))
    # The last entry's power differs in the last digit between the scalar
    # abs(c) ** 2 and np.abs(c) ** 2.
    coeffs = np.array([[1 - 2j, -0.0 + 5e-324j, 3e-160j],
                       [np.nan, -2.5 + 1e10j, -0.0013210486329130189 - 0.005022445517110371j]])
    return [
        rio.write_csv(out / "direct.csv", *DIRECT_TABLE),
        *rio.write_mesh_tables(out, mesh),
        rio.write_admissibility_table(out / "admissibility.csv", report),
        rio.write_field_table(out / "field.csv", u),
        rio.write_observables_table(out / "obs_ref.csv", np.array([0.0, 0.5]),
                                    [1.0, np.nan], [-np.inf, 1e300], [5e-324, -0.0]),
        rio.write_observables_table(out / "obs.csv", [0.0], [1.0], [2.0]),
        rio.write_flow_history_table(out / "flow.csv", [2.0, -0.0], [np.inf, 1e-300]),
        rio.write_vortex_table(out / "vortices.csv", records),
        rio.write_vortex_table(out / "no_vortices.csv", []),
        rio.write_mode_table(out / "modes.csv", coeffs, basis),
        rio.write_eigenvalue_table(out / "eigenvalues.csv", basis),
        rio.write_legacy_vtk(out / "mesh.vtk", mesh),
        rio.write_legacy_vtk(out / "snap.vtk", mesh,
                             {"re": u.values.real, "flag": np.array([1, -2])}, title="snap"),
    ]


# Bytes the writers produced before they shared one column formatter.
PINNED_BYTES = {
    'direct.csv': (
        b'i,u,x,ok,name\n'
        b'-3,0,-0,true,a b\n'
        b'7,255,inf,false,z\n'
    ),
    'vertices.csv': (
        b'vertex,x,y\n'
        b'0,-0,4.9406564584124654e-324\n'
        b'1,1.0000000000000001e+300,nan\n'
        b'2,inf,-inf\n'
        b'3,0.10000000000000001,-2.5\n'
    ),
    'triangles.csv': (
        b'triangle,band,slot,kind,v0,v1,v2,center_x,center_y,area\n'
        b'0,0,0,0,0,1,2,1.0000000000000001e+300,-0,inf\n'
        b'1,1,3,1,0,2,3,nan,4.9406564584124654e-324,0.5\n'
    ),
    'edges.csv': (
        b'edge,v0,v1,triangle_K,triangle_L,length,center_distance,normal_x,normal_y\n'
        b'0,0,1,0,-1,-0,nan,-0,4.9406564584124654e-324\n'
        b'1,1,2,0,1,4.9406564584124654e-324,inf,1.0000000000000001e+300,nan\n'
        b'2,0,2,1,-1,1.0000000000000001e+300,-inf,inf,-inf\n'
    ),
    'admissibility.csv': (
        b'max_angle,max_orthogonality_defect,min_center_margin,min_center_distance,is_admissible\n'
        b'1.5,4.9406564584124654e-324,-0,nan,false\n'
    ),
    'field.csv': (
        b'triangle,re,im,density\n'
        b'0,1,2,5.0000000000000009\n'
        b'1,-0,-2.9999999999999908e-310,0\n'
    ),
    'obs_ref.csv': (
        b't,mass,energy,err_reference\n'
        b'0,1,-inf,4.9406564584124654e-324\n'
        b'0.5,nan,1.0000000000000001e+300,-0\n'
    ),
    'obs.csv': (
        b't,mass,energy\n'
        b'0,1,2\n'
    ),
    'flow.csv': (
        b'iteration,energy,residual\n'
        b'0,2,inf\n'
        b'1,-0,1e-300\n'
    ),
    'vortices.csv': (
        b't,method,triangle,x,y,index,characteristic_length,extremum,reliable\n'
        b'3,density,12,1,-0,1,2,4.9406564584124654e-324,true\n'
        b'3,density,40,0.29999999999999999,1.0000000000000001e+300,0,1,0.02,false\n'
        b'3,pseudo_vorticity,7,-1,0,-1,0,-55,true\n'
    ),
    'no_vortices.csv': (
        b't,method,triangle,x,y,index,characteristic_length,extremum,reliable\n'
    ),
    'modes.csv': (
        b'p,ell,re,im,power\n'
        b'0,-1,1,-2,5.0000000000000009\n'
        b'0,0,0,4.9406564584124654e-324,0\n'
        b'0,1,0,3e-160,8.999899804644147e-320\n'
        b'1,-1,nan,0,nan\n'
        b'1,0,-2.5,10000000000,1e+20\n'
        b'1,1,-0.0013210486329130189,-0.0050224455171103714,2.6970128462863422e-05\n'
    ),
    'eigenvalues.csv': (
        b'p,ell,eigenvalue\n'
        b'0,-1,4\n'
        b'0,0,1.0000000000000001e+300\n'
        b'0,1,4\n'
        b'1,-1,-0\n'
        b'1,0,4.9406564584124654e-324\n'
        b'1,1,7.5\n'
    ),
    'mesh.vtk': (
        b'# vtk DataFile Version 3.0\n'
        b'ringgpe output\n'
        b'ASCII\n'
        b'DATASET UNSTRUCTURED_GRID\n'
        b'POINTS 4 double\n'
        b'-0 4.9406564584124654e-324 0\n'
        b'1.0000000000000001e+300 nan 0\n'
        b'inf -inf 0\n'
        b'0.10000000000000001 -2.5 0\n'
        b'CELLS 2 8\n'
        b'3 0 1 2\n'
        b'3 0 2 3\n'
        b'CELL_TYPES 2\n'
        b'5\n'
        b'5\n'
    ),
    'snap.vtk': (
        b'# vtk DataFile Version 3.0\n'
        b'snap\n'
        b'ASCII\n'
        b'DATASET UNSTRUCTURED_GRID\n'
        b'POINTS 4 double\n'
        b'-0 4.9406564584124654e-324 0\n'
        b'1.0000000000000001e+300 nan 0\n'
        b'inf -inf 0\n'
        b'0.10000000000000001 -2.5 0\n'
        b'CELLS 2 8\n'
        b'3 0 1 2\n'
        b'3 0 2 3\n'
        b'CELL_TYPES 2\n'
        b'5\n'
        b'5\n'
        b'CELL_DATA 2\n'
        b'SCALARS re double 1\n'
        b'LOOKUP_TABLE default\n'
        b'1\n'
        b'-0\n'
        b'SCALARS flag double 1\n'
        b'LOOKUP_TABLE default\n'
        b'1\n'
        b'-2\n'
    ),
}

class TestExactBytes:
    def test_every_writer_pinned(self, tmp_path):
        written = write_every_table(tmp_path)
        assert {f.name: f.read_bytes() for f in written} == PINNED_BYTES

    @pytest.mark.parametrize("text", ["a,b", 'say "x"', "two\nlines", "cr\r"])
    def test_rejects_text_that_needs_quoting(self, tmp_path, text):
        with pytest.raises(ValueError, match="quote"):
            rio.write_csv(tmp_path / "t.csv", ["name"], [[text]])
        with pytest.raises(ValueError, match="quote"):
            rio.write_csv(tmp_path / "h.csv", [text], [[1]])

    def test_rows_span_blocks(self, tmp_path):
        n = 2 * rio._BLOCK_ROWS + 3
        x = np.random.default_rng(5).standard_normal(n)
        path = rio.write_csv(tmp_path / "t.csv", ["i", "x"], [np.arange(n), x])
        want = "i,x\n" + "".join(f"{i},{rio.format_float(v)}\n" for i, v in enumerate(x))
        assert path.read_text() == want

    def test_rejects_columns_of_unequal_length(self, tmp_path):
        with pytest.raises(ValueError, match="length"):
            rio.write_csv(tmp_path / "t.csv", ["a", "b"], [[1, 2], [1.0]])

    @pytest.mark.parametrize("where", ["cell", "header"])
    def test_refuses_non_ascii_before_opening(self, tmp_path, where):
        # The offending cell is in the last row, so a writer that checked
        # while writing would leave most of the table behind.
        n = 5000
        text = np.array(["plain"] * (n - 1) + ["caf\u00e9"])
        header = ["i", "name"] if where == "cell" else ["i", "na\u00efve"]
        if where == "header":
            text[-1] = "plain"
        path = tmp_path / "t.csv"
        with pytest.raises(ValueError, match="ASCII"):
            rio.write_csv(path, header, [np.arange(n), text])
        assert not path.exists()


def reference_csv(header, columns) -> bytes:
    """A table's bytes by the per-cell rule: '%d' for integers, '%.17g' for
    floats, '%s' for text, true/false for booleans."""
    columns = [np.asarray(c) for c in columns]
    rule = {"i": "%d", "u": "%d", "f": "%.17g", "U": "%s"}

    def cell(value, kind):
        return ("true" if value else "false") if kind == "b" else rule[kind] % value

    rows = zip(*[c.tolist() for c in columns])
    lines = [",".join(header)] + [
        ",".join(cell(v, c.dtype.kind) for v, c in zip(row, columns)) for row in rows]
    return ("\n".join(lines) + "\n").encode("ascii")


def expected_text(values) -> list[bytes]:
    return [rio.format_float(v).encode("ascii") for v in values]


def kernel_text(values) -> list[bytes]:
    """_float_text of the values, repeated up to the size the kernel takes."""
    x = np.asarray(values, dtype=np.float64)
    return rio._float_text(np.resize(x, max(x.size, rio._KERNEL_MIN_VALUES)))[:x.size]


class TestFloatKernel:
    """The vectorized float text against format_float, the '%.17g' reference."""

    def test_integer_zeros_and_a_power_of_ten_from_below(self):
        # 4000 keeps the zeros of its integer part and has no point; the
        # double 1e-07 lies below 10^-7, so its exponent is -8.
        assert kernel_text([4000.0, 1e-07]) == [b"4000", b"9.9999999999999995e-08"]

    def test_every_binary_exponent(self):
        # Zero, the smallest, a middle and the largest mantissa at each of
        # the 2048 exponents, both signs: zeros, subnormals, nan and inf too.
        mantissas = np.array([0, 1, 0x8000000000001, 2**52 - 1], dtype=np.uint64)
        exponents = np.arange(2048, dtype=np.uint64) << np.uint64(52)
        bits = (exponents[:, None] | mantissas).ravel()
        x = np.concatenate([bits, bits | np.uint64(1 << 63)]).view(np.float64)
        assert kernel_text(x) == expected_text(x)

    def test_powers_of_ten_and_their_neighbours(self):
        tens = np.array([float(f"1e{k}") for k in range(-323, 309)])
        x = np.concatenate([tens, np.nextafter(tens, 0.0), np.nextafter(tens, np.inf)])
        assert kernel_text(x) == expected_text(x)
        assert kernel_text(-x) == expected_text(-x)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=64))
    def test_random_bit_patterns(self, bits):
        x = np.array(bits, dtype=np.uint64).view(np.float64)
        assert kernel_text(x) == expected_text(x)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.booleans(), st.integers(1023 - 40, 1023 + 56),
                              st.integers(0, 2**52 - 1)), min_size=1, max_size=64))
    def test_random_values_near_the_exact_range(self, parts):
        # Sign, biased exponent and mantissa; the exponents cover
        # 1e-11 < |x| < 1e16 and a little on either side.
        bits = [(sign << 63) | (e << 52) | m for sign, e, m in parts]
        x = np.array(bits, dtype=np.uint64).view(np.float64)
        assert kernel_text(x) == expected_text(x)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(st.lists(st.tuples(st.integers(1, 10**6), st.integers(0, 16)), min_size=1,
                    max_size=32))
    def test_integer_values_ending_in_zeros(self, parts):
        x = np.array([float(a * 10**z) for a, z in parts])
        assert kernel_text(x) == expected_text(x)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(st.data())
    def test_round_half_even_ties(self, data):
        # t·2^(k-17) with t odd and 10^k <= x < 10^(k+1) puts x·10^(16-k)
        # exactly halfway between two integers: the 17th digit is a tie.
        k = data.draw(st.integers(-8, 15))
        low = int(np.ceil(10.0**k * 2.0 ** (17 - k)))
        high = min(int(10.0 ** (k + 1) * 2.0 ** (17 - k)), 2**53)
        t = data.draw(st.integers(low // 2, (high - 1) // 2)) * 2 + 1
        x = float(np.ldexp(float(t), k - 17))
        if not 10.0**k <= x < 10.0 ** (k + 1):
            return
        assert (Fraction(x) * 10 ** (16 - k)).denominator == 2
        assert kernel_text([x, -x]) == expected_text([x, -x])

    def test_tables_match_the_per_cell_rule(self, tmp_path):
        # Columns over several blocks: one taking the repeat path, one the
        # kernel, one mixing values outside the exact range, float32 and
        # integer-valued floats, next to integers, booleans and text.
        n = 2 * rio._BLOCK_ROWS + 3
        rng = np.random.default_rng(11)
        repeated = np.resize(rng.standard_normal(82), n)
        spread = rng.standard_normal(n) * 10.0 ** rng.integers(-14, 18, n)
        special = rng.choice(NASTY, n) * rng.choice([1.0, 1e-12, 1e8], n)
        single = rng.standard_normal(n).astype(np.float32)
        whole = np.round(rng.standard_normal(n) * 1e6) * 10.0 ** rng.integers(0, 6, n)
        assert rio._repeated_float_text(repeated) is not None
        assert rio._repeated_float_text(spread) is None
        header = ["i", "repeated", "spread", "special", "single", "whole", "ok", "name"]
        columns = [np.arange(n), repeated, spread, special, single, whole,
                   rng.random(n) < 0.5, np.resize(["a", "bc"], n)]
        path = rio.write_csv(tmp_path / "t.csv", header, columns)
        assert path.read_bytes() == reference_csv(header, columns)

    def test_desk_tables_match_the_per_cell_rule(self, desk_mesh, desk_ground_state,
                                                 tmp_path, monkeypatch):
        tables = []
        write_csv = rio.write_csv

        def recording(path, header, columns):
            tables.append((write_csv(path, header, columns), header, columns))
            return tables[-1][0]

        monkeypatch.setattr(rio, "write_csv", recording)
        rio.write_mesh_tables(tmp_path, desk_mesh)
        rio.write_field_table(tmp_path / "ground_state.csv", desk_ground_state.field)
        assert len(tables) == 4
        for path, header, columns in tables:
            assert path.read_bytes() == reference_csv(header, columns), path.name

    def test_desk_vtk_matches_the_per_value_rule(self, desk_mesh, desk_ground_state, tmp_path):
        # band and kind repeat; so does the slot-invariant ground state.
        mesh = desk_mesh
        data = {"band": mesh.band, "kind": mesh.kind, "area": mesh.areas,
                **rio.field_cell_data(desk_ground_state.field)}
        path = rio.write_legacy_vtk(tmp_path / "m.vtk", mesh, data, title="desk")
        n = mesh.n_triangles
        want = ["# vtk DataFile Version 3.0", "desk", "ASCII", "DATASET UNSTRUCTURED_GRID",
                f"POINTS {mesh.n_vertices} double"]
        want += [f"{rio.format_float(x)} {rio.format_float(y)} 0" for x, y in mesh.vertices]
        want += [f"CELLS {n} {4 * n}"] + [f"3 {a} {b} {c}" for a, b, c in mesh.triangles]
        want += [f"CELL_TYPES {n}"] + ["5"] * n + [f"CELL_DATA {n}"]
        for name, values in data.items():
            want += [f"SCALARS {name} double 1", "LOOKUP_TABLE default"]
            want += [rio.format_float(v) for v in values]
        assert path.read_text(encoding="ascii") == "\n".join(want) + "\n"


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

    def test_geometry_rendered_once_per_mesh(self, cfield, tmp_path, monkeypatch):
        # A second file of one mesh formats only its cell data, and gives
        # the bytes of a fresh rendering (a stand-in mesh is never cached).
        mesh = build_ring_mesh(MeshParams(r_min=0.6, r_max=1.4, h=0.2))
        data = rio.field_cell_data(Field(mesh, cfield.values))
        stand_in = SimpleNamespace(n_vertices=mesh.n_vertices, n_triangles=mesh.n_triangles,
                                   vertices=mesh.vertices, triangles=mesh.triangles)
        fresh = rio.write_legacy_vtk(tmp_path / "fresh.vtk", stand_in, data,
                                     title="snap").read_bytes()
        calls = []
        lines = rio._lines

        def counting(*args, **kwargs):
            calls.append(len(args[0]))
            return lines(*args, **kwargs)

        monkeypatch.setattr(rio, "_lines", counting)
        for name in ("first.vtk", "second.vtk"):
            path = rio.write_legacy_vtk(tmp_path / name, mesh, data, title="snap")
            assert path.read_bytes() == fresh
        # Geometry: points (x, y, 0), cells (3, v0, v1, v2), types; then one
        # column per cell array in each file.
        assert calls == [3, 4, 1, 1, 1, 1] + [1, 1, 1]

    def test_mesh_only_has_no_cell_data(self, mesh, tmp_path):
        path = rio.write_legacy_vtk(tmp_path / "m.vtk", mesh)
        assert "CELL_DATA" not in path.read_text()

    def test_rejects_bad_array_name(self, mesh, cfield, tmp_path):
        # A trailing newline would end the SCALARS line early.
        for name in ("has space", "re\n"):
            with pytest.raises(ValueError, match="name"):
                rio.write_legacy_vtk(tmp_path / "s.vtk", mesh,
                                     {name: cfield.values.real})

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

    def test_refuses_non_ascii_title_before_opening(self, mesh, tmp_path):
        path = tmp_path / "s.vtk"
        with pytest.raises(ValueError, match="ASCII"):
            rio.write_legacy_vtk(path, mesh, title="\u00e9tat initial")
        assert not path.exists()


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

    def test_hash_of_file_over_one_chunk(self, tmp_path):
        # sha256_of reads in chunks; a file of two and a half chunks hashes
        # as its whole bytes do.
        path = tmp_path / "big.bin"
        path.write_bytes(np.random.default_rng(5).bytes(5 * rio._HASH_CHUNK // 2))
        doc = json.loads(rio.write_manifest(tmp_path, [path], "").read_text())
        assert doc["files"][0]["sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()

    def test_paths_sorted_and_deduplicated(self, mesh, tmp_path):
        a = rio.write_csv(tmp_path / "b.csv", ["x"], [[1]])
        b = rio.write_csv(tmp_path / "a.csv", ["x"], [[1]])
        doc = json.loads(rio.write_manifest(tmp_path, [a, b, a], "").read_text())
        assert [e["path"] for e in doc["files"]] == ["a.csv", "b.csv"]

    def test_unhashed_files_listed_by_path_only(self, tmp_path):
        a = rio.write_csv(tmp_path / "a.csv", ["x"], [[1]])
        t = rio.write_csv(tmp_path / "t.csv", ["s"], [[0.5]])
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
