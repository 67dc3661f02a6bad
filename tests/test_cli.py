import json
import os
import subprocess
import sys
import warnings

import pytest

from ringgpe import cli, harness
from ringgpe.config import PRESET_NAMES
from ringgpe.errors import NumericalError

TINY = """
[mesh]
r_min = 0.6
r_max = 1.4
h = 0.2

[split]
tau = 0.005
t_max = 0.05

[modes]
p_max = 1
l_max = 3
n = 80

[harness]
space_h = 0.2, 0.14, 0.1
time_k_min = 3
time_k_max = 4
time_t_max = 0.04

[output]
vtk = false
"""


def run_child(code: str, *args: str) -> int:
    """Exit code of a fresh interpreter running code with args."""
    # The child must import the package under test, which pytest may have
    # put on sys.path rather than on PYTHONPATH.
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code, *args],
                          env={**os.environ, "PYTHONPATH": path}).returncode


@pytest.fixture()
def tiny_path(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(TINY)
    return str(path)


class TestParser:
    def test_preset_choices_match_config(self):
        assert cli.PRESETS == PRESET_NAMES

    def test_importing_cli_does_not_load_numpy(self):
        assert run_child("import sys, ringgpe.cli; sys.exit('numpy' in sys.modules)") == 0

    def test_pipeline_does_not_load_scipy_optimize(self, tiny_path, tmp_path):
        # Only conv-space's annulus eigenpairs use scipy.optimize (brentq),
        # which costs every other run ~12 MB and ~0.1 s to load.
        code = ("import sys, ringgpe.cli, ringgpe.harness\n"
                "assert ringgpe.cli.main(['pipeline', '--config', sys.argv[1],"
                " '--out', sys.argv[2]]) == 0\n"
                "sys.exit('scipy.optimize' in sys.modules)\n")
        assert run_child(code, tiny_path, str(tmp_path / "o")) == 0

    def test_all_subcommands_present(self):
        parser = cli.build_parser()
        text = parser.format_help()
        for name in ("mesh", "ground-state", "evolve", "vortices", "modes",
                     "conv-space", "conv-time", "pipeline"):
            assert name in text

    def test_unknown_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["frobnicate"])
        assert excinfo.value.code == 2


class TestConfigErrors:
    def test_requires_exactly_one_source(self, tiny_path, capsys):
        assert cli.main(["mesh"]) == 2
        assert cli.main(["mesh", "--config", tiny_path,
                         "--preset", "paper62"]) == 2
        assert "exactly one" in capsys.readouterr().err

    def test_missing_file(self, tmp_path, capsys):
        assert cli.main(["mesh", "--config", str(tmp_path / "nope.ini")]) == 2
        assert "cannot read config" in capsys.readouterr().err

    def test_invalid_config_reports_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.ini"
        bad.write_text("[mesh]\nr_min = 0.6\nr_max = 1.4\nh = 0.1\n"
                       "[physics]\nV_p = 1.5\n")
        assert cli.main(["pipeline", "--config", str(bad)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "line 6" in err

    def test_obtuse_mesh_is_a_config_error(self, tmp_path, capsys):
        bad = tmp_path / "obtuse.ini"
        bad.write_text("[mesh]\nr_min = 0.6\nr_max = 1.4\nh = 0.06\nn_points = 40\n")
        assert cli.main(["mesh", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "max angle 2.418662" in err
        assert not (tmp_path / "o").exists()

    def test_tiny_h_is_refused_before_the_mesh_is_built(self, tmp_path, capsys):
        bad = tmp_path / "tiny_h.ini"
        bad.write_text("[mesh]\nr_min = 0.6\nr_max = 1.4\nh = 1e-9\n")
        assert cli.main(["mesh", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "triangles exceeds the limit of 10000000" in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("entry,fragment", [
        ("1e-3", "mesh of 19880718 triangles exceeds the limit of 10000000"),
        ("1.0", "mesh counts too small"),
        ("5e-324", "gives no finite mesh counts"),
    ])
    def test_bad_space_h_is_refused_before_any_mesh(self, tmp_path, capsys, entry, fragment):
        bad = tmp_path / "space_h.ini"
        bad.write_text("[mesh]\nr_min = 0.6\nr_max = 1.4\nh = 0.2\n"
                       f"[harness]\nspace_h = 0.2, 0.1, {entry}\n")
        out = tmp_path / "o"
        assert cli.main(["conv-space", "--config", str(bad), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error" in err and "line 5: [harness]: space_h entry" in err
        assert fragment in err
        assert not out.exists()

    def test_modes_pair_is_refused_at_parse_time(self, tmp_path, capsys):
        bad = tmp_path / "modes.ini"
        bad.write_text(TINY.replace("n = 80", "n = 3").replace("p_max = 1", "p_max = 5"))
        out = tmp_path / "o"
        assert cli.main(["modes", "--config", str(bad), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config error: line 11: [modes]: p_max = 5 needs n >= p_max + 2 = 7, got n = 3" in err
        assert not out.exists()

    @pytest.mark.parametrize("physics,n,fragment", [
        ("", 9000, "n = 9000: radial eigenpair p=1, ell=0 residual"),
        ("m = 1e-6", 80, "n = 80: radial eigenpair p=0, ell=0 residual"),
    ], ids=["fine", "light"])
    def test_modes_contract_is_checked_before_the_evolve(self, tmp_path, capsys, monkeypatch,
                                                         physics, n, fragment):
        # The radial eigenpairs miss their residual contract. Only modes
        # reads them, so the config parses and mesh runs; modes refuses it
        # before it writes anything or starts the evolve.
        path = tmp_path / "modes.ini"
        path.write_text(TINY.replace("[modes]", f"[physics]\n{physics}\n[modes]")
                        .replace("n = 80", f"n = {n}"))
        assert cli.main(["mesh", "--config", str(path), "--out", str(tmp_path / "m")]) == 0
        capsys.readouterr()

        def no_evolve(*args, **kwargs):
            raise AssertionError("the evolve ran")

        monkeypatch.setattr(harness, "evolve", no_evolve)
        out = tmp_path / "o"
        assert cli.main(["modes", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"config error: [modes]: {fragment}" in err
        assert "above contract" in err
        assert not out.exists()

    @pytest.mark.parametrize("ring,fragment", [
        ("r_min = 1.0\nr_max = 1.08\nh = 0.02", "space_h entry 0.1: mesh counts too small"),
        ("r_min = 0.1\nr_max = 30.0\nh = 1.0",
         "space_h entry 0.025: mesh of 25484570 triangles exceeds the limit"),
    ], ids=["thin", "wide"])
    def test_default_space_h_is_checked_where_conv_space_reads_it(self, tmp_path, capsys,
                                                                  ring, fragment):
        # A ring that the default space_h entries do not fit runs every
        # command but conv-space, which refuses it before building any mesh.
        path = tmp_path / "ring.ini"
        path.write_text(f"[mesh]\n{ring}\n[output]\nvtk = false\n")
        assert cli.main(["mesh", "--config", str(path), "--out", str(tmp_path / "m")]) == 0
        capsys.readouterr()
        out = tmp_path / "o"
        assert cli.main(["conv-space", "--config", str(path), "--out", str(out)]) == 2
        assert f"config error: [harness]: {fragment}" in capsys.readouterr().err
        assert not out.exists()

    def test_threads_must_be_positive(self, tiny_path):
        assert cli.main(["mesh", "--config", tiny_path, "--threads", "0"]) == 2

    def test_threads_sets_environment(self, tiny_path, tmp_path, monkeypatch):
        for name in cli._THREAD_VARS:
            monkeypatch.setenv(name, "sentinel")
        assert cli.main(["mesh", "--config", tiny_path,
                         "--out", str(tmp_path / "o"), "--threads", "3"]) == 0
        for name in cli._THREAD_VARS:
            assert os.environ[name] == "3"


    def test_threads_sets_fft_workers_for_the_run(self, tiny_path, tmp_path, monkeypatch):
        import scipy.fft

        default = scipy.fft.get_workers()
        seen = []
        run_pipeline = harness.run_pipeline

        def recording(*args, **kwargs):
            seen.append(scipy.fft.get_workers())
            return run_pipeline(*args, **kwargs)

        monkeypatch.setattr(harness, "run_pipeline", recording)
        out = str(tmp_path / "o")
        assert cli.main(["mesh", "--config", tiny_path, "--out", out, "--threads", "2"]) == 0
        assert cli.main(["mesh", "--config", tiny_path, "--out", out]) == 0
        assert seen == [2, default]
        assert scipy.fft.get_workers() == default


class TestOutputErrors:
    def test_out_path_is_a_file(self, tiny_path, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("not a directory\n")
        assert cli.main(["mesh", "--config", tiny_path, "--out", str(taken)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("ringgpe: cannot write output: ") and "Traceback" not in err
        assert taken.read_text() == "not a directory\n"


class TestNumericalFailure:
    def test_maps_to_exit_3(self, tiny_path, tmp_path, capsys, monkeypatch):
        def explode(*args, **kwargs):
            raise NumericalError("stage 'evolve' failed: non-finite state")

        monkeypatch.setattr(harness, "run_pipeline", explode)
        assert cli.main(["evolve", "--config", tiny_path,
                         "--out", str(tmp_path)]) == 3
        assert "numerical failure" in capsys.readouterr().err

    @pytest.mark.parametrize("runtime_warnings", ["error", "ignore"])
    @pytest.mark.parametrize("physics", ["m = 1e-300", "gamma = 1e300", "V0 = 1e300"])
    def test_flow_beyond_double_range_exits_3(self, tmp_path, capsys, physics,
                                              runtime_warnings):
        # The constant field's residual overflows. The flow refuses it the
        # same way whether or not RuntimeWarnings are errors.
        path = tmp_path / "huge.ini"
        path.write_text(TINY.replace("[split]", f"[physics]\n{physics}\n[split]"))
        with warnings.catch_warnings():
            warnings.simplefilter(runtime_warnings, RuntimeWarning)
            assert cli.main(["ground-state", "--config", str(path),
                             "--out", str(tmp_path / "o")]) == 3
        err = capsys.readouterr().err
        assert "numerical failure: stage 'ground-state' failed: gradient flow cannot start" in err
        assert "[physics] m, gamma or V0 puts a term beyond double range" in err


class TestCommands:
    def test_mesh_writes_tables(self, tiny_path, tmp_path, capsys):
        out = tmp_path / "mesh_run"
        assert cli.main(["mesh", "--config", tiny_path, "--out", str(out)]) == 0
        names = {p.name for p in out.iterdir()}
        assert {"vertices.csv", "triangles.csv", "edges.csv",
                "admissibility.csv", "manifest.json"} <= names
        assert "wrote" in capsys.readouterr().out

    def test_out_flag_overrides_config_dir(self, tiny_path, tmp_path):
        out = tmp_path / "elsewhere"
        assert cli.main(["mesh", "--config", tiny_path, "--out", str(out)]) == 0
        assert (out / "manifest.json").exists()

    def test_ground_state_summary(self, tiny_path, tmp_path, capsys):
        assert cli.main(["ground-state", "--config", tiny_path,
                         "--out", str(tmp_path / "gs")]) == 0
        lines = capsys.readouterr().out
        assert "ground state: energy" in lines
        assert (tmp_path / "gs" / "ground_state.csv").exists()

    def test_vortices_runs_all_detectors(self, tiny_path, tmp_path, capsys):
        out = tmp_path / "vort"
        assert cli.main(["vortices", "--config", tiny_path,
                         "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        for method in ("density", "reg_vorticity", "pseudo_vorticity"):
            assert method in stdout
        assert (out / "vortices.csv").exists()
        assert (out / "detector_timings.csv").exists()

    def test_modes_writes_coefficients(self, tiny_path, tmp_path):
        out = tmp_path / "modes"
        assert cli.main(["modes", "--config", tiny_path, "--out", str(out)]) == 0
        names = {p.name for p in out.iterdir()}
        assert {"modes_initial.csv", "modes_final.csv",
                "mode_eigenvalues.csv"} <= names
        assert "vortices.csv" not in names

    def test_evolve_summary_names_the_sector(self, tiny_path, tmp_path, capsys):
        # The tiny config has no stirrer, and the ground state keeps every
        # rotation of its N_p = 63 slots, so the run steps one of them.
        assert cli.main(["evolve", "--config", tiny_path,
                         "--out", str(tmp_path / "ev")]) == 0
        assert "(sector k=63, 1 of 63 slots)" in capsys.readouterr().out

    def test_evolve_summary_names_an_antiperiodic_sector(self, tmp_path, capsys):
        # On N_p = 64 slots the unstable state changes sign under the
        # half-turn, so the run steps half of the ring at sign -1.
        path = tmp_path / "unstable.ini"
        path.write_text(TINY.replace("\nh = 0.2\n", "\nh = 0.2\nn_points = 64\n")
                        .replace("t_max = 0.05", "t_max = 0.05\ninitial = unstable"))
        assert cli.main(["evolve", "--config", str(path), "--out", str(tmp_path / "ev")]) == 0
        assert "(sector k=2, antiperiodic, 32 of 64 slots)" in capsys.readouterr().out

    def test_conv_space(self, tiny_path, tmp_path, capsys):
        out = tmp_path / "space"
        assert cli.main(["conv-space", "--config", tiny_path,
                         "--out", str(out)]) == 0
        assert "slope" in capsys.readouterr().out
        assert (out / "space_convergence.csv").exists()

    def test_conv_time(self, tiny_path, tmp_path, capsys):
        out = tmp_path / "time"
        assert cli.main(["conv-time", "--config", tiny_path,
                         "--out", str(out)]) == 0
        assert "m_phi" in capsys.readouterr().out
        assert (out / "time_convergence.csv").exists()

    def test_pipeline_manifest_complete(self, tiny_path, tmp_path):
        out = tmp_path / "pipe"
        assert cli.main(["pipeline", "--config", tiny_path,
                         "--out", str(out)]) == 0
        doc = json.loads((out / "manifest.json").read_text())
        listed = {e["path"] for e in doc["files"]}
        assert listed == {p.name for p in out.iterdir()} - {"manifest.json"}
