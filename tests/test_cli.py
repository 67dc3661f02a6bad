import json
import os
import subprocess
import sys

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


@pytest.fixture()
def tiny_path(tmp_path):
    path = tmp_path / "run.ini"
    path.write_text(TINY)
    return str(path)


class TestParser:
    def test_preset_choices_match_config(self):
        assert cli.PRESETS == PRESET_NAMES

    def test_importing_cli_does_not_load_numpy(self):
        code = "import sys, ringgpe.cli; sys.exit('numpy' in sys.modules)"
        # The child must import the package under test, which pytest may
        # have put on sys.path rather than on PYTHONPATH.
        src = os.path.dirname(os.path.dirname(cli.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", code],
                              env={**os.environ, "PYTHONPATH": path})
        assert proc.returncode == 0

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
