import functools
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ringgpe
from ringgpe.cli import _THREAD_VARS
from ringgpe.config import parse_config
from ringgpe.dynamics import evolve
from ringgpe.errors import ConfigError, NumericalError
from ringgpe.fv import assemble_laplacian
from ringgpe import harness
from ringgpe.harness import (
    PIPELINE_STAGES,
    run_pipeline,
    run_space_convergence,
    run_time_convergence,
)
from ringgpe.io import sha256_of
from ringgpe.mesh import RingMesh

TINY = """
[mesh]
r_min = 0.6
r_max = 1.4
h = 0.2

[physics]
V_p = 0.05
n_theta = 6
omega = 10.471975511965978

[split]
tau = 0.005
t_max = 0.05
snapshot_stride = 5

[modes]
p_max = 1
l_max = 3
n = 80

[harness]
space_h = 0.2, 0.14, 0.1
space_beta_max = 3
time_k_min = 3
time_k_max = 4
time_t_max = 0.04
"""


def thread_env(threads: int) -> dict:
    """The environment of a child process that runs the package with
    `threads` BLAS and OpenMP threads, whatever this process was given."""
    src = str(Path(ringgpe.__file__).resolve().parent.parent)
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    return {**os.environ, "PYTHONPATH": path, **{name: str(threads) for name in _THREAD_VARS}}


@pytest.fixture(scope="module")
def tiny_cfg():
    return parse_config(TINY)


@pytest.fixture(scope="module")
def pipeline(tiny_cfg, tmp_path_factory):
    out = tmp_path_factory.mktemp("pipe")
    return run_pipeline(tiny_cfg, out), out


class TestPipeline:
    def test_all_stages_run_by_default(self, pipeline):
        result, _ = pipeline
        assert result.stages == PIPELINE_STAGES
        assert result.mesh is not None and result.admissibility.is_admissible
        assert result.ground_state.converged
        assert result.evolution is not None
        assert set(result.vortices) == {"density", "reg_vorticity",
                                        "pseudo_vorticity"}
        assert result.coeffs_initial.shape == (2, 7)
        assert result.coeffs_final.shape == (2, 7)

    def test_expected_files_on_disk(self, pipeline):
        _, out = pipeline
        names = {p.name for p in out.iterdir()}
        expected = {
            "vertices.csv", "triangles.csv", "edges.csv", "admissibility.csv",
            "mesh.vtk", "ground_state.csv", "ground_state.vtk",
            "flow_history.csv", "observables.csv", "final_state.csv",
            "vortices.csv", "detector_timings.csv", "modes_initial.csv",
            "modes_final.csv", "mode_eigenvalues.csv", "manifest.json",
        }
        assert expected <= names
        # stride 5 over 10 steps: snapshots at steps 0, 5 and the final one
        assert {n for n in names if n.startswith("snapshot_")} == {
            "snapshot_0000000.vtk", "snapshot_0000005.vtk", "snapshot_0000010.vtk"}

    def test_manifest_covers_everything_written(self, pipeline):
        _, out = pipeline
        doc = json.loads((out / "manifest.json").read_text())
        listed = {e["path"] for e in doc["files"]}
        on_disk = {p.name for p in out.iterdir()} - {"manifest.json"}
        assert listed == on_disk
        for entry in doc["files"]:
            if entry["path"] == "detector_timings.csv":
                # wall-clock seconds: listed, never hashed
                assert set(entry) == {"path"}
            else:
                assert sha256_of(out / entry["path"]) == entry["sha256"]

    def test_observables_track_emissions(self, pipeline):
        result, out = pipeline
        lines = (out / "observables.csv").read_text().splitlines()
        assert lines[0] == "t,mass,energy,err_reference"
        assert len(lines) == 1 + result.evolution.times.size
        assert result.evolution.times[-1] == 0.05

    def test_ground_state_energy_strictly_decreasing(self, pipeline):
        result, _ = pipeline
        energies = result.ground_state.energies
        assert np.all(np.diff(energies) < 0)

    def test_mesh_only_subset(self, tiny_cfg, tmp_path):
        result = run_pipeline(tiny_cfg, tmp_path, stages=("mesh",))
        assert result.stages == ("mesh",)
        assert result.ground_state is None and result.evolution is None
        names = {p.name for p in tmp_path.iterdir()}
        assert "ground_state.csv" not in names and "manifest.json" in names

    def test_dependencies_pulled_in(self, tiny_cfg, tmp_path):
        result = run_pipeline(tiny_cfg, tmp_path, stages=("vortices",))
        assert result.stages == ("mesh", "ground-state", "evolve", "vortices")
        assert result.coeffs_final is None
        assert "modes_final.csv" not in {p.name for p in tmp_path.iterdir()}
        assert result.vortices

    def test_modes_without_vortices(self, tiny_cfg, tmp_path):
        result = run_pipeline(tiny_cfg, tmp_path, stages=("modes",))
        assert result.vortices == {}
        assert result.coeffs_final is not None
        assert "vortices.csv" not in {p.name for p in tmp_path.iterdir()}

    def test_unknown_stage_rejected(self, tiny_cfg, tmp_path):
        with pytest.raises(ConfigError, match="unknown pipeline stage"):
            run_pipeline(tiny_cfg, tmp_path, stages=("plot",))

    def test_empty_stage_selection_rejected(self, tiny_cfg, tmp_path):
        with pytest.raises(ConfigError, match="no pipeline stage selected"):
            run_pipeline(tiny_cfg, tmp_path / "out", stages=())
        assert not (tmp_path / "out").exists()

    def test_unstable_initial_state(self, tmp_path):
        cfg = parse_config(TINY.replace(
            "snapshot_stride = 5", "snapshot_stride = 0\ninitial = unstable"))
        result = run_pipeline(cfg, tmp_path, stages=("evolve",))
        names = {p.name for p in tmp_path.iterdir()}
        assert "initial_state.csv" in names
        # no reference tracking for a deformed start
        header = (tmp_path / "observables.csv").read_text().splitlines()[0]
        assert header == "t,mass,energy"
        assert result.evolution.err_reference is None

    def test_stage_failure_carries_stage_name(self, tiny_cfg, tmp_path, monkeypatch):
        def explode(*args, **kwargs):
            raise NumericalError("boom")

        monkeypatch.setattr(harness, "compute_ground_state", explode)
        with pytest.raises(NumericalError, match="stage 'ground-state' failed: boom"):
            run_pipeline(tiny_cfg, tmp_path)

    @pytest.mark.parametrize("bc", ["dirichlet", "neumann"])
    def test_vorticity_detectors_see_the_run_bc(self, tmp_path, monkeypatch, bc):
        seen = []

        def spy(detector):
            def run(*args):
                seen.append((detector.__name__, args[-1]))
                return detector(*args)
            return run

        for name in ("regularized_vorticity", "pseudo_vorticity"):
            monkeypatch.setattr(harness, name, spy(getattr(harness, name)))
        cfg = parse_config(TINY + f"\n[physics]\nbc = {bc}\n")
        run_pipeline(cfg, tmp_path, stages=("vortices",))
        assert sorted(seen) == [("pseudo_vorticity", bc), ("regularized_vorticity", bc)]

    def test_flow_exhaustion_is_a_ground_state_failure(self, tmp_path):
        cfg = parse_config(TINY + "\n[flow]\nmax_iters = 1\n")
        with pytest.raises(NumericalError, match="stage 'ground-state'"):
            run_pipeline(cfg, tmp_path, stages=("ground-state",))

    @pytest.mark.parametrize("vtk", [True, False])
    @pytest.mark.parametrize("stages", [None] + [(name,) for name in PIPELINE_STAGES])
    def test_one_manifest_per_run(self, tmp_path, monkeypatch, stages, vtk):
        calls = []
        original = harness.out_io.write_manifest

        def counting(*args, **kwargs):
            calls.append(args[0])
            return original(*args, **kwargs)

        monkeypatch.setattr(harness.out_io, "write_manifest", counting)
        cfg = parse_config(TINY + f"\n[output]\nvtk = {str(vtk).lower()}\n")
        result = run_pipeline(cfg, tmp_path, stages=stages)
        assert calls == [tmp_path]
        assert result.manifest == tmp_path / "manifest.json"
        vtk_files = {p.name for p in tmp_path.glob("*.vtk")}
        want = {"mesh.vtk"}
        if "ground-state" in result.stages:
            want.add("ground_state.vtk")
        if "evolve" in result.stages:
            want |= {"snapshot_0000000.vtk", "snapshot_0000005.vtk", "snapshot_0000010.vtk"}
        assert vtk_files == (want if vtk else set())

    def test_repeat_runs_byte_identical(self, tiny_cfg, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        run_pipeline(tiny_cfg, a)
        run_pipeline(tiny_cfg, b)
        # The manifests hash every deterministic artifact, so comparing them
        # compares the trees.
        assert (a / "manifest.json").read_bytes() == (b / "manifest.json").read_bytes()


class TestLazyAdjacency:
    """Only the detectors read the mesh's adjacency graph, so a run builds it
    when a detector first asks and never otherwise."""

    @pytest.fixture
    def builds(self, monkeypatch):
        """The meshes whose graph is built while the test runs."""
        built = []
        build = RingMesh.adjacency.func

        def counted(mesh):
            built.append(mesh)
            return build(mesh)

        lazy = functools.cached_property(counted)
        lazy.__set_name__(RingMesh, "adjacency")
        monkeypatch.setattr(RingMesh, "adjacency", lazy)
        return built

    @pytest.mark.parametrize("stage", ["mesh", "ground-state", "evolve", "modes"])
    def test_runs_without_detectors_never_build_it(self, tiny_cfg, tmp_path, builds, stage):
        result = run_pipeline(tiny_cfg, tmp_path, stages=(stage,))
        assert "adjacency" not in vars(result.mesh)
        assert builds == []

    def test_evolve_never_builds_it(self, tiny_cfg, tmp_path, builds):
        gs = run_pipeline(tiny_cfg, tmp_path, stages=("ground-state",)).ground_state.field
        op = assemble_laplacian(gs.mesh, tiny_cfg.bc)
        evolve(gs, op, tiny_cfg.potential, tiny_cfg.potential.m, tiny_cfg.gamma, tiny_cfg.split)
        assert "adjacency" not in vars(gs.mesh)
        assert builds == []

    def test_a_vortices_run_builds_it_once(self, tiny_cfg, tmp_path, builds):
        result = run_pipeline(tiny_cfg, tmp_path, stages=("vortices",))
        assert builds == [result.mesh]
        assert "adjacency" in vars(result.mesh)


# The former stage closure: a table of direct dependencies, pulled in
# recursively. The reference for harness._stage_closure.
_STAGE_DEPS = {
    "mesh": (),
    "ground-state": ("mesh",),
    "evolve": ("ground-state",),
    "vortices": ("evolve",),
    "modes": ("evolve",),
}


def recursive_closure(stages):
    if stages is None:
        return PIPELINE_STAGES
    want = set()

    def add(name):
        if name not in _STAGE_DEPS:
            raise ConfigError(f"unknown pipeline stage {name!r}")
        if name not in want:
            want.add(name)
            for dep in _STAGE_DEPS[name]:
                add(dep)

    for name in stages:
        add(name)
    if not want:
        raise ConfigError("no pipeline stage selected")
    return tuple(s for s in PIPELINE_STAGES if s in want)


def closure_outcome(closure, stages):
    """The stages closure returns, or the message of the ConfigError it raises."""
    try:
        return closure(stages)
    except ConfigError as exc:
        return f"ConfigError: {exc}"


# All 32 subsets of the stages (the empty one included), a repeat, and
# selections naming an unknown stage.
STAGE_SELECTIONS = [subset for size in range(len(PIPELINE_STAGES) + 1)
                    for subset in itertools.combinations(PIPELINE_STAGES, size)]
STAGE_SELECTIONS += [("evolve", "evolve"), ("plot",), ("modes", "plot", "mesh"), ("Mesh",)]


class TestStageClosure:
    @pytest.mark.parametrize("stages", STAGE_SELECTIONS,
                             ids=["+".join(s) or "empty" for s in STAGE_SELECTIONS])
    def test_matches_the_recursive_closure(self, stages):
        want = closure_outcome(recursive_closure, stages)
        assert closure_outcome(harness._stage_closure, stages) == want
        # Any iterable, in any order, is one selection.
        assert closure_outcome(harness._stage_closure, iter(stages)) == want
        assert closure_outcome(harness._stage_closure, list(reversed(stages))) == \
            closure_outcome(recursive_closure, list(reversed(stages)))


@pytest.fixture(scope="module")
def space_result(tiny_cfg, tmp_path_factory):
    return run_space_convergence(tiny_cfg, tmp_path_factory.mktemp("space"))


class TestSpaceConvergence:
    def test_table_shape(self, space_result, tiny_cfg):
        assert len(space_result.rows) == len(tiny_cfg.space_h) * tiny_cfg.space_beta_max
        assert sorted(space_result.slopes) == [1, 2, 3]
        assert all(r[2] > 0 for r in space_result.rows)

    def test_residual_decreases_with_h(self, space_result):
        for beta in (1, 2, 3):
            res = [r[2] for r in sorted(
                (r for r in space_result.rows if r[1] == beta), reverse=True)]
            # strictly decreasing except possibly between the two coarsest
            assert all(a > b for a, b in zip(res[1:], res[2:]))

    def test_files_written(self, space_result):
        names = {p.name for p in space_result.files}
        assert names == {"space_convergence.csv", "space_slopes.csv"}
        for p in space_result.files:
            assert p.exists()

    def test_needs_three_resolutions(self, tmp_path):
        cfg = parse_config(TINY.replace("space_h = 0.2, 0.14, 0.1",
                                        "space_h = 0.2, 0.1"))
        with pytest.raises(ConfigError, match="at least 3"):
            run_space_convergence(cfg, tmp_path)

    def test_requires_dirichlet(self, tmp_path):
        cfg = parse_config(TINY + "\n[physics]\nbc = neumann\n")
        with pytest.raises(ConfigError, match="dirichlet"):
            run_space_convergence(cfg, tmp_path)


class TestTimeConvergence:
    def test_orders_near_two_and_shared_trajectories(self, tiny_cfg, tmp_path,
                                                     monkeypatch):
        calls = []
        original = harness.evolve

        def counting_evolve(*args, **kwargs):
            calls.append(kwargs.get("config") or args[5])
            return original(*args, **kwargs)

        monkeypatch.setattr(harness, "evolve", counting_evolve)
        result = run_time_convergence(tiny_cfg, tmp_path)
        assert sorted(result.orders) == [3, 4]
        for m_phi in result.orders.values():
            assert 1.6 < m_phi < 2.4
        # one trajectory per dyadic step count k_min-1 .. k_max+1
        assert len(calls) == tiny_cfg.time_k_max - tiny_cfg.time_k_min + 3
        assert (tmp_path / "time_convergence.csv").exists()

    def test_evolve_failure_carries_stage_name(self, tiny_cfg, tmp_path, monkeypatch):
        def explode(*args, **kwargs):
            raise NumericalError("boom")

        monkeypatch.setattr(harness, "evolve", explode)
        with pytest.raises(NumericalError, match="^stage 'evolve' failed: boom$"):
            run_time_convergence(tiny_cfg, tmp_path)

    def test_unconverged_ground_state_is_refused(self, tmp_path):
        # The study starts from the same checked ground state as the pipeline.
        cfg = parse_config(TINY + "\n[flow]\nmax_iters = 1\n")
        with pytest.raises(NumericalError, match="stage 'ground-state'"):
            run_time_convergence(cfg, tmp_path)
        assert not (tmp_path / "time_convergence.csv").exists()

    def test_linear_control_is_second_order(self, tmp_path):
        # gamma = 0, V = 0: the kinetic rational flow supplies the entire
        # error, and its phase defect scales exactly like tau^2.
        cfg = parse_config(TINY.replace("V_p = 0.05", "V_p = 0.0") + """
[physics]
V0 = 0.0
gamma = 0.0
""")
        result = run_time_convergence(cfg, tmp_path)
        for m_phi in result.orders.values():
            assert m_phi == pytest.approx(2.0, abs=0.05)


@pytest.mark.slow
@pytest.mark.parametrize("preset", ["paper62", "unstable-neumann"])
def test_manifest_does_not_depend_on_the_thread_count(tmp_path, preset):
    # Every hashed artifact is the same at one and at two threads, so the
    # manifests agree byte for byte: on the stirred sector of paper62 and
    # on the antiperiodic half-ring of unstable-neumann.
    manifests = []
    for threads in (1, 2):
        out = tmp_path / f"threads{threads}"
        cmd = [sys.executable, "-m", "ringgpe.cli", "pipeline", "--preset", preset,
               "--threads", str(threads), "--out", str(out)]
        subprocess.run(cmd, env=thread_env(threads), check=True, capture_output=True,
                       timeout=600)
        manifests.append((out / "manifest.json").read_bytes())
    assert manifests[0] == manifests[1]
