"""End-to-end orchestration: convergence studies and the run pipeline.

Each entry point takes a RunConfig plus an output directory, writes its CSV
(and optionally VTK) artifacts there, and finishes with a manifest hashing
every file it produced. Stages run sequentially; a numerical failure is
re-raised with the stage name attached so the command line can report where
the run died.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import io as out_io
from .config import INITIAL_UNSTABLE, RunConfig, serialize_config
from .dynamics import EvolveResult, SplitStepConfig, evolve, make_unstable_state, order_estimate
from .errors import ConfigError, NumericalError
from .fv import Field, LaplacianOperator, assemble_laplacian, norm
from .ground_state import GroundStateResult, compute_ground_state
from .mesh import AdmissibilityReport, MeshParams, RingMesh, build_ring_mesh, verify_admissibility
from .potentials import PotentialParams, trap_field
from .spectral import annulus_eigenfunction_field, annulus_eigenpairs, decompose, mode_basis
from .vortex import (
    METHOD_DENSITY,
    METHOD_PSEUDO_VORTICITY,
    METHOD_REG_VORTICITY,
    VortexRecord,
    detect_by_density,
    detect_by_vorticity,
    pseudo_vorticity,
    regularized_vorticity,
)

__all__ = [
    "SpaceConvergenceResult",
    "TimeConvergenceResult",
    "PipelineResult",
    "PIPELINE_STAGES",
    "run_space_convergence",
    "run_time_convergence",
    "run_pipeline",
]


# ---------------------------------------------------------------------------
# space convergence


@dataclass(frozen=True)
class SpaceConvergenceResult:
    """Eigenfunction residuals per (h, beta) and the fitted log-log slopes."""

    rows: tuple[tuple[float, int, float], ...]
    slopes: dict[int, float]
    files: list[Path]


def run_space_convergence(config: RunConfig, out_dir) -> SpaceConvergenceResult:
    """Laplacian accuracy sweep: apply the operator to analytic eigenfunctions.

    For each mesh size in config.space_h and each radial label beta the
    residual ||(-A_T - lambda) u|| of the rotation-invariant annulus
    eigenfunction is recorded; the slope of log(residual) against log(h) is
    fitted per beta.
    """
    if len(config.space_h) < 3:
        raise ConfigError("space convergence needs at least 3 mesh sizes in space_h")
    if config.bc != "dirichlet":
        raise ConfigError("space convergence compares against dirichlet eigenfunctions")
    r_min, r_max = config.mesh.r_min, config.mesh.r_max
    beta_max = config.space_beta_max
    pairs = annulus_eigenpairs(0, beta_max, r_min, r_max)

    rows: list[tuple[float, int, float]] = []
    for h in sorted(config.space_h, reverse=True):
        mesh = build_ring_mesh(MeshParams(r_min=r_min, r_max=r_max, h=h))
        op = assemble_laplacian(mesh, "dirichlet")
        for beta, pair in enumerate(pairs, start=1):
            u = annulus_eigenfunction_field(mesh, pair, 1)
            residual = norm(Field(mesh, -op.A_T @ u.values - pair.lam * u.values))
            rows.append((h, beta, residual))

    slopes: dict[int, float] = {}
    for beta in range(1, beta_max + 1):
        hs = np.array([r[0] for r in rows if r[1] == beta])
        res = np.array([r[2] for r in rows if r[1] == beta])
        slopes[beta] = float(np.polyfit(np.log(hs), np.log(res), 1)[0])

    out_dir = Path(out_dir)
    files = [
        out_io.write_csv(out_dir / "space_convergence.csv",
                         ["h", "beta", "residual"], list(zip(*rows))),
        out_io.write_csv(out_dir / "space_slopes.csv", ["beta", "slope"],
                         [list(slopes), list(slopes.values())]),
    ]
    out_io.write_manifest(out_dir, files, serialize_config(config))
    return SpaceConvergenceResult(rows=tuple(rows), slopes=slopes, files=files)


# ---------------------------------------------------------------------------
# time convergence


@dataclass(frozen=True)
class TimeConvergenceResult:
    """Observed splitting order per dyadic step count J = 2**k."""

    rows: tuple[tuple[int, float, float], ...]
    orders: dict[int, float]
    files: list[Path]


def run_time_convergence(config: RunConfig, out_dir) -> TimeConvergenceResult:
    """Richardson-style order estimate of the splitting without rotation.

    The ground state is evolved over [0, time_t_max] once per dyadic step
    count 2**e for e in [time_k_min - 1, time_k_max + 1]; the order at k then
    compares the final states at steps 2 tau, tau, tau / 2. Trajectories are
    shared between neighboring k, matching the estimator's definition.
    """
    op = assemble_laplacian(build_ring_mesh(config.mesh), config.bc)
    with _stage("ground-state"):
        static, gs = _ground_state(config, op)

    t_max = config.time_t_max
    finals: dict[int, Field] = {}
    with _stage("evolve"):
        for e in range(config.time_k_min - 1, config.time_k_max + 2):
            split = SplitStepConfig(tau=t_max / 2 ** e, t_max=t_max)
            finals[e] = evolve(gs.field, op, static, static.m, config.gamma,
                               split, keep_snapshots=False).final

    rows: list[tuple[int, float, float]] = []
    orders: dict[int, float] = {}
    for k in range(config.time_k_min, config.time_k_max + 1):
        m_phi = order_estimate(finals[k - 1], finals[k], finals[k + 1])
        orders[k] = m_phi
        rows.append((k, t_max / 2 ** k, m_phi))

    out_dir = Path(out_dir)
    files = [out_io.write_csv(out_dir / "time_convergence.csv",
                              ["k", "tau", "m_phi"], list(zip(*rows)))]
    out_io.write_manifest(out_dir, files, serialize_config(config))
    return TimeConvergenceResult(rows=tuple(rows), orders=orders, files=files)


# ---------------------------------------------------------------------------
# pipeline

PIPELINE_STAGES = ("mesh", "ground-state", "evolve", "vortices", "modes")

_STAGE_DEPS = {
    "mesh": (),
    "ground-state": ("mesh",),
    "evolve": ("ground-state",),
    "vortices": ("evolve",),
    "modes": ("evolve",),
}


def _stage_closure(stages) -> tuple[str, ...]:
    if stages is None:
        return PIPELINE_STAGES
    want: set[str] = set()

    def add(name: str):
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


@contextmanager
def _stage(name: str):
    try:
        yield
    except NumericalError as exc:
        raise NumericalError(f"stage {name!r} failed: {exc}") from None


def _ground_state(config: RunConfig,
                  op: LaplacianOperator) -> tuple[PotentialParams, GroundStateResult]:
    """The static potential of config and its ground state on op; raises if not converged."""
    static = PotentialParams(m=config.potential.m, V0=config.potential.V0)
    gs = compute_ground_state(trap_field(static, op.mesh), op, static.m,
                              config.gamma, config.flow)
    if not gs.converged:
        raise NumericalError(
            f"gradient flow missed the residual target in {gs.iterations} iterations")
    return static, gs


@dataclass
class PipelineResult:
    stages: tuple[str, ...]
    mesh: RingMesh | None = None
    admissibility: AdmissibilityReport | None = None
    ground_state: GroundStateResult | None = None
    evolution: EvolveResult | None = None
    vortices: dict[str, list[VortexRecord]] = field(default_factory=dict)
    coeffs_initial: np.ndarray | None = None
    coeffs_final: np.ndarray | None = None
    files: list[Path] = field(default_factory=list)
    manifest: Path | None = None


def run_pipeline(config: RunConfig, out_dir, stages=None) -> PipelineResult:
    """Run mesh -> ground state -> evolution -> detection/decomposition.

    stages selects a subset of PIPELINE_STAGES (dependencies are pulled in
    automatically); every run ends with a manifest of the files written.
    """
    selected = _stage_closure(stages)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    result = PipelineResult(stages=selected)
    files = result.files
    unhashed: list[Path] = []

    def write_vtk(name: str, data: dict[str, np.ndarray] | Field, title: str):
        """data (cell arrays, or a Field) as name in out_dir, if the config asks for VTK."""
        if config.write_vtk:
            cells = data if isinstance(data, dict) else out_io.field_cell_data(data)
            files.append(out_io.write_legacy_vtk(out_dir / name, mesh, cells, title=title))

    # Every stage depends on the mesh.
    with _stage("mesh"):
        mesh = build_ring_mesh(config.mesh)
        report = verify_admissibility(mesh)
        if not report.is_admissible:
            raise NumericalError(
                f"mesh is not admissible: max angle {report.max_angle:.6f}, "
                f"orthogonality defect {report.max_orthogonality_defect:.3e}")
        result.mesh = mesh
        result.admissibility = report
        files.extend(out_io.write_mesh_tables(out_dir, mesh))
        files.append(out_io.write_admissibility_table(
            out_dir / "admissibility.csv", report))
        write_vtk("mesh.vtk", {"band": mesh.band, "kind": mesh.kind, "area": mesh.areas},
                  "ring triangulation")

    if "ground-state" in selected:
        op = assemble_laplacian(mesh, config.bc)
        with _stage("ground-state"):
            static, gs = _ground_state(config, op)
            result.ground_state = gs
            files.append(out_io.write_field_table(out_dir / "ground_state.csv", gs.field))
            files.append(out_io.write_flow_history_table(
                out_dir / "flow_history.csv", gs.energies, gs.residuals))
            write_vtk("ground_state.vtk", gs.field, "ground state")

    if "evolve" in selected:
        if config.initial == INITIAL_UNSTABLE:
            u0 = make_unstable_state(gs.field)
            reference = None
            files.append(out_io.write_field_table(out_dir / "initial_state.csv", u0))
        else:
            u0 = gs.field
            reference = gs.field
        with _stage("evolve"):
            evolution = evolve(
                u0, op, config.potential, config.potential.m, config.gamma, config.split,
                reference=reference, keep_snapshots=False,
                on_emit=lambda step, t, psi: write_vtk(
                    f"snapshot_{step:07d}.vtk", psi, f"state at t = {t:.6f}"))
            result.evolution = evolution
            files.append(out_io.write_observables_table(
                out_dir / "observables.csv", evolution.times, evolution.mass,
                evolution.energy, evolution.err_reference))
            files.append(out_io.write_field_table(
                out_dir / "final_state.csv", evolution.final))
        final = evolution.final

    if "vortices" in selected:
        with _stage("vortices"):
            detectors = {
                METHOD_DENSITY: lambda: detect_by_density(final, config.detect),
                METHOD_REG_VORTICITY: lambda: detect_by_vorticity(
                    regularized_vorticity(final, config.detect.delta, config.bc),
                    config.detect.vort_threshold, METHOD_REG_VORTICITY),
                METHOD_PSEUDO_VORTICITY: lambda: detect_by_vorticity(
                    pseudo_vorticity(final, config.bc),
                    config.detect.vort_threshold, METHOD_PSEUDO_VORTICITY),
            }
            rows: list[tuple[float, VortexRecord]] = []
            seconds: list[float] = []
            t_final = float(evolution.times[-1])
            for name, run in detectors.items():
                start = time.perf_counter()
                records = run()
                seconds.append(time.perf_counter() - start)
                result.vortices[name] = records
                rows.extend((t_final, r) for r in records)
            files.append(out_io.write_vortex_table(out_dir / "vortices.csv", rows))
            timings = out_io.write_csv(
                out_dir / "detector_timings.csv", ["method", "seconds", "count"],
                [list(detectors), seconds, [len(result.vortices[n]) for n in detectors]])
            files.append(timings)
            unhashed.append(timings)

    if "modes" in selected:
        with _stage("modes"):
            basis = mode_basis(mesh, config.modes_p_max, config.modes_l_max,
                               config.modes_n, static.m, static.V0)
            result.coeffs_initial = decompose(u0, basis)
            result.coeffs_final = decompose(final, basis)
            files.append(out_io.write_mode_table(
                out_dir / "modes_initial.csv", result.coeffs_initial, basis))
            files.append(out_io.write_mode_table(
                out_dir / "modes_final.csv", result.coeffs_final, basis))
            files.append(out_io.write_eigenvalue_table(
                out_dir / "mode_eigenvalues.csv", basis))

    result.manifest = out_io.write_manifest(out_dir, files, serialize_config(config),
                                            unhashed=unhashed)
    return result
