"""The three workloads: what each sets up, what its timed operation does,
and the gate that decides whether the operation was correct.

stir and snake evolve a fixed preset for a fixed number of steps; census
plants seeded vortex cores in the paper62 ground state and runs the
pipeline's analysis stages on it.  All ringgpe calls go through module
attributes, so the tracer sees them.
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

import numpy as np

from ringgpe import config, dynamics, fv, harness, io, spectral, vortex

import checks

PRESETS = {"stir": "paper62", "snake": "unstable-neumann", "census": "paper62"}

# 300 steps keep the evolve op above 2 s even once a kinetic solve costs
# 3 ms instead of today's ~20 ms.
N_STEPS = 300

N_CORES = 12
CORE_WIDTH = 0.05  # as in acceptance test 08
CORE_RADIUS_JITTER = 0.04
CORE_ANGLE_JITTER = 0.1  # radians; sectors are 2 pi / 12 ~ 0.52 wide


@dataclasses.dataclass
class Setup:
    """Everything the timed operation starts from."""

    workload: str
    cfg: config.RunConfig
    out_dir: Path
    pipeline: harness.PipelineResult
    laplacian: fv.LaplacianOperator
    initial: fv.Field
    cores: list[tuple[complex, int]]

    @property
    def ground_state(self) -> fv.Field:
        return self.pipeline.ground_state.field


def plant_cores(seed: int) -> list[tuple[complex, int]]:
    """Twelve cores near r = 1, six of each charge, one per 30-degree sector.

    The seed draws a global rotation, an angle jitter and a radius per core,
    and the order of the charges.  Neighbouring cores stay at least
    0.3 apart, six core widths.
    """
    rng = np.random.default_rng(seed)
    sector = 2.0 * np.pi / N_CORES
    angles = (rng.uniform(0.0, sector) + sector * np.arange(N_CORES)
              + rng.uniform(-CORE_ANGLE_JITTER, CORE_ANGLE_JITTER, N_CORES))
    radii = 1.0 + rng.uniform(-CORE_RADIUS_JITTER, CORE_RADIUS_JITTER, N_CORES)
    charges = rng.permutation([1] * (N_CORES // 2) + [-1] * (N_CORES // 2))
    return [(complex(r * np.cos(a), r * np.sin(a)), int(c))
            for r, a, c in zip(radii, angles, charges)]


def planted_state(base: fv.Field, cores) -> fv.Field:
    """base times one saturated vortex w / sqrt(|w|^2 + width^2) per core."""
    z = base.mesh.centers[:, 0] + 1j * base.mesh.centers[:, 1]
    values = base.values.astype(np.complex128)
    for zc, charge in cores:
        w = z - zc
        f = w / np.sqrt(np.abs(w) ** 2 + CORE_WIDTH ** 2)
        values = values * (f if charge > 0 else np.conj(f))
    return fv.Field(base.mesh, values)


def set_up(workload: str, seed: int, out_dir: Path) -> Setup:
    """The pipeline's prelude up to the ground state, the Laplacian and the
    workload's initial state."""
    cfg = config.preset_config(PRESETS[workload])
    pipeline = harness.run_pipeline(cfg, out_dir, stages=("ground-state",))
    laplacian = fv.assemble_laplacian(pipeline.mesh, cfg.bc)
    gs = pipeline.ground_state.field
    cores = []
    if workload == "stir":
        initial = gs
    elif workload == "snake":
        initial = dynamics.make_unstable_state(gs)
    else:
        cores = plant_cores(seed)
        initial = planted_state(gs, cores)
    return Setup(workload, cfg, Path(out_dir), pipeline, laplacian, initial, cores)


def setup_counts(s: Setup) -> dict:
    files = s.pipeline.files + [s.pipeline.manifest]
    return {
        "ground_state.iterations": s.pipeline.ground_state.iterations,
        "ground_state.rejections": s.pipeline.ground_state.n_rejections,
        "io.setup_bytes": sum(f.stat().st_size for f in files),
    }


def run_op(s: Setup, span):
    """The workload's timed operation; returns what check_op needs."""
    if s.workload == "census":
        return _census(s, span)
    split = dataclasses.replace(s.cfg.split, t_max=N_STEPS * s.cfg.split.tau)
    # The pipeline tracks | |psi| - gs | only when it starts from the ground state.
    reference = s.ground_state if s.workload == "stir" else None
    return dynamics.evolve(s.initial, s.laplacian, s.cfg.potential, s.cfg.potential.m,
                           s.cfg.gamma, split, reference=reference, keep_snapshots=False)


@dataclasses.dataclass
class CensusResult:
    density: list
    reg_vorticity: list
    pseudo_vorticity: list
    basis_bytes: int
    files: list[Path]


def _census(s: Setup, span) -> CensusResult:
    cfg, det, out, u, gs = s.cfg, s.cfg.detect, s.out_dir, s.initial, s.ground_state
    density = vortex.detect_by_density(u, det)
    with span("vortex.reg_vorticity"):
        reg = vortex.detect_by_vorticity(vortex.regularized_vorticity(u, det.delta),
                                         det.vort_threshold, vortex.METHOD_REG_VORTICITY)
    with span("vortex.pseudo_vorticity"):
        pseudo = vortex.detect_by_vorticity(vortex.pseudo_vorticity(u),
                                            det.vort_threshold, vortex.METHOD_PSEUDO_VORTICITY)
    basis = spectral.mode_basis(u.mesh, cfg.modes_p_max, cfg.modes_l_max, cfg.modes_n,
                                cfg.potential.m, cfg.potential.V0)
    basis_bytes = basis.eigenvalues.nbytes + sum(
        f.values.nbytes for row in basis.fields for f in row)
    c_gs = spectral.decompose(gs, basis)
    c_planted = spectral.decompose(u, basis)
    files = [
        io.write_vortex_table(out / "vortices.csv",
                              [(0.0, r) for recs in (density, reg, pseudo) for r in recs]),
        io.write_mode_table(out / "modes_initial.csv", c_gs, basis),
        io.write_mode_table(out / "modes_final.csv", c_planted, basis),
        io.write_eigenvalue_table(out / "mode_eigenvalues.csv", basis),
        io.write_field_table(out / "final_state.csv", u),
        io.write_legacy_vtk(out / "snapshot_census.vtk", u.mesh, io.field_cell_data(u),
                            title="planted census state"),
    ]
    manifest = io.write_manifest(out, s.pipeline.files + files, config.serialize_config(cfg))
    return CensusResult(density, reg, pseudo, basis_bytes, files + [manifest])


def check_op(s: Setup, result) -> tuple[list[str], dict]:
    """Gate errors and the op's counts that must repeat exactly."""
    if s.workload == "census":
        errors = checks.census_errors(result.density, s.cores, CORE_WIDTH)
        counts = {
            "vortex.density_candidates": int(np.count_nonzero(s.initial.abs2() < s.cfg.detect.tol1)),
            "vortex.density_records": len(result.density),
            "vortex.reg_vorticity_records": len(result.reg_vorticity),
            "vortex.pseudo_vorticity_records": len(result.pseudo_vorticity),
            "io.op_bytes": sum(f.stat().st_size for f in result.files),
            "spectral.basis_bytes": result.basis_bytes,
        }
        return errors, counts
    return checks.drift_errors(s.initial.values, result.final.values, s.initial.mesh.areas), {}
