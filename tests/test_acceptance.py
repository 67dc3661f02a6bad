"""Acceptance gate for the whole stack.

Each test checks one numbered acceptance criterion and records a single
PASS/FAIL scorecard line; conftest replays the scorecard after the test
summary, outside pytest's capture, so the run log always shows the
verdicts. Tolerances appear inline next to the checks they guard. The
full-resolution stirred reproduction is marked slow and excluded from the
default run (see pyproject addopts).
"""

import itertools
import math
import sys

import numpy as np
import pytest

from ringgpe.config import parse_config, preset_config
from ringgpe.dynamics import KineticFlow, SplitStepConfig, evolve, flow_potential
from ringgpe.fv import Field, assemble_laplacian, complex_pairing, norm, normalize
from ringgpe.ground_state import compute_ground_state
from ringgpe.harness import run_space_convergence, run_time_convergence
from ringgpe.layout import slot_shifted
from ringgpe.mesh import MeshParams, build_ring_mesh, verify_admissibility
from ringgpe.potentials import PotentialParams, phase_table, trap_field
from ringgpe.spectral import (
    RadialProblem,
    annulus_eigenpairs,
    decompose,
    mode_basis,
    radial_modes,
)
from ringgpe.vortex import (
    METHOD_PSEUDO_VORTICITY,
    METHOD_REG_VORTICITY,
    DetectionParams,
    detect_by_density,
    detect_by_vorticity,
    pseudo_vorticity,
    regularized_vorticity,
)

M_EFF = 10.0
V0 = 100.0
GAMMA = 100.0
OMEGA_STIR = 10.0 * math.pi / 3.0


# Scorecard lines, replayed by conftest's terminal-summary hook.
SCORECARD = []


def _report(num, label, ok, detail):
    line = f"[criterion {num:02d}] {label}: {'PASS' if ok else 'FAIL'} ({detail})"
    SCORECARD.append(line)
    print(line, file=sys.__stdout__, flush=True)
    return ok


def _random_complex(mesh, rng):
    vals = rng.standard_normal(mesh.n_triangles) + 1j * rng.standard_normal(mesh.n_triangles)
    return Field(mesh, vals)


def test_01_mesh_counts_and_acuteness():
    mesh = build_ring_mesh(MeshParams(r_min=0.4, r_max=1.6, h=0.05,
                                      match_paper_counts=True))
    report = verify_admissibility(mesh)
    ok = (mesh.n_points == 297 and mesh.n_triangles == 14850
          and report.max_angle < math.pi / 2.0)
    detail = (f"points={mesh.n_points} (want 297), "
              f"triangles={mesh.n_triangles} (want 14850), "
              f"max angle={report.max_angle:.4f} < pi/2={math.pi / 2.0:.4f}")
    assert _report(1, "mesh counts and strict acuteness", ok, detail), detail


def test_02_flux_admissibility_and_self_adjointness(desk_mesh):
    meshes = (
        build_ring_mesh(MeshParams(r_min=0.6, r_max=1.4, h=0.2)),
        desk_mesh,
        build_ring_mesh(MeshParams(r_min=0.4, r_max=1.6, h=0.05,
                                   match_paper_counts=True)),
        build_ring_mesh(preset_config("paper62").mesh),
    )
    worst_defect = max(verify_admissibility(m).max_orthogonality_defect
                       for m in meshes)
    rng = np.random.default_rng(11)
    worst_pair = 0.0
    for bc in ("dirichlet", "neumann"):
        op = assemble_laplacian(desk_mesh, bc)
        for _ in range(100):
            u = normalize(_random_complex(desk_mesh, rng))
            v = normalize(_random_complex(desk_mesh, rng))
            gap = abs(complex_pairing(op.apply(u), v)
                      - complex_pairing(u, op.apply(v)))
            worst_pair = max(worst_pair, gap)
    ok = worst_defect < 1e-10 and worst_pair < 1e-12
    detail = (f"orthogonality defect={worst_defect:.2e} < 1e-10 over "
              f"{len(meshes)} meshes; adjointness gap={worst_pair:.2e} < 1e-12 "
              f"over 100 pairs x 2 boundary conditions")
    assert _report(2, "flux admissibility and self-adjointness", ok, detail), detail


def test_03_eigenresidual_space_order(tmp_path):
    cfg = parse_config("[mesh]\nr_min = 0.6\nr_max = 1.4\nh = 0.1\n")
    res = run_space_convergence(cfg, tmp_path / "space")
    ok = all(0.7 <= res.slopes[beta] <= 1.3 for beta in (1, 2, 3))
    detail = ("fitted slopes "
              + ", ".join(f"beta={b}: {res.slopes[b]:.3f}" for b in (1, 2, 3))
              + " all in [0.7, 1.3] over h in {0.1, 0.05, 0.025}")
    assert _report(3, "eigenresidual space order", ok, detail), detail


def test_04_splitting_time_order(tmp_path):
    cfg = parse_config("[mesh]\nr_min = 0.6\nr_max = 1.4\nh = 0.06\n")
    res = run_time_convergence(cfg, tmp_path / "time")
    # Tabulated m_phi for the three finest step counts at T_max = 0.1.
    expected = {8: 2.0022, 9: 2.0038, 10: 2.0021}
    ok = all(1.9 <= res.orders[k] <= 2.1 and abs(res.orders[k] - expected[k]) <= 0.15
             for k in expected)
    shown = ", ".join(f"k={k}: {res.orders[k]:.4f}" for k in sorted(res.orders))
    detail = (f"{shown}; k>=8 in [1.9, 2.1] and within 0.15 of "
              f"{tuple(expected.values())}")
    assert _report(4, "splitting time order", ok, detail), detail


def test_05_ground_state_quality(desk_mesh, desk_ground_state):
    gs = desk_ground_state
    decreasing = bool(np.all(np.diff(gs.energies) < 0.0))
    # Rotation by 2*pi/N_p moves every triangle one slot on.
    perm = slot_shifted(desk_mesh, np.arange(desk_mesh.n_triangles), [1])[0]
    sym = float(np.abs(gs.field.values[perm] - gs.field.values).max())
    ok = decreasing and gs.residual <= 5e-3 and sym < 1e-6
    detail = (f"energy strictly decreasing over {gs.iterations} iterations, "
              f"residual={gs.residual:.2e} <= 5e-3, "
              f"rotation defect={sym:.2e} < 1e-6")
    assert _report(5, "ground-state quality", ok, detail), detail


def test_06_ground_state_dynamical_stability(desk_op, desk_ground_state):
    static = PotentialParams(m=M_EFF, V0=V0)
    res = evolve(desk_ground_state.field, desk_op, static, M_EFF, GAMMA,
                 SplitStepConfig(tau=5e-4, t_max=1.0, snapshot_stride=100),
                 reference=desk_ground_state.field, keep_snapshots=False)
    err = float(res.err_reference.max())
    drift = float(np.abs(res.mass - res.mass[0]).max())
    ok = err <= 5e-4 and drift <= 1e-8
    detail = (f"max err vs ground state over [0, 1]={err:.2e} <= 5e-4, "
              f"mass drift={drift:.2e} <= 1e-8")
    assert _report(6, "ground-state dynamical stability", ok, detail), detail


def _density_scan(op, u0, params, gamma):
    # Density-method detections at every snapshot after t = 0.
    det = DetectionParams()
    hits = []

    def on_emit(step, t, psi):
        if step == 0:
            return
        hits.extend((t, rec) for rec in detect_by_density(psi, det))

    evolve(u0, op, params, M_EFF, gamma,
           SplitStepConfig(tau=6e-4, t_max=3.0, snapshot_stride=250),
           on_emit=on_emit, keep_snapshots=False)
    return hits


def test_07_vortex_nucleation_and_quiescent_controls(desk_op, desk_ground_state):
    u0 = desk_ground_state.field
    stirred = PotentialParams(m=M_EFF, V0=V0, V_p=0.05, n_theta=6,
                              omega=OMEGA_STIR)
    slow_stir = PotentialParams(m=M_EFF, V0=V0, V_p=0.05, n_theta=6,
                                omega=math.pi)
    hits = _density_scan(desk_op, u0, stirred, GAMMA)
    hits_slow = _density_scan(desk_op, u0, slow_stir, GAMMA)
    hits_linear = _density_scan(desk_op, u0, stirred, 0.0)
    unit = all(rec.index_or_sign in (-1, 1) for _, rec in hits)
    ok = bool(hits) and unit and not hits_slow and not hits_linear
    first = f"{hits[0][0]:.2f}" if hits else "n/a"
    detail = (f"stirred detections={len(hits)} (first at t={first}, "
              f"all indices in {{-1, +1}}: {unit}); "
              f"slow-stirring control={len(hits_slow)}, "
              f"interaction-free control={len(hits_linear)} (both want 0)")
    assert _report(7, "vortex nucleation with quiescent controls", ok, detail), detail


CORE_WIDTH = 0.05


def _sat_vortex(z, zi, charge, xi=CORE_WIDTH):
    w = z - zi
    f = w / np.sqrt(np.abs(w) ** 2 + xi ** 2)
    return f if charge > 0 else np.conj(f)


def _planted_state(mesh, zeros, charges):
    z = mesh.centers[:, 0] + 1j * mesh.centers[:, 1]
    vals = np.ones_like(z)
    for zi, c in zip(zeros, charges):
        vals = vals * _sat_vortex(z, zi, c)
    return Field(mesh, vals)


def test_08_detector_agreement_on_planted_vortices():
    mesh = build_ring_mesh(MeshParams(r_min=0.6, r_max=1.4, h=0.08))
    planted = (
        ([1.0 + 0j], [+1]),
        ([1.0 + 0j, -1.0 + 0j], [+1, -1]),
        ([1.0 + 0j, 1j, -1j], [-1, +1, +1]),
        ([1.0 + 0j, 1j, -1.0 + 0j, -1j], [+1, -1, -1, +1]),
    )
    failures = []
    for zeros, charges in planted:
        u = _planted_state(mesh, zeros, charges)
        wr = regularized_vorticity(u, 0.1)
        wp = pseudo_vorticity(u)
        census = {
            "density": detect_by_density(u, DetectionParams()),
            METHOD_REG_VORTICITY: detect_by_vorticity(
                wr, 0.4 * np.abs(wr.values).max(), method=METHOD_REG_VORTICITY),
            METHOD_PSEUDO_VORTICITY: detect_by_vorticity(
                wp, 0.4 * np.abs(wp.values).max()),
        }
        for name, recs in census.items():
            if len(recs) != len(zeros):
                failures.append(f"{name}: {len(recs)} records for {len(zeros)} cores")
                continue
            for zi, ci in zip(zeros, charges):
                near = min(recs, key=lambda r: abs(complex(*r.position) - zi))
                if near.index_or_sign != ci:
                    failures.append(f"{name}: sign {near.index_or_sign} != {ci} at {zi}")
    ok = not failures
    detail = (f"{len(planted)} planted configurations (1-4 cores) x 3 detectors, "
              "counts and signs exact" if ok else "; ".join(failures))
    assert _report(8, "detector agreement on planted vortices", ok, detail), detail


def test_09_mode_basis_machinery(desk_mesh):
    L = 25
    basis = mode_basis(desk_mesh, P=1, L=L, n=500, m=M_EFF, V0=V0)
    modes = [(p, l) for p in range(2) for l in range(-L, L + 1)]
    worst_cross = max(
        abs(complex_pairing(basis.field(p1, l1), basis.field(p2, l2)))
        for (p1, l1), (p2, l2) in itertools.combinations(modes, 2))
    worst_self = max(
        abs(decompose(basis.field(p, l), basis)[p, l + L] - 1.0)
        for p, l in modes)
    # V0 = 0 reduces the radial problem to the bare Laplacian, whose
    # eigenvalues are known in closed form; 2 m lambda compares like to like.
    problem = RadialProblem(0.6, 1.4, M_EFF, 0.0)
    worst_eig = 0.0
    for ell in (0, 1, 2):
        pairs = annulus_eigenpairs(ell, 3, 0.6, 1.4)
        lams, _ = radial_modes(ell, 2, 500, problem)
        for beta in range(3):
            rel = abs(2.0 * M_EFF * lams[beta] - pairs[beta].lam) / pairs[beta].lam
            worst_eig = max(worst_eig, rel)
    ok = worst_cross <= 1e-3 and worst_self <= 1e-3 and worst_eig <= 5e-3
    detail = (f"max off-pair pairing={worst_cross:.2e} <= 1e-3, "
              f"self-coefficient defect={worst_self:.2e} <= 1e-3, "
              f"eigenvalue cross-check={worst_eig:.2e} <= 5e-3")
    assert _report(9, "mode basis machinery", ok, detail), detail


def test_10_subflow_unitarity(desk_mesh, desk_op):
    rng = np.random.default_rng(23)
    raw = _random_complex(desk_mesh, rng)
    u = Field(desk_mesh, raw.values / np.abs(raw.values).max())
    stirred = PotentialParams(m=M_EFF, V0=V0, V_p=0.05, n_theta=6,
                              omega=OMEGA_STIR)
    w = flow_potential(u.values, 0.37, 2e-3, phase_table(stirred, desk_mesh.centers), GAMMA)
    mod_defect = float(np.abs(np.abs(w) - np.abs(u.values)).max())

    un = normalize(u)
    kin = KineticFlow(desk_op, 1e-3, M_EFF)
    step_defect = abs(norm(Field(desk_mesh, kin.apply(un.values))) - norm(un))
    cur, n_prev, worst_step = un, norm(un), 0.0
    for _ in range(1000):
        cur = Field(desk_mesh, kin.apply(cur.values))
        n_cur = norm(cur)
        worst_step = max(worst_step, abs(n_cur - n_prev))
        n_prev = n_cur
    total_drift = abs(norm(cur) - norm(un))
    ok = (mod_defect <= 1e-15 and step_defect <= 1e-10
          and worst_step <= 1e-10 and total_drift <= 1e-8)
    detail = (f"pointwise modulus defect={mod_defect:.2e} <= 1e-15, "
              f"per-step norm defect={max(step_defect, worst_step):.2e} <= 1e-10, "
              f"drift over 1000 steps={total_drift:.2e} <= 1e-8")
    assert _report(10, "subflow unitarity", ok, detail), detail


@pytest.mark.slow
def test_07_full_resolution_vortex_census():
    # Full-size reproduction of the stirred run: 12 vortices at t = 3,
    # six of each sign, from the density detector on the final state.
    cfg = preset_config("paper62")
    mesh = build_ring_mesh(cfg.mesh)
    op = assemble_laplacian(mesh, cfg.bc)
    static = PotentialParams(m=cfg.potential.m, V0=cfg.potential.V0)
    gs = compute_ground_state(trap_field(static, mesh), op, cfg.potential.m,
                              cfg.gamma, cfg.flow)
    assert gs.converged
    res = evolve(gs.field, op, cfg.potential, cfg.potential.m, cfg.gamma,
                 SplitStepConfig(tau=cfg.split.tau, t_max=cfg.split.t_max),
                 keep_snapshots=False)
    recs = detect_by_density(res.final, cfg.detect)
    plus = sum(1 for r in recs if r.index_or_sign == +1)
    minus = sum(1 for r in recs if r.index_or_sign == -1)
    ok = (len(recs), plus, minus) == (12, 6, 6)
    detail = (f"final-state density census: {len(recs)} records "
              f"(+1: {plus}, -1: {minus}); want 12 as 6/6")
    assert _report(7, "full-resolution vortex census (slow)", ok, detail), detail
