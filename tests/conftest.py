import sys
import tracemalloc

import numpy as np
import pytest

from ringgpe.layout import slot_labels, slot_view
from ringgpe.mesh import MeshParams, build_ring_mesh
from ringgpe.fv import assemble_laplacian
from ringgpe.potentials import PotentialParams, trap_field
from ringgpe.ground_state import GradientFlowConfig, compute_ground_state

# Desk-scale working set: h = 0.06 on the [0.6, 1.4] annulus with the framed
# physics (m=10, V0=100, gamma=100). Shared session-wide because the ground
# state feeds the dynamics, vortex and acceptance tests.

M_EFF = 10.0
V0 = 100.0
GAMMA = 100.0


def shifted_triangles(mesh, triangles, slots):
    """triangles rotated by slots[i] steps of 2*pi/N_p, one row per slot.

    Row i holds the triangles (band, (slot + slots[i]) % N_p, kind) for each
    (band, slot, kind) in triangles.
    """
    band, slot, kind = slot_labels(mesh, triangles)
    shifted = (slot + np.asarray(slots)[:, None]) % mesh.n_points
    return slot_view(mesh, np.arange(mesh.n_triangles))[band, shifted, kind]


def traced_peak(fn, *args):
    """fn(*args), and the most memory it held at once beyond what it was
    given, in bytes, from tracemalloc (the same to the byte in every run)."""
    tracemalloc.start()
    try:
        out = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak


@pytest.fixture(scope="session")
def desk_mesh():
    return build_ring_mesh(MeshParams(r_min=0.6, r_max=1.4, h=0.06))


@pytest.fixture(scope="session")
def desk_op(desk_mesh):
    return assemble_laplacian(desk_mesh, "dirichlet")


@pytest.fixture(scope="session")
def desk_trap(desk_mesh):
    return trap_field(PotentialParams(m=M_EFF, V0=V0), desk_mesh)


@pytest.fixture(scope="session")
def desk_ground_state(desk_trap, desk_op):
    res = compute_ground_state(
        desk_trap, desk_op, M_EFF, GAMMA,
        GradientFlowConfig(kappa0=1e-2, epsilon=5e-3))
    assert res.converged
    return res


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    # Replay the acceptance scorecard outside capture so the verdict lines
    # always reach the terminal and any tee'd log.
    mod = sys.modules.get("test_acceptance")
    lines = getattr(mod, "SCORECARD", None) if mod else None
    if lines:
        terminalreporter.section("acceptance scorecard")
        for line in lines:
            terminalreporter.write_line(line)
