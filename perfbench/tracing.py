"""Spans around ringgpe's public calls, recorded from outside the package.

A span wraps a name at the place where its caller looks it up, so a call
made through any other name is not seen.  Every span records its call count
and its self time: its duration minus the time covered by spans opened
inside it.  Spans are kept in memory as per-name totals.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from contextlib import contextmanager, nullcontext

import ringgpe.dynamics
import ringgpe.fv
import ringgpe.ground_state
import ringgpe.harness
import ringgpe.io
import ringgpe.spectral
import ringgpe.vortex

# (span name, owner, attribute).  The benchmark itself calls ringgpe through
# module attributes (fv.assemble_laplacian, dynamics.evolve, ...), so those
# names are wrapped as well as the ones the package looks up internally.
PATCHES = (
    ("harness.run_pipeline", ringgpe.harness, "run_pipeline"),
    ("mesh.build", ringgpe.harness, "build_ring_mesh"),
    ("mesh.verify", ringgpe.harness, "verify_admissibility"),
    ("fv.assemble", ringgpe.harness, "assemble_laplacian"),
    ("fv.assemble", ringgpe.fv, "assemble_laplacian"),
    ("ground_state.flow", ringgpe.harness, "compute_ground_state"),
    ("ground_state.step", ringgpe.ground_state, "gradient_flow_step"),
    ("io.mesh_tables", ringgpe.io, "write_mesh_tables"),
    ("io.field_csv", ringgpe.io, "write_field_table"),
    ("io.vtk", ringgpe.io, "write_legacy_vtk"),
    ("io.tables", ringgpe.io, "write_admissibility_table"),
    ("io.tables", ringgpe.io, "write_flow_history_table"),
    ("io.tables", ringgpe.io, "write_vortex_table"),
    ("io.tables", ringgpe.io, "write_mode_table"),
    ("io.tables", ringgpe.io, "write_eigenvalue_table"),
    ("io.manifest", ringgpe.io, "write_manifest"),
    ("dynamics.evolve", ringgpe.dynamics, "evolve"),
    ("dynamics.cayley_factor", ringgpe.dynamics.KineticFlow, "__init__"),
    ("dynamics.kinetic", ringgpe.dynamics.KineticFlow, "apply"),
    ("dynamics.potential", ringgpe.dynamics, "flow_potential"),
    ("potentials.phase_integral", ringgpe.dynamics, "phase_integral"),
    # An emission inside evolve is a closure; these are the public calls it
    # makes, and evolve makes them nowhere else.
    ("dynamics.emission", ringgpe.dynamics, "energy"),
    ("dynamics.emission", ringgpe.dynamics, "total_field"),
    ("dynamics.emission", ringgpe.dynamics, "norm"),
    ("vortex.density", ringgpe.vortex, "detect_by_density"),
    ("mesh.shells", ringgpe.vortex, "triangle_shells"),
    ("spectral.mode_basis", ringgpe.spectral, "mode_basis"),
    ("spectral.radial_modes", ringgpe.spectral, "radial_modes"),
    ("spectral.decompose", ringgpe.spectral, "decompose"),
)

# Spans opened by the benchmark's own code around a group of calls.
OWN_SPANS = ("vortex.reg_vorticity", "vortex.pseudo_vorticity")

# Spans that must record calls on each workload.  A zero there means the
# workload no longer reaches the layer through its public name, and the
# layer's figures would read as free.
_SETUP_SPANS = (
    "harness.run_pipeline", "mesh.build", "mesh.verify", "fv.assemble",
    "ground_state.flow", "io.mesh_tables", "io.field_csv", "io.vtk",
    "io.tables", "io.manifest",
)
_EVOLVE_SPANS = (
    "dynamics.evolve", "dynamics.cayley_factor", "dynamics.kinetic",
    "dynamics.potential", "potentials.phase_integral", "dynamics.emission",
)
HEAVY = {
    "stir": _SETUP_SPANS + ("ground_state.step",) + _EVOLVE_SPANS,
    "snake": _SETUP_SPANS + _EVOLVE_SPANS,
    "census": _SETUP_SPANS + (
        "ground_state.step", "vortex.density", "mesh.shells",
        "vortex.reg_vorticity", "vortex.pseudo_vorticity",
        "spectral.mode_basis", "spectral.radial_modes", "spectral.decompose",
    ),
}


def no_span(name: str):
    """Span factory used when tracing is off."""
    return nullcontext()


class Tracer:
    """Per-name call counts and self times of nested spans."""

    def __init__(self):
        self.calls: Counter[str] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self._children: list[float] = []  # child time of each open span

    @contextmanager
    def span(self, name: str):
        self._children.append(0.0)
        start = time.perf_counter()
        try:
            yield
        finally:
            duration = time.perf_counter() - start
            children = self._children.pop()
            if self._children:
                self._children[-1] += duration
            self.calls[name] += 1
            self.self_s[name] += duration - children

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                return fn(*args, **kwargs)
        return traced

    @contextmanager
    def patched(self, patches=PATCHES):
        """Wrap every (name, owner, attribute) for the duration of the block."""
        saved = []
        try:
            for name, owner, attr in patches:
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def per_call_ms(self, name: str) -> float:
        calls = self.calls[name]
        return 1e3 * self.self_s[name] / calls if calls else 0.0
