"""Tests of the benchmark's own gates; run with

    python3 -m pytest perfbench/test_checks.py
"""

import sys
import types
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from ringgpe.fv import Field  # noqa: E402
from ringgpe.mesh import MeshParams, build_ring_mesh  # noqa: E402
from ringgpe.vortex import DetectionParams, detect_by_density  # noqa: E402

CORES = [(1.0 + 0j, 1), (1j, -1), (-1.0 + 0j, -1), (-1j, 1)]


@pytest.fixture(scope="module")
def uniform():
    mesh = build_ring_mesh(MeshParams(r_min=0.6, r_max=1.4, h=0.08))
    return Field.constant(mesh, 1.0)


def census(base, cores):
    records = detect_by_density(workloads.planted_state(base, cores), DetectionParams())
    return checks.census_errors(records, CORES, workloads.CORE_WIDTH)


def test_census_gate_accepts_the_planted_cores(uniform):
    assert census(uniform, CORES) == []


def test_census_gate_rejects_a_missing_core(uniform):
    assert census(uniform, CORES[:-1])


def test_census_gate_rejects_a_flipped_charge(uniform):
    flipped = [(z, -c) if i == 1 else (z, c) for i, (z, c) in enumerate(CORES)]
    errors = census(uniform, flipped)
    assert any("charge" in e for e in errors)


def test_plant_cores_is_seeded_and_separated():
    cores = workloads.plant_cores(7)
    assert cores == workloads.plant_cores(7)
    assert sorted(c for _, c in cores) == [-1] * 6 + [1] * 6
    z = np.array([p for p, _ in cores])
    gaps = np.abs(z[:, None] - z[None, :]) + np.eye(len(z))
    assert gaps.min() >= 0.3


def test_drift_gate():
    rng = np.random.default_rng(0)
    u = rng.standard_normal(500) + 1j * rng.standard_normal(500)
    areas = rng.uniform(0.5, 1.5, 500)
    assert checks.drift_errors(u, u * np.exp(1j * rng.uniform(0, 6, 500)), areas) == []
    assert checks.drift_errors(u, u * (1 + 1e-9), areas)
    broken = u.copy()
    broken[3] = np.nan
    assert checks.drift_errors(u, broken, areas)


def test_completeness_catches_a_span_never_called():
    fake = types.SimpleNamespace(used=lambda: 1, unused=lambda: 2)
    tracer = tracing.Tracer()
    with tracer.patched([("fake.used", fake, "used"), ("fake.unused", fake, "unused")]):
        fake.used()
    assert checks.completeness_errors(tracer.calls, ["fake.used"]) == []
    assert checks.completeness_errors(tracer.calls, ["fake.used", "fake.unused"]) == [
        "span fake.unused recorded no calls"]


def test_self_time_excludes_child_spans():
    tracer = tracing.Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            sum(range(200_000))
    assert tracer.calls == {"outer": 1, "inner": 1}
    assert tracer.self_s["outer"] < tracer.self_s["inner"]


def test_every_patched_name_exists_and_is_restored():
    originals = [owner.__dict__[attr] for _, owner, attr in tracing.PATCHES]
    with tracing.Tracer().patched():
        pass
    assert originals == [owner.__dict__[attr] for _, owner, attr in tracing.PATCHES]
    heavy = {name for names in tracing.HEAVY.values() for name in names}
    assert heavy <= {name for name, _, _ in tracing.PATCHES} | set(tracing.OWN_SPANS)


def test_tally_fails_an_operation_whose_count_changed():
    tally = checks.Tally()
    tally.record("op 1", [], {"a": 1, "b": 2})
    tally.record("op 2", [], {"a": 1, "c": 5})
    assert (tally.attempted, tally.failed) == (2, 0)
    tally.record("op 3", [], {"a": 2})
    tally.record("op 4", ["gate failed"], {})
    assert (tally.attempted, tally.failed) == (4, 2)
    assert checks.count_errors(tally.counts, {"a": 2}, "op 3") == ["a = 2 in op 3, 1 before"]
