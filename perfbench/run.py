"""ringgpe benchmark.

    python3 perfbench/run.py --workload {stir,snake,census} --seed N \
        --seconds S --trace {0,1}

Run from the root of a source checkout; the program is imported from its
src/ directory.  One process is one workload, single-threaded.  It sets the
workload up SETUP_REPS times, then repeats the workload's operation (at
least once) while another one still fits in S seconds from the start of the
first set-up, gating every set-up and operation.  The last line of standard
output is one JSON object; its metrics are BENCHMARK.json's end_to_end list
with --trace 0 and its per_layer list with --trace 1.  The traced run sets
up once, runs the operation once untraced and once with spans around
ringgpe's public calls.  See README.md for the workloads and the layer
table.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
LEDGER = ROOT / ".perfbench_counts.json"

# The same caps as the command line's --threads 1; they only take effect if
# set before numpy loads.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

SETUP_REPS = 2
PROBE_REF_MS = 20.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("stir", "snake", "census"))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def make_probe():
    """A fixed host-speed probe that calls nothing in ringgpe.

    One pass does the kinds of work ringgpe spends its time on: sparse LU
    solves, vectorised math, float formatting and interpreted loops.  The
    probe returns the median of nine passes in milliseconds.
    """
    import numpy as np
    import scipy.sparse as sp
    from scipy.sparse.linalg import splu

    n = 150
    lap = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
    lu = splu((sp.kronsum(lap, lap) + 0.5 * sp.identity(n * n)).tocsc())
    b = np.random.default_rng(0).standard_normal(n * n)

    def one_pass() -> float:
        start = time.perf_counter()
        x = lu.solve(lu.solve(b))
        for _ in range(4):
            y = np.exp(-np.sin(x) ** 2)
        "\n".join(["%.17g" % v for v in y[:2500]])
        total = 0
        for i in range(50_000):
            total += i % 7
        return time.perf_counter() - start

    return lambda: 1e3 * statistics.median(one_pass() for _ in range(9))


class Clock:
    """Raw wall times of sections, with a host-speed probe after each.

    The host's speed drifts by tens of percent over minutes, and every
    section drifts with it; single probes also jump by a fifth from one
    second to the next.  rescale() converts a raw time to the time on a
    host where the probe takes PROBE_REF_MS, using the mean of all the
    run's probes: a section feels the host's average speed over its length.
    """

    def __init__(self, probe):
        self.probe = probe
        self.probes = [probe()]

    def time(self, fn):
        start = time.perf_counter()
        result = fn()
        raw = time.perf_counter() - start
        self.probes.append(self.probe())
        return result, raw

    def rescale(self, seconds: float) -> float:
        return seconds * PROBE_REF_MS / statistics.mean(self.probes)


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *Path(__file__).parent.glob("*.py")]):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def ledger_errors(key: str, counts: dict) -> list[str]:
    """Compare counts with earlier runs of the same code on the same inputs."""
    from checks import count_errors

    try:
        ledger = json.loads(LEDGER.read_text())
    except FileNotFoundError:
        ledger = {}
    earlier = ledger.get(key, {})
    errors = count_errors(earlier, counts, "this run")
    ledger[key] = {**counts, **earlier}
    tmp = LEDGER.with_name(LEDGER.name + f".{os.getpid()}")
    tmp.write_text(json.dumps(ledger, indent=1, sort_keys=True))
    os.replace(tmp, LEDGER)
    return errors


def timed_run(args, tmp: Path, tally, clock: Clock) -> dict:
    import workloads
    from checks import flow_errors
    from tracing import no_span

    deadline = time.perf_counter() + args.seconds
    setup_s = []
    s = None
    for k in range(SETUP_REPS):
        s = None  # release the previous set-up before building the next
        s, raw = clock.time(lambda: workloads.set_up(args.workload, args.seed, tmp / f"setup-{k}"))
        setup_s.append(raw)
        tally.record(f"set-up {k + 1}", flow_errors(s.pipeline.ground_state),
                     workloads.setup_counts(s))
        print(f"set-up {k + 1}: {raw:.3f} s")

    op_s = []
    while not op_s or time.perf_counter() + op_s[-1] <= deadline:
        result, raw = clock.time(lambda: workloads.run_op(s, no_span))
        op_s.append(raw)
        tally.record(f"op {len(op_s)}", *workloads.check_op(s, result))
        result = None
        print(f"op {len(op_s)}: {raw:.3f} s")
    return {"setup_s": clock.rescale(statistics.median(setup_s)),
            "op_s": clock.rescale(statistics.median(op_s))}


def traced_run(args, tmp: Path, tally, clock: Clock, import_s: float) -> dict:
    import workloads
    from checks import completeness_errors, flow_errors
    from tracing import HEAVY, Tracer, no_span

    tracer = Tracer()
    with tracer.patched():
        s, _ = clock.time(lambda: workloads.set_up(args.workload, args.seed, tmp / "setup"))
    tally.record("set-up", flow_errors(s.pipeline.ground_state), workloads.setup_counts(s))

    def traced_op():
        with tracer.patched():
            return workloads.run_op(s, tracer.span)

    op_s = {}
    for what, op in (("op", lambda: workloads.run_op(s, no_span)), ("traced op", traced_op)):
        result, op_s[what] = clock.time(op)
        tally.record(what, *workloads.check_op(s, result))
        result = None
        print(f"{what}: {op_s[what]:.3f} s")

    tally.flag(completeness_errors(tracer.calls, HEAVY[args.workload]))
    tally.counts.update({f"{name}.calls": n for name, n in tracer.calls.items()})
    for name in sorted(tracer.calls):
        print(f"span {name}: {tracer.calls[name]} calls, {tracer.self_s[name]:.4f} s raw self time")

    calls, counts = tracer.calls, tally.counts

    def self_s(name):
        return clock.rescale(tracer.self_s[name])

    def ms(name):
        return clock.rescale(tracer.per_call_ms(name))

    candidates = counts.get("vortex.density_candidates", 0)
    records = counts.get("vortex.density_records", 0)
    evolves = args.workload != "census"
    return {
        "dynamics.kinetic_calls": calls["dynamics.kinetic"],
        "dynamics.kinetic_ms": ms("dynamics.kinetic"),
        "dynamics.cayley_factor_s": self_s("dynamics.cayley_factor"),
        "dynamics.potential_calls": calls["dynamics.potential"],
        "dynamics.potential_ms": ms("dynamics.potential"),
        "potentials.phase_integral_ms": ms("potentials.phase_integral"),
        "dynamics.emission_s": self_s("dynamics.emission"),
        "dynamics.evolve_self_s": self_s("dynamics.evolve"),
        "dynamics.steps_per_s": workloads.N_STEPS / clock.rescale(op_s["op"]) if evolves else 0.0,
        "ground_state.flow_s": self_s("ground_state.flow"),
        "ground_state.iterations": counts["ground_state.iterations"],
        "ground_state.rejections": counts["ground_state.rejections"],
        "ground_state.step_ms": ms("ground_state.step"),
        "vortex.density_s": self_s("vortex.density"),
        "vortex.density_candidates": candidates,
        "vortex.density_records": records,
        "vortex.confirm_ratio": records / candidates if candidates else 0.0,
        "vortex.reg_vorticity_s": self_s("vortex.reg_vorticity"),
        "vortex.reg_vorticity_records": counts.get("vortex.reg_vorticity_records", 0),
        "vortex.pseudo_vorticity_s": self_s("vortex.pseudo_vorticity"),
        "vortex.pseudo_vorticity_records": counts.get("vortex.pseudo_vorticity_records", 0),
        "mesh.shells_calls": calls["mesh.shells"],
        "mesh.shells_s": self_s("mesh.shells"),
        "spectral.mode_basis_s": self_s("spectral.mode_basis"),
        "spectral.radial_modes_calls": calls["spectral.radial_modes"],
        "spectral.decompose_s": self_s("spectral.decompose"),
        "spectral.basis_mb": counts.get("spectral.basis_bytes", 0) / 2 ** 20,
        "io.mesh_tables_s": self_s("io.mesh_tables"),
        "io.field_csv_s": self_s("io.field_csv"),
        "io.vtk_s": self_s("io.vtk"),
        "io.tables_s": self_s("io.tables"),
        "io.manifest_s": self_s("io.manifest"),
        "io.bytes_written": counts["io.setup_bytes"] + counts.get("io.op_bytes", 0),
        "mesh.build_s": self_s("mesh.build"),
        "mesh.verify_s": self_s("mesh.verify"),
        "fv.assemble_s": self_s("fv.assemble"),
        "harness.self_s": self_s("harness.run_pipeline"),
        "host.import_s": import_s,
        "host.calib_ms": statistics.mean(clock.probes),
        "trace.overhead_s": clock.rescale(op_s["traced op"] - op_s["op"]),
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "ringgpe" / "__init__.py").is_file():
        print(f"perfbench: no ringgpe sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for name in THREAD_VARS:
        os.environ[name] = "1"
    sys.path.insert(0, str(SRC))

    start = time.perf_counter()
    import ringgpe.harness  # numpy, scipy and every ringgpe module
    import checks
    import workloads  # noqa: F401
    import_s = time.perf_counter() - start
    if Path(ringgpe.harness.__file__).resolve().parent != SRC / "ringgpe":
        print(f"perfbench: ringgpe imported from {ringgpe.harness.__file__}, "
              f"not from {SRC}", file=sys.stderr)
        return 2

    clock = Clock(make_probe())
    tally = checks.Tally()
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        if args.trace:
            values = traced_run(args, Path(tmp), tally, clock, import_s)
            declared = spec["per_layer"]
        else:
            values = timed_run(args, Path(tmp), tally, clock)
            values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            declared = spec["end_to_end"]

    inputs = str(args.seed) if args.workload == "census" else "preset"
    key = f"{args.workload}/{inputs}/{_source_digest()}"
    tally.flag(ledger_errors(key, tally.counts))
    print(f"host: import {import_s:.3f} s, probes "
          + " ".join(f"{p:.2f}" for p in clock.probes) + " ms")
    for name, value in sorted(tally.counts.items()):
        print(f"count {name} = {value}")

    print(json.dumps({
        "correct": tally.failed == 0 and not tally.flags,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
