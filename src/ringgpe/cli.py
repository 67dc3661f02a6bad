"""Command line front end.

Heavy imports happen inside main() after --threads is applied: the BLAS
thread-pool environment variables only take effect if they are set before
numpy loads, so this module must import nothing numerical at top level.
The command then runs under scipy.fft.set_workers of the same count, which
the environment variables do not reach.

Exit codes: 0 success, 2 configuration error or unusable output directory,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

# Kept in sync with config.PRESET_NAMES (test-enforced); listed literally so
# building the parser does not import the numerical stack.
PRESETS = ("paper62", "unstable-dirichlet", "unstable-neumann")

_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

_COMMANDS = {
    "mesh": "build the triangulation and write its tables",
    "ground-state": "run the normalized gradient flow",
    "evolve": "integrate the dynamics from the configured initial state",
    "vortices": "evolve, then run all three vortex detectors on the final state",
    "modes": "evolve, then decompose the initial and final states on the mode basis",
    "conv-space": "mesh-size convergence study of the discrete Laplacian",
    "conv-time": "time-step convergence study of the splitting",
    "pipeline": "full run: mesh, ground state, evolution, vortices, modes",
}

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ringgpe",
        description="Finite-volume simulations of a stirred ring condensate.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH",
                        help="run configuration file")
    common.add_argument("--preset", choices=PRESETS,
                        help="built-in configuration (alternative to --config)")
    common.add_argument("--out", metavar="DIR",
                        help="output directory (overrides the configured one)")
    common.add_argument("--threads", type=int, metavar="N",
                        help="cap BLAS/OpenMP thread pools and scipy.fft workers at N")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    for name, help_text in _COMMANDS.items():
        sub.add_parser(name, parents=[common], help=help_text)
    return parser


def _fail(code: int, message: str) -> int:
    print(f"ringgpe: {message}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)

    if args.threads is not None:
        if args.threads < 1:
            return _fail(2, "--threads must be a positive integer")
        for name in _THREAD_VARS:
            os.environ[name] = str(args.threads)
        import scipy.fft

        with scipy.fft.set_workers(args.threads):
            return _run(args)
    return _run(args)


def _run(args) -> int:
    from .config import parse_config, preset_config
    from .errors import ConfigError, NumericalError
    from .harness import run_pipeline, run_space_convergence, run_time_convergence

    if (args.config is None) == (args.preset is None):
        return _fail(2, "exactly one of --config or --preset is required")
    try:
        if args.config is not None:
            try:
                text = Path(args.config).read_text(encoding="utf-8")
            except OSError as exc:
                return _fail(2, f"cannot read config: {exc}")
            config = parse_config(text)
        else:
            config = preset_config(args.preset)
    except ConfigError as exc:
        return _fail(2, f"config error: {exc}")

    out_dir = Path(args.out) if args.out is not None else Path(config.out_dir)

    try:
        if args.command == "conv-space":
            result = run_space_convergence(config, out_dir)
            for beta, slope in sorted(result.slopes.items()):
                print(f"beta {beta}: slope {slope:.4f}")
        elif args.command == "conv-time":
            result = run_time_convergence(config, out_dir)
            for k, tau, m_phi in result.rows:
                print(f"k {k} (tau {tau:.3e}): m_phi {m_phi:.4f}")
        else:
            stages = None if args.command == "pipeline" else (args.command,)
            result = run_pipeline(config, out_dir, stages=stages)
            if result.ground_state is not None:
                gs = result.ground_state
                print(f"ground state: energy {gs.energy:.6f} after "
                      f"{gs.iterations} iterations (residual {gs.residual:.3e})")
            if result.evolution is not None:
                ev = result.evolution
                n_p = result.mesh.n_points
                sign = ", antiperiodic" if ev.sign < 0 else ""
                print(f"evolved to t = {ev.times[-1]:g}: mass {ev.mass[-1]:.12f}, "
                      f"energy {ev.energy[-1]:.6f} "
                      f"(sector k={ev.fold}{sign}, {n_p // ev.fold} of {n_p} slots)")
            for method, records in result.vortices.items():
                charges = ", ".join(str(r.index_or_sign) for r in records) or "none"
                print(f"{method}: {len(records)} detection(s) [{charges}]")
            if result.coeffs_final is not None:
                print(f"mode grid: {result.coeffs_final.shape[0]} x "
                      f"{result.coeffs_final.shape[1]} coefficients")
    except ConfigError as exc:
        return _fail(2, f"config error: {exc}")
    except NumericalError as exc:
        return _fail(3, f"numerical failure: {exc}")
    except OSError as exc:
        return _fail(2, f"cannot write output: {exc}")

    print(f"wrote {len(result.files)} file(s) + manifest to {out_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
