"""Correctness gates and repeat checks of the benchmark.

Every check returns a list of error messages; an empty list passes.  None
of them calls into ringgpe, so a defect in the program cannot also switch
off the check that would catch it.  Tally keeps a run's score.
"""

from __future__ import annotations

import numpy as np

MAX_MASS_DRIFT = 1e-12


def flow_errors(ground_state) -> list[str]:
    """The gradient flow must reach its residual target."""
    if ground_state.converged:
        return []
    return [f"gradient flow did not converge after {ground_state.iterations} "
            f"iterations (residual {ground_state.residual:.3e})"]


def drift_errors(initial: np.ndarray, final: np.ndarray, areas: np.ndarray) -> list[str]:
    """The evolved state stays finite and keeps its area-weighted mass."""
    if not np.isfinite(final).all():
        return ["evolved state is not finite"]
    m0 = float(np.sum(np.abs(initial) ** 2 * areas))
    m1 = float(np.sum(np.abs(final) ** 2 * areas))
    drift = abs(m1 - m0) / m0
    if not drift <= MAX_MASS_DRIFT:
        return [f"relative mass drift {drift:.3e} above {MAX_MASS_DRIFT:.0e}"]
    return []


def census_errors(records, cores, width: float) -> list[str]:
    """The density detector must return exactly the planted cores.

    records carry .position and .index_or_sign; cores is a list of
    (complex position, charge).  There must be one record per core, and each
    core needs exactly one record within one core width, with its charge.
    """
    errors = []
    if len(records) != len(cores):
        errors.append(f"{len(records)} density records for {len(cores)} planted cores")
    for z, charge in cores:
        near = [i for i, r in enumerate(records) if abs(complex(*r.position) - z) <= width]
        if len(near) != 1:
            errors.append(f"core at {z:.3f}: {len(near)} records within {width}")
            continue
        found = records[near[0]].index_or_sign
        if found != charge:
            errors.append(f"core at {z:.3f}: charge {found}, planted {charge}")
    return errors


def completeness_errors(calls, heavy) -> list[str]:
    """Every span marked heavy for the workload must have recorded calls."""
    return [f"span {name} recorded no calls" for name in heavy if calls.get(name, 0) == 0]


def count_errors(reference: dict, counts: dict, where: str) -> list[str]:
    """Counts that both dicts hold must be equal."""
    return [f"{name} = {counts[name]} in {where}, {reference[name]} before"
            for name in sorted(reference.keys() & counts.keys())
            if counts[name] != reference[name]]


class Tally:
    """Operations attempted and failed, and the counts that must repeat."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.counts: dict[str, int] = {}
        self.flags: list[str] = []

    def record(self, what: str, errors: list[str], counts: dict):
        errors = errors + count_errors(self.counts, counts, what)
        for name, value in counts.items():
            self.counts.setdefault(name, value)
        self.attempted += 1
        if errors:
            self.failed += 1
        for error in errors:
            print(f"FAIL {what}: {error}")

    def flag(self, errors: list[str]):
        """Failures of the run as a whole rather than of one operation."""
        self.flags.extend(errors)
        for error in errors:
            print(f"FLAG {error}")
