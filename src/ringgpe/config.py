"""Run configuration: INI-style text, validation, serialization, presets.

The format is flat: [section] headers, one key = value per line, full-line
comments starting with # or ;. Sections cover the mesh, the physics, the
ground-state flow, the split-step integrator, vortex detection, the mode
decomposition, the convergence harnesses, and output. Unknown sections or
keys, malformed lines, type errors and range violations all raise
ConfigError carrying the offending line number.

serialize_config() writes every key back explicitly, floats via repr (exact
for doubles), so parse -> serialize -> parse is the identity.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import attrgetter
from typing import Callable

from .dynamics import SplitStepConfig
from .errors import ConfigError
from .ground_state import GradientFlowConfig
from .mesh import MeshParams, max_triangle_angle
from .potentials import PotentialParams
from .vortex import DetectionParams

__all__ = [
    "RunConfig",
    "parse_config",
    "serialize_config",
    "PRESET_NAMES",
    "preset_text",
    "preset_config",
]

INITIAL_GROUND_STATE = "ground-state"
INITIAL_UNSTABLE = "unstable"
# The time-convergence study takes about 2^(time_k_max + 2) steps.
TIME_K_MAX_LIMIT = 20


@dataclass(frozen=True)
class RunConfig:
    """Validated parameters for one run; sub-configs reuse the solver types."""

    mesh: MeshParams
    bc: str
    potential: PotentialParams
    gamma: float
    flow: GradientFlowConfig
    split: SplitStepConfig
    initial: str
    detect: DetectionParams
    modes_p_max: int
    modes_l_max: int
    modes_n: int
    space_h: tuple[float, ...]
    space_beta_max: int
    time_k_min: int
    time_k_max: int
    time_t_max: float
    out_dir: str
    write_vtk: bool


# ---------------------------------------------------------------------------
# schema


def _to_float(raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise ValueError(f"expected a number, got {raw!r}") from None
    if not math.isfinite(value):
        raise ValueError("value must be finite")
    return value


def _to_int(raw: str) -> int:
    try:
        return int(raw, 10)
    except ValueError:
        raise ValueError(f"expected an integer, got {raw!r}") from None


def _to_bool(raw: str) -> bool:
    if raw == "true":
        return True
    if raw == "false":
        return False
    raise ValueError(f"expected true or false, got {raw!r}")


def _to_str(raw: str) -> str:
    if not raw:
        raise ValueError("value must not be empty")
    return raw


def _to_choice(*options: str) -> Callable[[str], str]:
    def convert(raw: str) -> str:
        if raw not in options:
            raise ValueError(f"expected one of {', '.join(options)}, got {raw!r}")
        return raw

    return convert


def _to_float_list(raw: str) -> tuple[float, ...]:
    parts = [p.strip() for p in raw.split(",")]
    if any(not p for p in parts):
        raise ValueError(f"expected comma-separated numbers, got {raw!r}")
    return tuple(_to_float(p) for p in parts)


def _positive(v) -> str | None:
    return None if v > 0 else "must be positive"


def _nonnegative(v) -> str | None:
    return None if v >= 0 else "must be >= 0"


def _at_least(bound: int) -> Callable[[int], str | None]:
    return lambda v: None if v >= bound else f"must be at least {bound}"


def _int_range(lo: int, hi: int) -> Callable[[int], str | None]:
    return lambda v: None if lo <= v <= hi else f"must lie in [{lo}, {hi}], got {v}"


def _unit_range(v) -> str | None:
    return None if 0.0 <= v <= 1.0 else "must lie in [0, 1]"


def _all_positive(values) -> str | None:
    return None if all(v > 0 for v in values) else "entries must be positive"


_REQUIRED = object()


@dataclass(frozen=True)
class _Key:
    # RunConfig attribute the value lands in; "part.field" names a field of
    # the sub-config in RunConfig.part (see _PARTS).
    attr: str
    convert: Callable[[str], object]
    default: object = _REQUIRED
    check: Callable[[object], str | None] | None = None


# Section and key order here is the order serialize_config writes.
_SCHEMA: dict[str, dict[str, _Key]] = {
    "mesh": {
        "r_min": _Key("mesh.r_min", _to_float, check=_positive),
        "r_max": _Key("mesh.r_max", _to_float, check=_positive),
        "h": _Key("mesh.h", _to_float, check=_positive),
        "n_circles": _Key("mesh.n_circles", _to_int, default=None, check=_at_least(2)),
        "n_points": _Key("mesh.n_points", _to_int, default=None, check=_at_least(3)),
        "match_paper_counts": _Key("mesh.match_paper_counts", _to_bool, default=False),
    },
    "physics": {
        "bc": _Key("bc", _to_choice("dirichlet", "neumann"), default="dirichlet"),
        "m": _Key("potential.m", _to_float, default=10.0, check=_positive),
        "V0": _Key("potential.V0", _to_float, default=100.0, check=_nonnegative),
        "gamma": _Key("gamma", _to_float, default=100.0, check=_nonnegative),
        "V_p": _Key("potential.V_p", _to_float, default=0.0, check=_unit_range),
        "n_theta": _Key("potential.n_theta", _to_int, default=0, check=_nonnegative),
        "omega": _Key("potential.omega", _to_float, default=0.0),
    },
    "flow": {
        "kappa0": _Key("flow.kappa0", _to_float, default=1e-2, check=_positive),
        "epsilon": _Key("flow.epsilon", _to_float, default=5e-3, check=_positive),
        "max_iters": _Key("flow.max_iters", _to_int, default=50000, check=_at_least(1)),
    },
    "split": {
        "tau": _Key("split.tau", _to_float, default=1e-3, check=_positive),
        "t_max": _Key("split.t_max", _to_float, default=1.0, check=_positive),
        "snapshot_stride": _Key("split.snapshot_stride", _to_int, default=0,
                                check=_nonnegative),
        "initial": _Key("initial", _to_choice(INITIAL_GROUND_STATE, INITIAL_UNSTABLE),
                        default=INITIAL_GROUND_STATE),
    },
    "detect": {
        "tol1": _Key("detect.tol1", _to_float, default=0.1, check=_positive),
        "tol2": _Key("detect.tol2", _to_float, default=0.05, check=_positive),
        "lambda_max": _Key("detect.lambda_max", _to_int, default=10, check=_at_least(1)),
        "delta": _Key("detect.delta", _to_float, default=0.1, check=_positive),
        "vort_threshold": _Key("detect.vort_threshold", _to_float, default=50.0,
                               check=_positive),
    },
    "modes": {
        "p_max": _Key("modes_p_max", _to_int, default=3, check=_nonnegative),
        "l_max": _Key("modes_l_max", _to_int, default=80, check=_nonnegative),
        "n": _Key("modes_n", _to_int, default=500, check=_at_least(2)),
    },
    "harness": {
        "space_h": _Key("space_h", _to_float_list, default=(0.1, 0.05, 0.025),
                        check=_all_positive),
        "space_beta_max": _Key("space_beta_max", _to_int, default=3, check=_at_least(1)),
        "time_k_min": _Key("time_k_min", _to_int, default=5, check=_at_least(2)),
        "time_k_max": _Key("time_k_max", _to_int, default=10,
                           check=_int_range(2, TIME_K_MAX_LIMIT)),
        "time_t_max": _Key("time_t_max", _to_float, default=0.1, check=_positive),
    },
    "output": {
        "dir": _Key("out_dir", _to_str, default="out"),
        "vtk": _Key("write_vtk", _to_bool, default=True),
    },
}

# Sub-config types, built in schema order; each takes its keys from one section.
_PARTS = {
    "mesh": MeshParams,
    "potential": PotentialParams,
    "flow": GradientFlowConfig,
    "split": SplitStepConfig,
    "detect": DetectionParams,
}


# ---------------------------------------------------------------------------
# parsing


def _read_sections(text: str):
    """Split raw text into {section: {key: (raw value, line number)}}."""
    values: dict[str, dict[str, tuple[str, int]]] = {}
    section_lines: dict[str, int] = {}
    current: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith(("#", ";")):
            continue
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError(f"line {lineno}: malformed section header {line!r}")
            name = line[1:-1].strip()
            if name not in _SCHEMA:
                raise ConfigError(f"line {lineno}: unknown section [{name}]")
            current = name
            values.setdefault(name, {})
            section_lines.setdefault(name, lineno)
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        if current is None:
            raise ConfigError(f"line {lineno}: key outside of any [section]")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _SCHEMA[current]:
            raise ConfigError(f"line {lineno}: unknown key {key!r} in [{current}]")
        if key in values[current]:
            raise ConfigError(f"line {lineno}: duplicate key {key!r} in [{current}]")
        values[current][key] = (value, lineno)
    return values, section_lines


def parse_config(text: str) -> RunConfig:
    """Parse and validate; raises ConfigError with a line number on bad input."""
    values, section_lines = _read_sections(text)
    resolved: dict[tuple[str, str], object] = {}
    for section, keys in _SCHEMA.items():
        seen = values.get(section, {})
        for key, spec in keys.items():
            if key in seen:
                raw, lineno = seen[key]
                try:
                    value = spec.convert(raw)
                except ValueError as exc:
                    raise ConfigError(f"line {lineno}: [{section}] {key}: {exc}") from None
                if spec.check is not None and value is not None:
                    problem = spec.check(value)
                    if problem:
                        raise ConfigError(f"line {lineno}: [{section}] {key} {problem}")
                resolved[section, key] = value
            elif spec.default is _REQUIRED:
                raise ConfigError(f"[{section}] is missing required key {key!r}")
            else:
                resolved[section, key] = spec.default
    return _build(resolved, section_lines)


def space_h_problem(ring: MeshParams, space_h: tuple[float, ...]) -> str | None:
    """Why conv-space cannot build the mesh of some space_h entry on ring, or None."""
    for h in space_h:
        try:
            max_triangle_angle(MeshParams(r_min=ring.r_min, r_max=ring.r_max, h=h))
        except ValueError as exc:
            return f"space_h entry {h!r}: {exc}"
    return None


def _build(v: dict, section_lines: dict[str, int]) -> RunConfig:
    def fail(section: str, exc) -> ConfigError:
        line = section_lines.get(section)
        where = f"line {line}: " if line is not None else ""
        return ConfigError(f"{where}[{section}]: {exc}")

    fields: dict[str, object] = {}
    parts: dict[str, tuple[str, dict[str, object]]] = {}
    for (section, key), value in v.items():
        name, dot, attr = _SCHEMA[section][key].attr.partition(".")
        if dot:
            parts.setdefault(name, (section, {}))[1][attr] = value
        else:
            fields[name] = value
    for name, (section, kwargs) in parts.items():
        try:
            fields[name] = _PARTS[name](**kwargs)
            if name == "mesh":
                angle = max_triangle_angle(fields[name])
                if not angle < math.pi / 2.0:
                    raise ValueError(f"mesh triangles are not acute: max angle "
                                     f"{angle:.6f} >= pi/2")
        except ValueError as exc:
            raise fail(section, exc) from None
    # The default entries fit some rings only, so conv-space checks them when
    # it runs; serialize_config writes them, so they are skipped here by value.
    if fields["space_h"] != _SCHEMA["harness"]["space_h"].default:
        problem = space_h_problem(fields["mesh"], fields["space_h"])
        if problem:
            raise fail("harness", problem)
    if fields["time_k_min"] > fields["time_k_max"]:
        raise fail("harness", "time_k_min exceeds time_k_max")
    # radial_modes needs this pair; run_pipeline checks the residual contract.
    p_max, n = fields["modes_p_max"], fields["modes_n"]
    if not p_max + 2 <= n:
        raise fail("modes", f"p_max = {p_max} needs n >= p_max + 2 = {p_max + 2}, got n = {n}")
    return RunConfig(**fields)


# ---------------------------------------------------------------------------
# serialization


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return ", ".join(repr(float(x)) for x in value)
    return str(value)


def serialize_config(config: RunConfig) -> str:
    """Canonical text with every key explicit; parses back to an equal config.

    The optional mesh counts are written only when set.
    """
    blocks = []
    for section, keys in _SCHEMA.items():
        lines = [f"[{section}]"]
        for key, spec in keys.items():
            value = attrgetter(spec.attr)(config)
            if value is not None:
                lines.append(f"{key} = {_format_value(value)}")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


# ---------------------------------------------------------------------------
# presets: a leading comment plus the keys that differ from the defaults;
# preset_text expands them to the full canonical INI.

# The production mesh and time grid shared by every preset. It ends inside
# [split], so a preset's overrides may continue that section.
_PRODUCTION_RING = """
[mesh]
r_min = 0.6
r_max = 1.4
h = 0.02
n_circles = 41
n_points = 486
match_paper_counts = true

[split]
tau = 0.0006
t_max = 3.0
snapshot_stride = 500
"""

_PRESETS = {
    "paper62": (
        "# Stirred ring: trapped ground state driven by a rotating 6-lobe\n"
        "# perturbation (angular speed 10*pi/3) over t in [0, 3], 5000 steps.\n",
        _PRODUCTION_RING + f"""
[physics]
V_p = 0.05
n_theta = 6
omega = {10.0 * math.pi / 3.0!r}
"""),
    "unstable-dirichlet": (
        "# Sign-flipped ground state released in the static trap: the phase jump\n"
        "# nucleates vortices at the outer edge, then radiates sound waves.\n",
        _PRODUCTION_RING + """
initial = unstable
"""),
    "unstable-neumann": (
        "# Free ring with reflecting walls: the sign-flipped constant ground state\n"
        "# develops a snake instability that breaks into vortex-antivortex pairs.\n",
        _PRODUCTION_RING + """
initial = unstable

[physics]
bc = neumann
V0 = 0.0
"""),
}

PRESET_NAMES = tuple(sorted(_PRESETS))


def preset_text(name: str) -> str:
    if name not in _PRESETS:
        raise ConfigError(f"unknown preset {name!r}; choose from {', '.join(PRESET_NAMES)}")
    comment, overrides = _PRESETS[name]
    return comment + serialize_config(parse_config(overrides))


def preset_config(name: str) -> RunConfig:
    return parse_config(preset_text(name))
