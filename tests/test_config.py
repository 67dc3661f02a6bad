import hashlib
import math

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ringgpe.config import (
    PRESET_NAMES,
    TIME_K_MAX_LIMIT,
    parse_config,
    preset_config,
    preset_text,
    serialize_config,
)
from ringgpe.dynamics import KineticFlow, SplitStepConfig
from ringgpe.errors import ConfigError
from ringgpe.fv import assemble_laplacian
from ringgpe.ground_state import GradientFlowConfig
from ringgpe.mesh import (
    MAX_TRIANGLES,
    POINT_COUNT_FACTOR,
    MeshParams,
    build_ring_mesh,
    derive_mesh_counts,
    verify_admissibility,
)
from ringgpe.potentials import PotentialParams
from ringgpe.spectral import RadialProblem

MINIMAL = """
[mesh]
r_min = 0.6
r_max = 1.4
h = 0.1
"""


class TestParsing:
    def test_minimal_config_uses_defaults(self):
        cfg = parse_config(MINIMAL)
        assert cfg.mesh.r_min == 0.6 and cfg.mesh.h == 0.1
        assert cfg.mesh.n_circles is None and not cfg.mesh.match_paper_counts
        assert cfg.bc == "dirichlet"
        assert cfg.potential.m == 10.0 and cfg.potential.V0 == 100.0
        assert cfg.gamma == 100.0 and cfg.potential.V_p == 0.0
        assert cfg.flow.kappa0 == 1e-2 and cfg.flow.epsilon == 5e-3
        assert cfg.initial == "ground-state"
        assert cfg.detect.lambda_max == 10
        assert (cfg.modes_p_max, cfg.modes_l_max, cfg.modes_n) == (3, 80, 500)
        assert cfg.space_h == (0.1, 0.05, 0.025)
        assert (cfg.time_k_min, cfg.time_k_max) == (5, 10)
        assert cfg.out_dir == "out" and cfg.write_vtk

    def test_comments_and_blank_lines_ignored(self):
        cfg = parse_config("# header\n; note\n" + MINIMAL + "\n\n# trailing\n")
        assert cfg.mesh.r_max == 1.4

    def test_whitespace_tolerant(self):
        cfg = parse_config("[mesh]\n  r_min=0.6\nr_max =1.4\n h  =   0.1\n")
        assert cfg.mesh.h == 0.1

    def test_value_overrides(self):
        cfg = parse_config(MINIMAL + """
[physics]
bc = neumann
gamma = 0.0
[split]
tau = 0.01
t_max = 0.5
initial = unstable
[output]
dir = results
vtk = false
""")
        assert cfg.bc == "neumann" and cfg.gamma == 0.0
        assert cfg.split.n_steps == 50
        assert cfg.initial == "unstable"
        assert cfg.out_dir == "results" and not cfg.write_vtk


BAD_CONFIGS = [
    ("[mesh]\nr_min = 0.6\nh = 0.1\n", "missing required key 'r_max'"),
    (MINIMAL + "[physics]\nV_p = 1.5\n", "line 7: [physics] V_p must lie in [0, 1]"),
    (MINIMAL + "[physics]\nm = 0\n", "m must be positive"),
    (MINIMAL + "[detect]\nlambda_max = 0\n", "must be at least 1"),
    ("[mesh]\nr_min = 0.6\nr_min = 0.7\nr_max = 1.4\nh = 0.1\n",
     "line 3: duplicate key 'r_min'"),
    ("[mesh]\nr_min = abc\n", "line 2: [mesh] r_min: expected a number"),
    (MINIMAL + "[physics]\nn_theta = 2.5\n", "expected an integer"),
    (MINIMAL + "[output]\nvtk = yes\n", "expected true or false"),
    (MINIMAL + "[physics]\nbc = periodic\n", "expected one of dirichlet, neumann"),
    (MINIMAL + "[mesh]\nwidth = 3\n", "unknown key 'width'"),
    (MINIMAL + "[split]\nfuse = true\n", "unknown key 'fuse'"),
    ("[grid]\n", "line 1: unknown section [grid]"),
    ("r_min = 0.6\n", "line 1: key outside of any [section]"),
    ("[mesh\nr_min = 0.6\n", "malformed section header"),
    (MINIMAL + "[split]\njust a line\n", "expected 'key = value'"),
    (MINIMAL + "[physics]\nV0 = inf\n", "must be finite"),
    (MINIMAL + "[output]\ndir =\n", "must not be empty"),
    ("[mesh]\nr_min = 1.4\nr_max = 0.6\nh = 0.1\n", "[mesh]:"),
    (MINIMAL + "[split]\ntau = 0.0007\nt_max = 3.0\n", "[split]:"),
    (MINIMAL + "[harness]\ntime_k_min = 8\ntime_k_max = 6\n",
     "time_k_min exceeds time_k_max"),
    (MINIMAL + "[harness]\nspace_h = 0.1, -0.05\n", "entries must be positive"),
    (MINIMAL + "[harness]\nspace_h = 0.1,,0.05\n", "comma-separated"),
    ("[mesh]\nr_min = 0.6\nr_max = 1.4\nh = 0.06\nn_points = 40\n",
     "line 1: [mesh]: mesh triangles are not acute: max angle 2.418662"),
    ("[mesh]\nr_min = 0.6\nr_max = 1.4\nh = 1.0\n", "[mesh]: mesh counts too small"),
    ("[mesh]\nr_min = 0.6\nr_max = 1.4\nh = 1e-9\n",
     "triangles exceeds the limit of 10000000"),
    ("[mesh]\nr_min = 0.6\nr_max = 1.4\nh = 5e-324\n", "gives no finite mesh counts"),
    (MINIMAL + "[harness]\nspace_h = 0.2, 0.1, 1e-3\n",
     "line 6: [harness]: space_h entry 0.001: mesh of 19880718 triangles exceeds"),
    (MINIMAL + "[harness]\nspace_h = 0.1, 1.0, 0.05\n", "space_h entry 1.0: mesh counts too small"),
    (MINIMAL + "[harness]\nspace_h = 5e-324\n", "space_h entry 5e-324: h = 5e-324 gives no"),
    (MINIMAL + "[harness]\ntime_k_max = 21\n",
     "line 7: [harness] time_k_max must lie in [2, 20], got 21"),
    (MINIMAL + "[modes]\np_max = 5\nn = 3\n",
     "line 6: [modes]: p_max = 5 needs n >= p_max + 2 = 7, got n = 3"),
]

NAN = float("nan")

# Constructors whose sign check must refuse NaN, which passes x <= 0 and x < 0.
NAN_PARAMETERS = {
    "MeshParams h": lambda: MeshParams(r_min=0.6, r_max=1.4, h=NAN),
    "derive_mesh_counts h": lambda: derive_mesh_counts(NAN, 0.6, 1.4),
    "GradientFlowConfig kappa0": lambda: GradientFlowConfig(kappa0=NAN),
    "GradientFlowConfig epsilon": lambda: GradientFlowConfig(epsilon=NAN),
    "PotentialParams m": lambda: PotentialParams(m=NAN, V0=100.0),
    "PotentialParams V0": lambda: PotentialParams(m=10.0, V0=NAN),
    "SplitStepConfig tau": lambda: SplitStepConfig(tau=NAN, t_max=1.0),
    "SplitStepConfig t_max": lambda: SplitStepConfig(tau=0.1, t_max=NAN),
    "RadialProblem V0": lambda: RadialProblem(r_min=0.6, r_max=1.4, m=10.0, V0=NAN),
    "KineticFlow tau": lambda: KineticFlow(
        assemble_laplacian(build_ring_mesh(MeshParams(r_min=0.6, r_max=1.4, h=0.2))),
        NAN, 10.0),
}

# Mesh parameters over MINIMAL's, acute and not, in both radius families.
MESH_OVERRIDES = [
    {},
    {"h": 0.06, "n_points": 40},
    {"n_circles": 5, "n_points": 40},
    {"n_circles": 3, "n_points": 3},
    {"n_circles": 12, "n_points": 100, "match_paper_counts": True},
    {"n_circles": 12, "n_points": 20, "match_paper_counts": True},
]


class TestDiagnostics:
    @pytest.mark.parametrize("text,fragment", BAD_CONFIGS,
                             ids=[frag[:32] for _, frag in BAD_CONFIGS])
    def test_bad_input_raises_with_context(self, text, fragment):
        with pytest.raises(ConfigError) as excinfo:
            parse_config(text)
        assert fragment in str(excinfo.value)

    @pytest.mark.parametrize("override", MESH_OVERRIDES)
    def test_acuteness_verdict_matches_admissibility(self, override):
        # The parse-time check looks at slot 0 only; the built mesh agrees.
        params = MeshParams(**{"r_min": 0.6, "r_max": 1.4, "h": 0.1, **override})
        text = "[mesh]\n" + "".join(f"{key} = {_ini_value(value)}\n"
                                    for key, value in vars(params).items()
                                    if value is not None)
        if verify_admissibility(build_ring_mesh(params)).is_admissible:
            assert parse_config(text).mesh == params
        else:
            with pytest.raises(ConfigError, match="not acute"):
                parse_config(text)

    @pytest.mark.parametrize("name", sorted(NAN_PARAMETERS))
    def test_nan_parameter_refused(self, name):
        with pytest.raises(ValueError, match="must be (positive|nonnegative)"):
            NAN_PARAMETERS[name]()

    @pytest.mark.parametrize("ring", ["r_min = 1.0\nr_max = 1.08\nh = 0.02",
                                      "r_min = 0.1\nr_max = 30.0\nh = 1.0"],
                             ids=["thin", "wide"])
    def test_ring_parses_with_default_space_h_it_cannot_build(self, ring):
        # Only conv-space reads space_h, and it checks the default entries
        # itself. The serialized config, which writes them out, parses too.
        cfg = parse_config(f"[mesh]\n{ring}\n")
        assert cfg.space_h == (0.1, 0.05, 0.025)
        assert parse_config(serialize_config(cfg)) == cfg

    @pytest.mark.parametrize("text", [
        "[mesh]\nr_min = 1.0\nr_max = 1.05\nh = 0.01\n",
        MINIMAL + "[physics]\nm = 1e-6\n[modes]\np_max = 0\nl_max = 0\nn = 2\n",
        MINIMAL + "[modes]\nn = 9000\n",
    ], ids=["thin", "light", "fine"])
    def test_modes_parse_whatever_their_radial_residual(self, text):
        # Only the modes stage reads [modes]; it checks the radial residual
        # contract itself, before any output.
        cfg = parse_config(text)
        assert parse_config(serialize_config(cfg)) == cfg

    def test_step_count_refused_by_split_config(self):
        # SplitStepConfig refuses the step where it is made; the parser
        # reports it at the [split] header.
        with pytest.raises(ConfigError) as excinfo:
            parse_config(MINIMAL + "[split]\ntau = 0.0007\nt_max = 3.0\n")
        assert str(excinfo.value) == "line 6: [split]: t_max must be an integer number of steps"

    def test_duplicate_key_in_reopened_section(self):
        text = MINIMAL + "[physics]\nm = 5\n[mesh]\nh = 0.2\n"
        with pytest.raises(ConfigError, match="duplicate key 'h'"):
            parse_config(text)

    def test_line_numbers_count_raw_lines(self):
        # Error line must index the physical file line, comments included.
        text = "# one\n\n[mesh]\nr_min = 0.6\nr_max = 1.4\n# five\nh = zero\n"
        with pytest.raises(ConfigError, match="line 7"):
            parse_config(text)


_POSITIVE = st.floats(min_value=1e-12, max_value=1e12)
_NONNEGATIVE = st.floats(min_value=0.0, max_value=1e12)


def _ini_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ", ".join(repr(x) for x in value)
    return repr(value) if isinstance(value, float) else str(value)


def _space_h_fits(h, r_min, r_max):
    """Whether conv-space can build the mesh of size h on the ring."""
    n_c, n_p = derive_mesh_counts(h, r_min, r_max)
    return n_c >= 2 and 2 * (n_c - 1) * n_p <= MAX_TRIANGLES


@st.composite
def valid_config_texts(draw):
    """INI text of a random valid config; optional keys are sometimes left out."""
    r_min = draw(st.floats(min_value=1e-3, max_value=10.0))
    r_max = r_min + draw(st.floats(min_value=1e-3, max_value=10.0))
    tau = draw(st.floats(min_value=1e-6, max_value=1.0))
    k_min = draw(st.integers(2, 20))
    # Only acute meshes parse. h gives 2..100 circles; a point count, when
    # set, is at least the acute count derive_mesh_counts gives for the
    # circle count in force; a circle count set without one stays within h's.
    h_circles = draw(st.integers(2, 100))
    keep_circles, keep_points = draw(st.booleans()), draw(st.booleans())
    n_circles = draw(st.integers(2, 100 if keep_points else h_circles))
    min_points = math.ceil(POINT_COUNT_FACTOR * (n_circles if keep_circles else h_circles)
                           / (1.0 - r_min / r_max))
    mesh = {
        "r_min": r_min,
        "r_max": r_max,
        "h": (r_max - r_min) / (h_circles - 0.5),
        "n_circles": n_circles,
        "n_points": draw(st.integers(min_points, min_points + 10_000)),
        "match_paper_counts": draw(st.booleans()),
    }
    # A mesh above MAX_TRIANGLES does not parse either (a thin ring needs
    # many points per circle).
    n_c, n_p = derive_mesh_counts(mesh["h"], r_min, r_max)
    n_c = n_circles if keep_circles else n_c
    n_p = mesh["n_points"] if keep_points else n_p
    assume(2 * (n_c - 1 + mesh["match_paper_counts"]) * n_p <= MAX_TRIANGLES)
    # Each space_h entry sizes a mesh on the same ring, and only those that
    # build parse: entries giving 2..100 circles, as for h.
    space_h = tuple((r_max - r_min) / (c - 0.5)
                    for c in draw(st.lists(st.integers(2, 100), min_size=1, max_size=5)))
    assume(all(_space_h_fits(h, r_min, r_max) for h in space_h))
    p_max = draw(st.integers(0, 20))
    modes = {"p_max": p_max, "l_max": draw(st.integers(0, 500)),
             "n": draw(st.integers(p_max + 2, 5000))}
    sections = {
        "mesh": mesh,
        "physics": {
            "bc": draw(st.sampled_from(["dirichlet", "neumann"])),
            "m": draw(_POSITIVE),
            "V0": draw(_NONNEGATIVE),
            "gamma": draw(_NONNEGATIVE),
            "V_p": draw(st.floats(min_value=0.0, max_value=1.0)),
            "n_theta": draw(st.integers(0, 100)),
            "omega": draw(st.floats(min_value=-1e6, max_value=1e6)),
        },
        "flow": {
            "kappa0": draw(_POSITIVE),
            "epsilon": draw(_POSITIVE),
            "max_iters": draw(st.integers(1, 10**6)),
        },
        "split": {
            "tau": tau,
            "t_max": tau * draw(st.integers(1, 10**6)),
            "snapshot_stride": draw(st.integers(0, 10**4)),
            "initial": draw(st.sampled_from(["ground-state", "unstable"])),
        },
        "detect": {
            "tol1": draw(_POSITIVE),
            "tol2": draw(_POSITIVE),
            "lambda_max": draw(st.integers(1, 50)),
            "delta": draw(_POSITIVE),
            "vort_threshold": draw(_POSITIVE),
        },
        "modes": modes,
        "harness": {
            "space_h": space_h,
            "space_beta_max": draw(st.integers(1, 10)),
            "time_k_min": k_min,
            "time_k_max": draw(st.integers(k_min, TIME_K_MAX_LIMIT)),
            "time_t_max": draw(_POSITIVE),
        },
        "output": {
            "dir": draw(st.from_regex(r"[A-Za-z0-9_./-]{1,20}", fullmatch=True)),
            "vtk": draw(st.booleans()),
        },
    }
    # Coupled keys go in or out together: the drawn tau divides the drawn
    # t_max, the drawn time_k_min is at most the drawn time_k_max, and the
    # drawn n is at least the drawn p_max + 2.
    keep = {"r_min": True, "r_max": True, "h": True,
            "n_circles": keep_circles, "n_points": keep_points}
    keep["tau"] = keep["t_max"] = draw(st.booleans())
    keep["time_k_min"] = keep["time_k_max"] = draw(st.booleans())
    keep["p_max"] = keep["n"] = draw(st.booleans())
    lines = []
    for section, keys in sections.items():
        lines.append(f"[{section}]")
        lines.extend(f"{key} = {_ini_value(value)}" for key, value in keys.items()
                     if keep.get(key) or (key not in keep and draw(st.booleans())))
    return "\n".join(lines) + "\n"


class TestSerialization:
    def test_round_trip_is_identity(self):
        cfg = parse_config(MINIMAL + "[physics]\nomega = 0.1\nV_p = 0.05\n")
        again = parse_config(serialize_config(cfg))
        assert again == cfg

    def test_round_trip_preserves_awkward_floats(self):
        text = MINIMAL + f"[physics]\nomega = {10 * math.pi / 3!r}\n[split]\ntau = 0.0006\nt_max = 3.0\n"
        cfg = parse_config(text)
        again = parse_config(serialize_config(cfg))
        assert again.potential.omega == 10 * math.pi / 3
        assert again.split.tau == 0.0006
        assert again == cfg

    def test_count_overrides_serialized_only_when_set(self):
        plain = serialize_config(parse_config(MINIMAL))
        assert "n_circles" not in plain
        overridden = parse_config(
            "[mesh]\nr_min = 0.6\nr_max = 1.4\nh = 0.1\nn_circles = 5\nn_points = 40\n")
        text = serialize_config(overridden)
        assert "n_circles = 5" in text and "n_points = 40" in text
        assert parse_config(text) == overridden

    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(valid_config_texts())
    def test_parse_serialize_parse_is_identity(self, text):
        cfg = parse_config(text)
        canonical = serialize_config(cfg)
        assert parse_config(canonical) == cfg
        assert serialize_config(parse_config(canonical)) == canonical


# sha256 of each preset's full INI text: the presets are stored as overrides
# over the schema defaults, so a change to a default or to the serializer
# would otherwise alter them silently.
PRESET_SHA256 = {
    "paper62": "e600f8b5966f71fd1656a9f97d0efa0c8a5f8b6e4591507ab76a7aabfaefd767",
    "unstable-dirichlet": "9f8b9985848175303e43f0d8fcddc1320363909da6f472bcf107130f8e8a8ff0",
    "unstable-neumann": "4f0f0cfffed6982fd85befb621d98af8f0293bb413e38728bb8b7ee8705e3ec4",
}


class TestPresets:
    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_preset_text_pinned(self, name):
        digest = hashlib.sha256(preset_text(name).encode()).hexdigest()
        assert digest == PRESET_SHA256[name]

    @pytest.mark.parametrize("name", PRESET_NAMES)
    def test_presets_parse_and_round_trip(self, name):
        cfg = preset_config(name)
        assert parse_config(serialize_config(cfg)) == cfg

    def test_stirred_preset_values(self):
        cfg = preset_config("paper62")
        assert (cfg.mesh.n_circles, cfg.mesh.n_points) == (41, 486)
        assert cfg.mesh.match_paper_counts
        assert cfg.potential.V_p == 0.05 and cfg.potential.n_theta == 6
        assert cfg.potential.omega == pytest.approx(10 * math.pi / 3, rel=1e-15)
        assert cfg.split.n_steps == 5000 and cfg.split.t_max == 3.0
        assert cfg.gamma == 100.0 and cfg.bc == "dirichlet"
        assert cfg.detect.vort_threshold == 50.0
        assert (cfg.modes_p_max, cfg.modes_l_max, cfg.modes_n) == (3, 80, 500)
        assert cfg.initial == "ground-state"

    def test_unstable_presets(self):
        d = preset_config("unstable-dirichlet")
        assert d.initial == "unstable" and d.potential.V_p == 0.0
        assert d.bc == "dirichlet" and d.potential.V0 == 100.0
        n = preset_config("unstable-neumann")
        assert n.initial == "unstable" and n.bc == "neumann"
        assert n.potential.V0 == 0.0 and n.gamma == 100.0

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="unknown preset"):
            preset_text("paper63")
