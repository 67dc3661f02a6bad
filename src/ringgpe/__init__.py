"""Finite-volume Gross-Pitaevskii toolkit on annular meshes.

Submodule attributes resolve lazily (PEP 562): the command line must be able
to pin the BLAS thread-pool environment variables before anything imports
numpy, so importing this package alone stays free of numerical dependencies.
"""

from importlib import import_module

_EXPORTS = {
    "mesh": (
        "MeshParams", "RingMesh", "AdmissibilityReport", "build_ring_mesh",
        "compute_radii", "derive_mesh_counts", "triangle_shells",
        "verify_admissibility",
    ),
    "fv": (
        "Field", "LaplacianOperator", "assemble_laplacian", "complex_pairing",
        "discrete_curl", "discrete_gradient", "inner_product", "norm",
        "normalize",
    ),
    "potentials": (
        "PhaseTable", "PotentialParams", "eval_total", "phase_integral",
        "phase_table", "total_field", "trap_field",
    ),
    "ground_state": (
        "GradientFlowConfig", "GroundStateResult", "SlotInvariantProblem",
        "compute_ground_state", "energy", "gradient_flow_step",
    ),
    "dynamics": (
        "EvolveResult", "KineticFlow", "SplitStepConfig", "evolve",
        "flow_potential", "make_unstable_state", "order_estimate",
    ),
    "vortex": (
        "DetectionParams", "VortexRecord", "detect_by_density",
        "detect_by_vorticity", "pseudo_vorticity", "regularized_vorticity",
    ),
    "spectral": (
        "AnnulusEigenpair", "ModeBasis", "RadialProblem",
        "annulus_eigenfunction_field", "annulus_eigenpairs", "decompose",
        "mode_basis", "radial_modes",
    ),
    "config": (
        "PRESET_NAMES", "RunConfig", "parse_config", "preset_config",
        "preset_text", "serialize_config",
    ),
    "harness": (
        "PIPELINE_STAGES", "PipelineResult", "SpaceConvergenceResult",
        "TimeConvergenceResult", "run_pipeline", "run_space_convergence",
        "run_time_convergence",
    ),
    "errors": ("ConfigError", "NumericalError"),
}

_ATTR_TO_MODULE = {
    name: module for module, names in _EXPORTS.items() for name in names
}

__all__ = sorted(_ATTR_TO_MODULE) + ["__version__"]

__version__ = "0.1.0"


def __getattr__(name: str):
    module = _ATTR_TO_MODULE.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return __all__
