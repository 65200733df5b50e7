"""Truncated Milstein method for super-linear SDEs: schemes, coupled Brownian
grids, strong-convergence and almost-sure-stability experiment harness."""

__version__ = "0.1.0"

from .model import (Assumption, KFunction, ProbeSpec, SdeModel, builtin_model,
                    check_assumption)
from .truncation import TruncationConfig, dominant_rate, project
from .brownian import coarsen, generate
from .scheme import SchemeId, step
from .experiments import (RateExperimentSpec, compare_step_conditions,
                          compute_stability_constants, run_rate_experiment,
                          run_stability_ensemble, terminal_moment_probe)

__all__ = [
    "Assumption", "KFunction", "ProbeSpec", "RateExperimentSpec", "SchemeId",
    "SdeModel", "TruncationConfig", "builtin_model", "check_assumption", "coarsen",
    "compare_step_conditions", "compute_stability_constants", "dominant_rate",
    "generate", "project", "run_rate_experiment", "run_stability_ensemble", "step",
    "terminal_moment_probe",
]
