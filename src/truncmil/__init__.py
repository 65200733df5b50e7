"""Truncated Milstein method for super-linear SDEs: schemes, coupled Brownian
grids, strong-convergence and almost-sure-stability experiment harness."""

__version__ = "0.1.0"

from .model import (Assumption, AssumptionReport, EvaluationError, KFunction,
                    ProbeSpec, SdeModel, BUILTIN_MODEL_NAMES, builtin_model,
                    check_assumption, eval_l_op)
from .truncation import (TruncatedCoeffs, TruncationConfig, dominant_rate,
                         new_error_bound, old_condition_threshold, project,
                         truncated_coeffs)
from .brownian import BrownianGrid, coarsen, generate
from .scheme import EnsembleResult, SchemeId, Trajectory, simulate, step
from .experiments import (DecayEnsemble, GapProbe, RateExperimentSpec, RateFit,
                          StabilityConstants, StepConditionComparison,
                          compare_step_conditions, compute_stability_constants,
                          fit_rate, interpolant_gap_probe, run_rate_experiment,
                          run_stability_ensemble, terminal_moment_probe)

__all__ = [
    "Assumption", "AssumptionReport", "BrownianGrid", "BUILTIN_MODEL_NAMES",
    "DecayEnsemble", "EnsembleResult", "EvaluationError", "GapProbe", "KFunction",
    "ProbeSpec", "RateExperimentSpec", "RateFit", "SchemeId", "SdeModel",
    "StabilityConstants", "StepConditionComparison", "Trajectory",
    "TruncatedCoeffs", "TruncationConfig", "builtin_model",
    "check_assumption", "coarsen", "compare_step_conditions",
    "compute_stability_constants", "dominant_rate", "eval_l_op", "fit_rate",
    "generate", "interpolant_gap_probe", "new_error_bound",
    "old_condition_threshold", "project", "run_rate_experiment",
    "run_stability_ensemble", "simulate", "step", "terminal_moment_probe",
    "truncated_coeffs",
]
