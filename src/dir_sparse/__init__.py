"""Sparse recovery with concave losses and penalties.

Minimizes a separable concave penalty of |x| subject to a concave-loss
residual constraint by solving a sequence of reweighted basis-pursuit
denoising subproblems with certified inexactness, plus a feasibility
retraction that keeps every outer iterate admissible.
"""

from .core import (DirConfig, InexactCertificate, ProblemInstance, RunResult,
                   RunStatus, StationarityReport, SubproblemData,
                   build_subproblem, register_engine, retract, run_dir,
                   stationarity_report)
from .losses import (AssumptionReport, LossKind, LossSpec, PenaltySpec,
                     constraint_grad, constraint_value, validate_assumptions)
from .linalg import (least_norm_solution, lambda_max_gram, project_l2_ball,
                     project_weighted_l1_ball, soft_threshold)
from .admm import AdmmState, admm_solve, admm_step
from .spg import SpgState, pareto_newton, spg_lasso
from .harness import (InstanceSpec, Metrics, TrialRecord, compute_metrics,
                      generate_instance, run_batch, run_trial)

__version__ = "0.1.0"

__all__ = [
    "AdmmState", "AssumptionReport", "DirConfig", "InexactCertificate",
    "InstanceSpec", "LossKind", "LossSpec", "Metrics", "PenaltySpec",
    "ProblemInstance", "RunResult", "RunStatus", "SpgState",
    "StationarityReport", "SubproblemData", "TrialRecord", "admm_solve",
    "admm_step", "build_subproblem", "compute_metrics", "constraint_grad",
    "constraint_value", "generate_instance", "lambda_max_gram",
    "least_norm_solution", "pareto_newton", "project_l2_ball",
    "project_weighted_l1_ball", "register_engine", "retract", "run_batch",
    "run_dir", "run_trial", "soft_threshold", "spg_lasso",
    "stationarity_report", "validate_assumptions",
]
