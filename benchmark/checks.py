"""Output checks computed apart from the program.

The six losses act on a squared residual t = r**2 with scale delta and
are written here from their definitions; none of this module calls
``dir_sparse``.
"""

import numpy as np

# Acceptance criterion 4: the reporting point keeps the constraint active.
ACTIVE_RTOL = 5e-3
# The paper's success threshold on the recovery error.
SUCCESS_RECOVERY = 0.01
LEAST_NORM_RTOL = 1e-10
GRAM_LMAX_RTOL = 1e-6
# Relative rounding allowance when re-evaluating the constraint here.
FEASIBLE_RTOL = 1e-9


def loss_value(kind: str, delta: float, t: np.ndarray) -> np.ndarray:
    d2 = delta * delta
    if kind == "cauchy":
        return np.log1p(t / d2)
    if kind == "geman-mcclure":
        return 2.0 * t / (t + 4.0 * d2)
    if kind == "welsh":
        return 1.0 - np.exp(-t / (2.0 * d2))
    if kind == "pseudo-huber":
        return np.sqrt(1.0 + t / d2) - 1.0
    if kind == "huber":
        quad = t <= d2
        return np.where(quad, 0.5 * t, delta * np.sqrt(t) - 0.5 * d2)
    if kind == "tukey-biweight":
        inside = np.minimum(t / d2, 1.0)
        return (d2 / 6.0) * (1.0 - (1.0 - inside) ** 3)
    raise ValueError(f"unknown loss {kind!r}")


def constraint(kind, delta, A, b, x) -> float:
    r = b - A @ x
    return float(np.sum(loss_value(kind, delta, r * r)))


def log_penalty(eps: float, x: np.ndarray) -> float:
    return float(np.sum(np.log1p(np.abs(x) / eps)))


def recovery_error(x, x_true) -> float:
    return float(np.linalg.norm(x - x_true) / max(np.linalg.norm(x_true), 1.0))


def least_norm_reference(A, b) -> np.ndarray:
    return np.linalg.lstsq(A, b, rcond=None)[0]


def check_instance(inst, built, x_least_norm) -> list:
    """Checks on a built ProblemInstance, made outside the timed region."""
    failures = []
    ln_err = np.linalg.norm(built.least_norm - x_least_norm) \
        / np.linalg.norm(x_least_norm)
    if not ln_err <= LEAST_NORM_RTOL:
        failures.append(f"least_norm differs from lstsq by {ln_err:.2e}")
    lmax = float(np.linalg.norm(inst.A, 2)) ** 2
    gram_err = abs(built.gram_lmax - lmax) / lmax
    if not gram_err <= GRAM_LMAX_RTOL:
        failures.append(f"gram_lmax differs from ||A||_2^2 by {gram_err:.2e}")
    return failures


def check_answer(inst, delta, eps, x_report, status, x_least_norm,
                 x_retracted=None, paper_scale=False):
    """Checks on one solve's answer; returns (failures, recovery_error)."""
    failures = []
    if status != "converged":
        failures.append(f"status {status}")
    value = constraint(inst.loss, delta, inst.A, inst.b, x_report)
    gap = abs(value - inst.sigma) / inst.sigma
    if not gap <= ACTIVE_RTOL:
        failures.append(f"constraint not active: |sum phi - sigma|/sigma = {gap:.2e}")
    if x_retracted is not None:
        feas = constraint(inst.loss, delta, inst.A, inst.b, x_retracted)
        if not feas <= inst.sigma * (1.0 + FEASIBLE_RTOL):
            failures.append(f"retracted iterate infeasible: {feas!r} > {inst.sigma!r}")
    if not log_penalty(eps, x_report) < log_penalty(eps, x_least_norm):
        failures.append("objective not below its value at the least-norm point")
    rec = recovery_error(x_report, inst.x_true)
    if paper_scale and not rec <= SUCCESS_RECOVERY:
        failures.append(f"recovery error {rec:.3e} above {SUCCESS_RECOVERY}")
    return failures, rec
