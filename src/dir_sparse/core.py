"""Outer loop of the doubly reweighted solver.

Each outer iteration freezes affine majorants of the penalty and of the
loss at the current feasible point, yielding a weighted basis-pursuit
denoising subproblem.  A pluggable engine solves that subproblem to an
inexact certificate; the answer is pulled back into the feasible set by a
convex-combination retraction with the least-norm interpolant, which makes
the next subproblem well posed no matter how loosely the engine solved the
current one.
"""

from dataclasses import dataclass
from enum import Enum
import json
import time
import warnings
from typing import Optional

import numpy as np

from .linalg import least_norm_solution, lambda_max_gram
from .losses import LossSpec, PenaltySpec, constraint_value, constraint_grad, \
    validate_assumptions

# Absolute slack allowed on feasibility checks; far below any sensible sigma.
FEASIBILITY_SLACK = 1e-10
# sigma_k is clamped to this fraction of sigma if rounding drives it negative.
_SIGMA_K_CLAMP = 1e-15


class RunStatus(str, Enum):
    CONVERGED = "converged"
    MAX_ITERATIONS = "max-iterations"
    SUBPROBLEM_FAILURE = "subproblem-failure"
    CERTIFICATE_VIOLATION = "certificate-violation"


@dataclass(frozen=True)
class ProblemInstance:
    """Problem data (A, b, sigma, loss, penalty) plus cached solver inputs.

    ``least_norm`` is the minimum-norm solution of A x = b (always strictly
    feasible) and ``gram_lmax`` the largest eigenvalue of A A.T used for
    engine step sizes.  Use :meth:`build` so the caches are consistent and
    the standing assumptions are verified.
    """

    A: np.ndarray
    b: np.ndarray
    sigma: float
    loss: LossSpec
    penalty: PenaltySpec
    least_norm: np.ndarray
    gram_lmax: float

    @classmethod
    def build(cls, A, b, sigma, loss, penalty) -> "ProblemInstance":
        """Verify the assumptions and fill the caches from one QR of A.T."""
        A = np.ascontiguousarray(A, dtype=float)
        b = np.asarray(b, dtype=float)
        Q, R = np.linalg.qr(A.T)
        report = validate_assumptions(A, b, sigma, loss, R)
        if not report.ok:
            raise ValueError(f"problem data violates assumptions: {report}")
        return cls(A=A, b=b, sigma=float(sigma), loss=loss, penalty=penalty,
                   least_norm=least_norm_solution(Q, R, b),
                   gram_lmax=lambda_max_gram(R))

    @property
    def shape(self):
        return self.A.shape

    def constraint(self, x) -> float:
        return constraint_value(self.loss, self.A, self.b, x)

    def constraint_gradient(self, x) -> np.ndarray:
        return constraint_grad(self.loss, self.A, self.b, x)

    def objective(self, x) -> float:
        """Separable concave sparsity objective sum_i psi(|x_i|)."""
        return float(np.sum(self.penalty.value(np.abs(x))))

    def is_feasible(self, x, slack: float = FEASIBILITY_SLACK) -> bool:
        return self.constraint(x) <= self.sigma + slack


@dataclass
class SubproblemData:
    """One outer iteration's weighted BPDN data.

    The scaled matrix Diag(v) A is applied implicitly through
    :meth:`matvec`/:meth:`rmatvec`; it is never materialized.
    """

    instance: ProblemInstance
    k: int
    x_k: np.ndarray          # current feasible outer iterate
    w: np.ndarray            # objective weights, > 0
    v: np.ndarray            # row scalings sqrt(phi'_+) of squared residuals
    b_w: np.ndarray          # v * b
    sigma_k: float
    eps_k: float
    mu_k: float
    tau_k: float

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return self.v * (self.instance.A @ x)

    def rmatvec(self, z: np.ndarray) -> np.ndarray:
        return self.instance.A.T @ (self.v * z)

    @property
    def sigma_bar(self) -> float:
        """Radius of the subproblem residual ball, sqrt(sigma_k)."""
        return float(np.sqrt(self.sigma_k))

    @property
    def ref_objective(self) -> float:
        """Weighted l1 value at the anchor point x_k."""
        return float(np.abs(self.w * self.x_k).sum())

    def gram_bound(self) -> float:
        """Upper bound max(v)^2 * lambda_max(A A.T) on the scaled Gram norm."""
        return float(np.max(self.v) ** 2 * self.instance.gram_lmax)


@dataclass
class InexactCertificate:
    """Engine answer for one subproblem with its accuracy measurements.

    ``kkt_residual`` bounds the distance of 0 from the weighted-l1
    subdifferential plus the scaled normal-cone term; ``coupling_residual``
    is the norm of A_k x_tilde - b_w - u_tilde.  ``descent_ok`` records the
    controlled-increase condition on the retracted point.
    """

    x_tilde: np.ndarray
    u_tilde: np.ndarray
    multiplier: float
    kkt_residual: float
    coupling_residual: float
    descent_ok: bool

    def criteria_met(self, eps_k: float) -> bool:
        return (self.kkt_residual <= eps_k
                and self.coupling_residual <= eps_k
                and self.descent_ok)


@dataclass
class StationarityReport:
    """First-order stationarity measurements at a candidate point."""

    lam: float
    primal_feasibility: float
    complementarity: float
    dual_residual: float


@dataclass
class RunResult:
    """Outcome of a full outer run."""

    x_final: np.ndarray          # reporting point: last engine output
    x_retracted: np.ndarray      # last feasible outer iterate
    history: list
    stationarity: Optional[StationarityReport]
    status: RunStatus

    def history_jsonl(self) -> str:
        """One JSON object per outer iteration, newline separated."""
        return "\n".join(json.dumps(rec) for rec in self.history)


@dataclass
class DirConfig:
    """Outer-loop configuration.

    ``engine`` names a registered subproblem engine; the built-ins are
    "admm", "spg" (both certified) and "spg-blackbox".
    """

    engine: str = "admm"
    outer_tol: float = 1e-4
    max_outer: int = 1000


_ENGINES = {}


def register_engine(name: str, solve, *, certified: bool) -> None:
    """Register a subproblem engine under a CLI-usable name.

    ``solve(sub, warm)`` must return ``(InexactCertificate, state, info)``:
    ``state`` is handed back as ``warm`` on the next outer iteration, and
    ``info`` is a dict with at least ``"iterations"`` and ``"ok"``; its
    other entries go into the history record.  A ``certified`` engine
    promises that an ``ok`` answer meets the ``eps_k`` criteria, and
    :func:`run_dir` checks that promise.  External comparison solvers plug
    in through this hook.
    """
    _ENGINES[name] = (solve, bool(certified))


def get_engine(name: str):
    """Return the ``(solve, certified)`` pair registered under ``name``."""
    try:
        return _ENGINES[name]
    except KeyError:
        raise ValueError(
            f"unknown engine {name!r}; registered: {sorted(_ENGINES)}") from None


def available_engines():
    return sorted(_ENGINES)


def build_subproblem(instance: ProblemInstance, x_k: np.ndarray,
                     k: int) -> SubproblemData:
    """Assemble the weighted BPDN subproblem at the feasible point x_k.

    The weights are the right derivatives of the penalty at |x_k|; the row
    scalings are sqrt of the loss right derivatives at the squared
    residuals; the radius sigma_k absorbs the majorization offset so that
    feasibility for the subproblem implies feasibility for the original
    constraint.  The accuracy target tau_k = max(5**-(k+1), 1e-8) and the
    descent allowance mu_k = max(1.2**-(k+1), 1e-8) shrink geometrically.
    """
    y = instance.b - instance.A @ x_k
    phi_vals = instance.loss.value(y * y)
    cval = float(phi_vals.sum())
    if cval > instance.sigma + FEASIBILITY_SLACK:
        raise ValueError(
            f"subproblem anchor infeasible: constraint {cval:.12g} exceeds "
            f"sigma {instance.sigma:.12g}")

    fp = instance.loss.dplus(y * y)
    v = np.sqrt(fp)
    w = instance.penalty.dplus(np.abs(x_k))
    sigma_k = instance.sigma + float(fp @ (y * y)) - cval
    if sigma_k <= 0.0:
        # Impossible in exact arithmetic for a feasible anchor; rounding only.
        warnings.warn(
            f"sigma_k={sigma_k:.3e} clamped to {_SIGMA_K_CLAMP:g}*sigma at "
            f"iteration {k}", RuntimeWarning)
        sigma_k = _SIGMA_K_CLAMP * instance.sigma

    tau_k = max(5.0 ** (-k - 1), 1e-8)
    mu_k = max(1.2 ** (-k - 1), 1e-8)
    eps_k = min(sigma_k, np.sqrt(sigma_k), tau_k)
    return SubproblemData(instance=instance, k=k, x_k=np.asarray(x_k, float),
                          w=w, v=v, b_w=v * instance.b, sigma_k=float(sigma_k),
                          eps_k=float(eps_k), mu_k=float(mu_k), tau_k=float(tau_k))


def retract(sub: SubproblemData, x: np.ndarray) -> np.ndarray:
    """Pull x into the subproblem ball by blending with the least-norm point.

    Returns x unchanged when ||A_k x - b_w||^2 <= sigma_k; otherwise the
    convex combination (1 - t) * least_norm + t * x with
    t = sqrt(sigma_k) / ||A_k x - b_w||, which lands exactly on the ball
    boundary and is feasible for the original constraint as well.
    """
    return _retract(sub, x, sub.matvec(x))[0]


def _retract(sub: SubproblemData, x: np.ndarray, Akx: np.ndarray):
    """:func:`retract` given the product Akx = A_k x.

    Returns the retracted point and ||A_k x - b_w||, so callers that hold
    the product, or need the norm, spend no further product with A.
    """
    nrm = float(np.linalg.norm(Akx - sub.b_w))
    if nrm * nrm <= sub.sigma_k:
        return x, nrm
    t = sub.sigma_bar / nrm
    return (1.0 - t) * sub.instance.least_norm + t * x, nrm


def stationarity_report(instance: ProblemInstance, x: np.ndarray,
                        lam: float) -> StationarityReport:
    """Measure the first-order conditions at (x, lam) with lam >= 0.

    The dual residual is the Euclidean norm of the componentwise distance
    from g = -lam * grad(constraint) to the set psi'_+(|x_i|) * d|x_i|,
    which is the singleton {psi'_+(|x_i|) sign(x_i)} off zero and the
    interval [-psi'_+(0), psi'_+(0)] at zero.
    """
    if lam < 0:
        raise ValueError("multiplier must be nonnegative")
    x = np.asarray(x, dtype=float)
    primal = instance.constraint(x) - instance.sigma
    g = -lam * instance.constraint_gradient(x)
    wvals = instance.penalty.dplus(np.abs(x))
    dist = np.where(x != 0.0,
                    np.abs(g - wvals * np.sign(x)),
                    np.maximum(np.abs(g) - wvals, 0.0))
    return StationarityReport(lam=float(lam),
                              primal_feasibility=float(primal),
                              complementarity=float(lam * primal),
                              dual_residual=float(np.linalg.norm(dist)))


def run_dir(instance: ProblemInstance, config: Optional[DirConfig] = None,
            x0: Optional[np.ndarray] = None) -> RunResult:
    """Run the doubly reweighted outer loop until the step stalls.

    Starts from the least-norm interpolant unless a feasible ``x0`` is
    given.  Every iteration builds the reweighted subproblem, hands it to
    the configured engine (warm started from the previous inner state) and
    retracts the engine's answer into the feasible set.  Stops when the
    relative step ||x_{k+1} - x_k|| / max(||x_k||, 1) drops to
    ``outer_tol``, when ``max_outer`` is hit, or when a certified engine
    exhausts its accuracy escalations.  A certified engine that reports
    success with a certificate failing the ``eps_k`` criteria stops the run
    with status ``certificate-violation``; that answer is discarded and the
    result holds the iterations before it.
    """
    config = config or DirConfig()
    solve, certified = get_engine(config.engine)

    if x0 is None:
        x = instance.least_norm.copy()
    else:
        x = np.asarray(x0, dtype=float).copy()
        if not instance.is_feasible(x):
            raise ValueError("x0 violates the constraint")

    history = []
    status = RunStatus.MAX_ITERATIONS
    warm = None
    zeta = x
    last_mult = 0.0
    psi_curr = instance.objective(x)
    constraint_curr = instance.constraint(x)

    for k in range(config.max_outer):
        tic = time.perf_counter()
        sub = build_subproblem(instance, x, k)
        cert, warm, info = solve(sub, warm)
        ok = bool(info["ok"])
        if certified and ok and not cert.criteria_met(sub.eps_k):
            status = RunStatus.CERTIFICATE_VIOLATION
            break

        x_next, sub_residual = _retract(sub, cert.x_tilde,
                                        sub.matvec(cert.x_tilde))
        step = float(np.linalg.norm(x_next - x))
        rel_step = step / max(float(np.linalg.norm(x)), 1.0)
        psi_next = instance.objective(x_next)
        constraint_next = instance.constraint(x_next)

        record = {
            "k": k,
            "sigma_k": sub.sigma_k,
            "eps_k": sub.eps_k,
            "mu_k": sub.mu_k,
            "tau_k": sub.tau_k,
            "objective": psi_curr,
            "objective_next": psi_next,
            "constraint": constraint_curr,
            "constraint_next": constraint_next,
            "inner_iterations": int(info["iterations"]),
            "kkt_residual": cert.kkt_residual,
            "coupling_residual": cert.coupling_residual,
            "descent_ok": bool(cert.descent_ok),
            "multiplier": cert.multiplier,
            "criteria_enforced": certified and ok,
            "subproblem_residual": sub_residual,
            "retraction_displacement": float(np.linalg.norm(
                x_next - cert.x_tilde)),
            "anchor_gap": float(np.linalg.norm(
                instance.least_norm - cert.x_tilde)),
            "step_norm": step,
            "rel_step": rel_step,
            "elapsed_seconds": time.perf_counter() - tic,
        }
        for key, val in info.items():
            if key not in ("iterations", "ok"):
                record.setdefault(key, val)
        history.append(record)

        zeta = cert.x_tilde
        last_mult = cert.multiplier
        x = x_next
        psi_curr = psi_next
        constraint_curr = constraint_next

        if not ok:
            status = RunStatus.SUBPROBLEM_FAILURE
            break
        if rel_step <= config.outer_tol:
            status = RunStatus.CONVERGED
            break

    report = stationarity_report(instance, zeta, last_mult / 2.0)
    return RunResult(x_final=np.asarray(zeta, dtype=float),
                     x_retracted=x, history=history,
                     stationarity=report, status=status)
