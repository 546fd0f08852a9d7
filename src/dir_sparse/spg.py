"""Spectral projected-gradient engine for the weighted BPDN subproblem.

The subproblem min ||w o x||_1 s.t. ||A_k x - b_w|| <= sigma_bar is solved
through its Pareto curve: the optimal value tau* is the root of
phi(tau) = sigma_bar, where phi(tau) is the optimal residual norm of the
tau-constrained weighted LASSO.  Each phi evaluation is a projected
gradient solve with Barzilai-Borwein steps and a nonmonotone line search;
the root is tracked by safeguarded Newton steps using the dual-norm slope
phi'(tau) = -||A_k^T r / w||_inf / ||r||.

Two modes: "certified" keeps tightening the LASSO tolerance until the
subproblem certificate passes its inexactness bounds (honestly reporting
failure when escalation is exhausted); "blackbox" runs to the default
tolerance and records, but never enforces, the certificate bounds.
"""

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .core import InexactCertificate, SubproblemData, _retract, register_engine
# The benchmark's tracer wraps dir_sparse.spg.retract by that name, so it
# stays importable here although the descent check goes through _retract.
from .core import retract  # noqa: F401
from .linalg import project_weighted_l1_ball

_TINY = np.finfo(float).tiny
# Barzilai-Borwein step bounds, Armijo constant, nonmonotone memory and
# iteration cap of spg_lasso.
_ALPHA_MIN = 1e-10
_ALPHA_MAX = 1e10
_ARMIJO_CONST = 1e-4
_NONMONOTONE_MEMORY = 10
_MAX_SPG_PER_LASSO = 20_000
# LASSO tolerance in blackbox mode, and the starting one in certified mode.
_LASSO_TOL = 1e-6
_LASSO_TOL_CERTIFIED = 1e-9
_MAX_NEWTON = 50
# Times certified mode tightens the LASSO tolerance tenfold before failing.
_MAX_ESCALATIONS = 4


@dataclass
class SpgState:
    """Root-finding state carried across warm-started solves."""

    tau: float
    x_lasso: np.ndarray
    sigma_bar: float
    history: list = field(default_factory=list)  # (tau, phi, slope) triples


def _projection_multiplier(y, x_proj, w):
    """Shrinkage multiplier theta of the weighted-l1 projection y -> x_proj."""
    i = int(np.argmax(np.abs(x_proj)))
    if x_proj[i] == 0.0:
        return 0.0
    return max((abs(y[i]) - abs(x_proj[i])) / w[i], 0.0)


def spg_lasso(sub: SubproblemData, tau: float, warm=None,
              tol: float | None = None):
    """Approximately minimize 0.5 ||A_k x - b_w||^2 over ||w o x||_1 <= tau.

    Projected gradient iterations with BB step sizes clamped to
    [_ALPHA_MIN, _ALPHA_MAX] and an Armijo backtracking test against the max
    of the last ``_NONMONOTONE_MEMORY`` objective values.  Stops when the
    relative step or the relative duality gap reaches ``tol`` (default
    ``_LASSO_TOL``), confirmed by
    the unit-step fixed-point residual staying within 10 * tol.

    Returns ``(x, lasso_multiplier, iterations, converged)``.  The
    multiplier is the shrinkage multiplier of a unit-step gradient
    projection at the final iterate; at a fixed point the projection
    multiplier scales linearly with the step, so the unit-step probe is
    the exact KKT scalar there (and is insensitive to the incidental step
    size of the last accepted move, whose projection may have been
    inactive).
    """
    tol = _LASSO_TOL if tol is None else tol
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    w = sub.w
    n = w.shape[0]
    if tau == 0.0:
        return np.zeros(n), 0.0, 0, True

    x = np.zeros(n) if warm is None else np.asarray(warm, dtype=float)
    x = project_weighted_l1_ball(x, w, tau)
    r = sub.b_w - sub.matvec(x)
    f = 0.5 * float(r @ r)
    g = -sub.rmatvec(r)
    alpha = min(_ALPHA_MAX, max(_ALPHA_MIN, 1.0 / max(np.abs(g).max(), _TINY)))
    recent = deque([f], maxlen=_NONMONOTONE_MEMORY)
    lam = 0.0
    converged = False
    it = 0

    f_noise = 10.0 * np.finfo(float).eps
    for it in range(1, _MAX_SPG_PER_LASSO + 1):
        f_ref = max(recent)
        # Allowance for float cancellation in f; without it the test can
        # never pass near a fixed point and backtracking kills the step.
        slack = f_noise * max(1.0, f_ref)
        step = alpha
        for _ in range(60):
            y = x - step * g
            x_new = project_weighted_l1_ball(y, w, tau)
            r_new = sub.b_w - sub.matvec(x_new)
            f_new = 0.5 * float(r_new @ r_new)
            if f_new <= f_ref + _ARMIJO_CONST * float(g @ (x_new - x)) + slack:
                break
            step *= 0.5
        g_new = -sub.rmatvec(r_new)

        dx = x_new - x
        step_norm = float(np.linalg.norm(dx))
        dual_norm = float(np.abs(g_new / w).max())
        gap = tau * dual_norm + float(x_new @ g_new)
        rel_gap = abs(gap) / max(1.0, f_new)
        # Cancellation noise floor of the gap computation; below it the gap
        # test says nothing about the iterate and only the step test counts.
        gap_noise = 100.0 * np.finfo(float).eps \
            * (tau * dual_norm + float(np.abs(x_new * g_new).sum())) \
            / max(1.0, f_new)
        rel_step = step_norm / max(float(np.linalg.norm(x)), 1.0)

        # BB step from the accepted move.
        dg = g_new - g
        sy = float(dx @ dg)
        if sy > _TINY:
            alpha = min(_ALPHA_MAX, max(_ALPHA_MIN, float(dx @ dx) / sy))
        else:
            alpha = _ALPHA_MAX
        x, r, f, g = x_new, r_new, f_new, g_new
        recent.append(f)

        if rel_step <= tol or (rel_gap <= tol and tol >= gap_noise):
            # A tiny BB step alone does not certify optimality (alpha may
            # just be small); confirm with the unit-step fixed-point
            # residual before stopping.
            probe = project_weighted_l1_ball(x - g, w, tau)
            fp_norm = float(np.linalg.norm(x - probe))
            if fp_norm <= 10.0 * tol * max(float(np.linalg.norm(x)), 1.0):
                lam = _projection_multiplier(x - g, probe, w)
                converged = True
                break

    if not converged and it > 0:
        probe = project_weighted_l1_ball(x - g, w, tau)
        lam = _projection_multiplier(x - g, probe, w)
    return x, lam, it, converged


def _certificate(sub: SubproblemData, x, lasso_multiplier):
    """Assemble the inexact certificate at the current LASSO iterate.

    The ball variable is the projection of A_k x - b_w onto the sphere of
    radius sigma_bar, so the coupling residual is exactly
    | ||A_k x - b_w|| - sigma_bar |.  The subproblem multiplier rescales
    the reciprocal LASSO multiplier by rho / sigma_bar, which makes the
    KKT inclusion algebraically exact at an exact LASSO optimum.
    """
    Akx = sub.matvec(x)
    res = Akx - sub.b_w
    rho = float(np.linalg.norm(res))
    sigma_bar = sub.sigma_bar
    if rho > 0.0:
        u = (sigma_bar / rho) * res
    else:
        u = np.zeros_like(res)
    if lasso_multiplier > 0.0:
        mult = rho / (sigma_bar * lasso_multiplier)
    else:
        mult = 0.0
    q = mult * sub.rmatvec(u)
    dist = np.where(x != 0.0,
                    np.abs(sub.w * np.sign(x) + q),
                    np.maximum(np.abs(q) - sub.w, 0.0))
    pulled, _ = _retract(sub, x, Akx)
    descent_ok = bool(np.abs(sub.w * pulled).sum() <= sub.ref_objective + sub.mu_k)
    return InexactCertificate(
        x_tilde=x, u_tilde=u, multiplier=mult,
        kkt_residual=float(np.linalg.norm(dist)),
        coupling_residual=abs(rho - sigma_bar),
        descent_ok=descent_ok)


def pareto_newton(sub: SubproblemData, warm: SpgState | None = None,
                  mode: str = "certified"):
    """Find the subproblem solution by Newton steps on the Pareto curve.

    Starts at tau = 0 (whose LASSO solution is exactly 0) and iterates
    tau <- tau + (sigma_bar - phi) / phi' with the dual-norm slope,
    safeguarded by bisection once the root is bracketed.  The LASSO solves
    are warm started from the previous iterate (and, across outer
    iterations, from the warm state's solution).

    Returns ``(certificate, state, info)``.  In certified mode the
    certificate bounds are enforced by tightening the LASSO tolerance up
    to ``_MAX_ESCALATIONS`` times; ``info["ok"]`` reports the outcome.  In
    blackbox mode the bounds are recorded but never enforced.
    """
    if mode not in ("certified", "blackbox"):
        raise ValueError(f"unknown mode {mode!r}")
    certified = mode == "certified"
    sigma_bar = sub.sigma_bar
    b_norm = float(np.linalg.norm(sub.b_w))
    if b_norm <= sigma_bar:
        raise ValueError(
            "degenerate subproblem: x = 0 is already feasible (the Pareto "
            "root is tau = 0), which the standing assumptions rule out")

    lasso_tol = _LASSO_TOL_CERTIFIED if certified else _LASSO_TOL
    mach_slack = 50.0 * np.finfo(float).eps * max(1.0, b_norm)
    root_tol = max(1e-6 * sigma_bar, mach_slack)
    if certified:
        root_tol = max(min(root_tol, 0.5 * sub.eps_k), mach_slack)

    n = sub.w.shape[0]
    warm_x = warm.x_lasso if warm is not None else None

    tau = 0.0
    x = np.zeros(n)
    phi = b_norm
    r = sub.b_w
    slope = -float(np.abs(sub.rmatvec(r) / sub.w).max()) / max(phi, _TINY)
    lasso_multiplier = 0.0
    history = [(tau, phi, slope)]
    tau_lo = 0.0            # phi(tau_lo) > sigma_bar
    tau_hi = None           # phi(tau_hi) < sigma_bar once observed
    total_inner = 0
    escalations = 0
    newton_steps = 0
    ok = not certified
    cert = None

    for _ in range(_MAX_NEWTON):
        if abs(phi - sigma_bar) <= root_tol:
            cert = _certificate(sub, x, lasso_multiplier)
            if not certified or cert.criteria_met(sub.eps_k):
                ok = True
                break
            if escalations >= _MAX_ESCALATIONS:
                ok = False
                break
            escalations += 1
            lasso_tol *= 0.1
            root_tol = max(0.1 * root_tol, mach_slack)
            tau_next = tau     # re-evaluate in place at the tighter tolerance
        else:
            if phi > sigma_bar:
                tau_lo = max(tau_lo, tau)
            else:
                tau_hi = tau if tau_hi is None else min(tau_hi, tau)
            tau_next = tau + (sigma_bar - phi) / slope if slope < 0.0 else None
            if (tau_next is None or tau_next <= tau_lo
                    or (tau_hi is not None and tau_next >= tau_hi)):
                tau_next = (0.5 * (tau_lo + tau_hi) if tau_hi is not None
                            else max(2.0 * tau, 1.0))

        x0 = x if tau > 0.0 else (warm_x if warm_x is not None else x)
        x, lasso_multiplier, iters, _ = spg_lasso(sub, tau_next, x0,
                                                  tol=lasso_tol)
        total_inner += iters
        newton_steps += 1
        r = sub.b_w - sub.matvec(x)
        phi = float(np.linalg.norm(r))
        if phi > 0.0:
            slope = -float(np.abs(sub.rmatvec(r) / sub.w).max()) / phi
        else:
            slope = 0.0
        tau = tau_next
        history.append((tau, phi, slope))
    if cert is None:
        cert = _certificate(sub, x, lasso_multiplier)
        if certified:
            ok = cert.criteria_met(sub.eps_k)

    state = SpgState(tau=tau, x_lasso=x, sigma_bar=sigma_bar, history=history)
    info = {"iterations": total_inner, "ok": ok, "newton_steps": newton_steps,
            "escalations": escalations,
            "root_gap": abs(phi - sigma_bar)}
    return cert, state, info


# Looked up at call time, so a wrapper installed on pareto_newton sees the
# calls.
register_engine("spg", lambda sub, warm: pareto_newton(sub, warm),
                certified=True)
register_engine("spg-blackbox",
                lambda sub, warm: pareto_newton(sub, warm, "blackbox"),
                certified=False)
