"""Spectral projected-gradient engine for the weighted BPDN subproblem.

The subproblem min ||w o x||_1 s.t. ||A_k x - b_w|| <= sigma_bar is solved
through its Pareto curve: the optimal value tau* is the root of
phi(tau) = sigma_bar, where phi(tau) is the optimal residual norm of the
tau-constrained weighted LASSO.  Each phi evaluation is a projected
gradient solve with Barzilai-Borwein steps and a nonmonotone line search
along the fixed projected direction d = P(x - alpha g) - x, so that an
iteration spends one projection, one product A_k d and one product
A_k^T r.  It stops on the bound ||d|| max(1, 1/alpha) on the unit-step
fixed-point residual and returns the exact point (x, r = b_w - A_k x,
g = -A_k^T r), which starts the next solve and certifies the answer at no
further product (:func:`~dir_sparse.core.sphere_certificate`).
The root is tracked by safeguarded Newton steps using the dual-norm
slope phi'(tau) = -||g / w||_inf / ||r||.  The Newton steps are inexact,
as in SPGL1 (van den Berg & Friedlander 2008, section 3): the duality gap
of a LASSO iterate puts phi(tau) in [phi_lo, ||r||], and a solve ends as
soon as that interval is narrow next to its distance from sigma_bar, which
settles the side of the root without settling phi(tau) itself.  Such a
solve never lands within the root tolerance, so no certificate is read
from it.

Each subproblem's closed-form face answers
(:func:`~dir_sparse.core.face_solve`) are tried by its
:class:`~dir_sparse.core.FaceGate`, which the ADMM engine uses too: on
the previous answer's face when it is made, then on the LASSO iterates
(its docstring has the rules).  A face answer, in either mode, answers
the subproblem.  When the warm try fails, the Newton steps run as above
from tau = 0, since a start from that answer saves no pass once its face
fails.

Both modes run the LASSO solves at one tolerance, ``_LASSO_TOL``.
"certified" tightens it tenfold only when the subproblem certificate fails
its inexactness bounds at the root, down to 1e-13, and honestly reports
failure when that escalation is exhausted; "blackbox" never tightens, and
records, but never enforces, the certificate bounds.
"""

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .core import FaceGate, InexactCertificate, SubproblemData, _tally, \
    register_engine, sphere_certificate
# The benchmark's tracer wraps dir_sparse.spg.retract by that name, so it
# stays importable here although the certificate retracts in core.
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
# LASSO tolerance of both modes; certified mode starts here.
_LASSO_TOL = 1e-6
# Inexact-Newton factor c: a solve given a Pareto target ends once its
# duality-gap interval on phi is within c (|phi - sigma_bar| - root_tol).
_PARETO_STOP = 0.1
_MAX_NEWTON = 50
# Times certified mode tightens the LASSO tolerance tenfold before failing,
# so its tightest solve runs at _LASSO_TOL / 10**7 = 1e-13.
_MAX_ESCALATIONS = 7


@dataclass
class SpgState:
    """The answer ``x_lasso`` at ``tau``; a warm solve reads only its face."""

    tau: float
    x_lasso: np.ndarray


def _projection_multiplier(y, x_proj, w):
    """Shrinkage multiplier theta of the weighted-l1 projection y -> x_proj."""
    i = int(np.argmax(np.abs(x_proj)))
    if x_proj[i] == 0.0:
        return 0.0
    return max((abs(y[i]) - abs(x_proj[i])) / w[i], 0.0)


def _exact_point(sub: SubproblemData, x):
    """Exact (x, r, g): r = b_w - A_k x, free at x = 0, and g = -A_k^T r."""
    r = sub.b_w - sub.matvec(x) if x.any() else sub.b_w.copy()
    return x, r, -sub.rmatvec(r)


def _phi_floor(sub: SubproblemData, tau: float, x, g, f: float):
    """Lower bound on phi(tau) at a LASSO iterate x with f = 0.5 ||r||^2.

    With the duality gap gap = tau ||g / w||_inf + x . g, phi(tau) lies in
    [sqrt(max(2 (f - gap), 0)), ||r||].
    """
    gap = tau * float(np.abs(g / sub.w).max()) + float(x @ g)
    return np.sqrt(max(2.0 * (f - gap), 0.0))


def spg_lasso(sub: SubproblemData, tau: float, start=None,
              tol: float = _LASSO_TOL, stats: dict | None = None,
              _target: tuple[float, float] | None = None,
              _gate: FaceGate | None = None):
    """Approximately minimize 0.5 ||A_k x - b_w||^2 over ||w o x||_1 <= tau.

    ``start`` is an exact point ``(x, r, g)`` as returned here, or
    ``None`` for the origin (one ``rmatvec``).  A start that the projection
    onto the ball returns unchanged keeps its r and g and spends no
    product; any other is projected, and its r and g cost one product each
    way.  At tau = 0 that point is returned.

    Projected gradient iterations with BB step sizes alpha clamped to
    [_ALPHA_MIN, _ALPHA_MAX].  Each iteration projects once, for the
    direction d = P(x - alpha g) - x, and spends one ``matvec`` on A_k d and
    one ``rmatvec`` on the new gradient.  The step x + s d is searched along
    that fixed direction (SPGL1's projected search, van den Berg &
    Friedlander 2008): s = 1, 1/2, ... until the Armijo test against the max
    of the last ``_NONMONOTONE_MEMORY`` objective values holds, with the
    residual r - s A_k d, so backtracking spends no product and no
    projection.

    Stops as soon as the next direction d gives
    ||d|| max(1, 1/alpha) <= 10 tol max(||x||, 1).  Since ||P(x - t g) - x||
    grows with t and shrinks divided by t (Calamai & More 1987), that value
    bounds the unit-step fixed-point residual ||P(x - g) - x||, so the stop
    holds that residual within 10 tol whatever the step size alpha.

    ``_target = (sigma_bar, root_tol)``, passed by :func:`pareto_newton`,
    adds SPGL1's inexact-Newton stop.  After each iteration, with
    phi = ||r|| and the duality gap gap = tau ||g / w||_inf + x . g,
    phi(tau) lies in [phi_lo, phi], phi_lo = sqrt(max(phi^2 - 2 gap, 0));
    the solve ends once phi - phi_lo <= _PARETO_STOP (|phi - sigma_bar| -
    root_tol).  As _PARETO_STOP < 1, sigma_bar then lies outside
    [phi_lo, phi], so the side of the root is certain, and
    |phi - sigma_bar| > root_tol.  The gap is formed only for this test;
    without a target the solve is exactly the plain one.

    ``_gate``, the subproblem's :class:`~dir_sparse.core.FaceGate` passed
    by :func:`pareto_newton`, is shown x and ||r|| after each iteration
    it says is due.  After a failed face try the next 1, 3, 7, ... looks
    are skipped, since each try factors the face's Gram matrix.  A try
    that answers the subproblem returns at once, with the carried x, r and
    g and multiplier 0, as the answer is ``_gate.cert``.  Without a gate no
    face is tried.

    When ``stats`` is a dict, ``"pareto_stops"`` is incremented, counting
    from 0 when absent, when the target ended the solve.

    Returns ``(x, lasso_multiplier, iterations, converged, r, g)``, with r
    and g recomputed exactly at exit, since the residual carried through
    the iterations drifts by rounding; ``converged`` is False only when
    the solve stopped at ``_MAX_SPG_PER_LASSO`` iterations.  The
    multiplier is the shrinkage multiplier of a unit-step gradient
    projection at the final iterate; at a fixed point the projection
    multiplier scales linearly with the step, so the unit-step probe is
    the exact KKT scalar there, whatever the step size of the last move
    (whose projection may have been inactive).
    """
    if tau < 0:
        raise ValueError("tau must be nonnegative")
    w = sub.w
    n = w.shape[0]
    if start is None:
        x, r, g = _exact_point(sub, np.zeros(n))
    else:
        x, r, g = start
        x_in = project_weighted_l1_ball(x, w, tau)
        if not np.array_equal(x_in, x):
            x, r, g = _exact_point(sub, x_in)
    if tau == 0.0:
        return x, 0.0, 0, True, r, g

    alpha = min(_ALPHA_MAX, max(_ALPHA_MIN, 1.0 / max(np.abs(g).max(), _TINY)))
    d = project_weighted_l1_ball(x - alpha * g, w, tau) - x
    recent = deque([0.5 * float(r @ r)], maxlen=_NONMONOTONE_MEMORY)
    converged = False
    it = 0
    misses = skip = 0       # failed face tries; looks left to skip

    f_noise = 10.0 * np.finfo(float).eps
    for it in range(1, _MAX_SPG_PER_LASSO + 1):
        f_ref = max(recent)
        # Allowance for float cancellation in f; without it the test can
        # never pass near a fixed point and backtracking kills the step.
        slack = f_noise * max(1.0, f_ref)
        Ad = sub.matvec(d)
        gd = float(g @ d)
        for k in range(60):
            s = 0.5 ** k
            r_new = r - s * Ad
            f_new = 0.5 * float(r_new @ r_new)
            if f_new <= f_ref + _ARMIJO_CONST * s * gd + slack:
                break
        dx = s * d
        g_new = -sub.rmatvec(r_new)

        # BB step from the accepted move.
        sy = float(dx @ (g_new - g))
        if sy > _TINY:
            alpha = min(_ALPHA_MAX, max(_ALPHA_MIN, float(dx @ dx) / sy))
        else:
            alpha = _ALPHA_MAX
        x, r, g = x + dx, r_new, g_new
        recent.append(f_new)
        if _gate is not None and _gate.due(it):
            if skip:
                skip -= 1
            elif _gate.look(x, math.sqrt(2.0 * f_new)) is not None:
                return x, 0.0, it, True, r, g
            elif _gate.tried:
                misses += 1
                skip = 2 ** misses - 1
        if _target is not None:
            # phi(tau) lies in [phi_lo, phi]; with _PARETO_STOP < 1 a narrow
            # enough interval lies wholly on one side of sigma_bar.
            sigma_bar, root_tol = _target
            phi = np.sqrt(2.0 * f_new)
            phi_lo = _phi_floor(sub, tau, x, g, f_new)
            if phi - phi_lo <= _PARETO_STOP * (abs(phi - sigma_bar) - root_tol):
                _tally(stats, "pareto_stops", 1)
                converged = True
                break
        d = project_weighted_l1_ball(x - alpha * g, w, tau) - x

        # A tiny BB step alone does not certify optimality (alpha may just
        # be small); the next direction bounds the unit-step fixed-point
        # residual, which must stay within 10 * tol.
        if float(np.linalg.norm(d)) * max(1.0, 1.0 / alpha) \
                <= 10.0 * tol * max(float(np.linalg.norm(x)), 1.0):
            converged = True
            break

    x, r, g = _exact_point(sub, x)
    y = x - g
    lam = _projection_multiplier(y, project_weighted_l1_ball(y, w, tau), w)
    return x, lam, it, converged, r, g


def _face_answer(sub: SubproblemData, cert: InexactCertificate, info: dict):
    """The return for a face answer z: state tau = ||w o z||_1, x_lasso = z."""
    x = cert.x_tilde
    info["root_gap"] = cert.coupling_residual
    return cert, SpgState(tau=float(np.abs(sub.w * x).sum()), x_lasso=x), info


def pareto_newton(sub: SubproblemData, warm: SpgState | None = None,
                  mode: str = "certified"):
    """Find the subproblem solution by Newton steps on the Pareto curve.

    Starts at tau = 0 from the exact point (0, b_w, -A_k^T b_w), whose
    ``rmatvec`` is the one product spent outside the LASSO solves, and
    iterates tau <- tau + (sigma_bar - phi) / phi' with the dual-norm
    slope, safeguarded by bisection once the root is bracketed.  Each
    LASSO solve starts from the exact point (x, r, g) the previous one
    returned, the first from the point at tau = 0, and phi(tau),
    the slope -||g / w||_inf / phi and the certificate are read from it,
    so a Newton step spends no product beyond its LASSO solve.

    Each Newton step's solve gets the target (sigma_bar, root_tol) and ends
    as soon as its duality gap settles which side of the root tau is on
    (see :func:`spg_lasso`), so only a solve near the root runs to the
    LASSO tolerance.  A solve ended that way stays outside root_tol, so
    no certificate is built from it.  A solve with phi <= sigma_bar sets
    tau_hi, since phi(tau) <= phi; one with phi > sigma_bar sets tau_lo
    only when its gap puts phi(tau) above sigma_bar too
    (:func:`_phi_floor`), so the bracket [tau_lo, tau_hi] keeps the root
    even where root_tol is finer than the LASSO tolerance resolves.  An
    escalation re-solves in place with the target at the tightened
    root_tol.

    The subproblem's :class:`~dir_sparse.core.FaceGate` is made on
    ``warm.x_lasso``, the only read of ``warm``, and every LASSO solve
    shows it its iterate (see :func:`spg_lasso`).  Its ``cert``, when not
    None, is the answer, in both modes, and the state is
    tau = ||w o z||_1 and x_lasso = z.

    Returns ``(certificate, state, info)``.  In certified mode the
    certificate bounds are enforced by tightening the LASSO tolerance up
    to ``_MAX_ESCALATIONS`` times, after which the failing certificate is
    returned.  In blackbox mode the bounds are recorded but never enforced.
    The certificate always belongs to the returned ``state.x_lasso``.
    ``info["lasso_unconverged"]`` counts the LASSO solves that stopped at
    ``_MAX_SPG_PER_LASSO`` iterations and ``info["pareto_stops"]`` those
    the target ended, and the gate's ``stats`` follow.  On a face answer
    ``root_gap`` is the answer's coupling residual, and at warm entry
    every other entry is 0.
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

    stats = {"pareto_stops": 0}
    gate = FaceGate(sub, None if warm is None else warm.x_lasso)
    if gate.cert is not None:
        return _face_answer(sub, gate.cert, {
            "iterations": 0, "newton_steps": 0, "escalations": 0,
            "lasso_unconverged": 0, **stats, **gate.stats})

    mach_slack = 50.0 * np.finfo(float).eps * max(1.0, b_norm)
    root_tol = max(1e-6 * sigma_bar, mach_slack)
    if certified:
        root_tol = max(min(root_tol, 0.5 * sub.eps_k), mach_slack)

    tau = 0.0
    x, r, g = _exact_point(sub, np.zeros(sub.w.shape[0]))
    phi = b_norm
    slope = -float(np.abs(g / sub.w).max()) / phi
    lasso_multiplier = 0.0
    tau_lo = 0.0            # phi(tau_lo) > sigma_bar
    tau_hi = math.inf       # phi(tau_hi) < sigma_bar once observed
    total_inner = 0
    escalations = 0
    newton_steps = 0
    lasso_unconverged = 0
    cert = None

    for _ in range(_MAX_NEWTON):
        if abs(phi - sigma_bar) <= root_tol:
            cert = sphere_certificate(sub, x, -r, g, lasso_multiplier)
            if (not certified or cert.criteria_met
                    or escalations >= _MAX_ESCALATIONS):
                break
            escalations += 1
            root_tol = max(0.1 * root_tol, mach_slack)
            tau_next = tau     # re-evaluate in place at the tighter tolerance
        else:
            # phi >= phi(tau) always, but phi > sigma_bar bounds the root
            # only when the solve's duality gap puts phi(tau) above it too.
            if phi <= sigma_bar:
                tau_hi = min(tau_hi, tau)
            elif _phi_floor(sub, tau, x, g, 0.5 * phi * phi) > sigma_bar:
                tau_lo = max(tau_lo, tau)
            tau_next = (tau + (sigma_bar - phi) / slope if slope < 0.0
                        else math.nan)              # NaN fails the test below
            if not tau_lo < tau_next < tau_hi:
                tau_next = (0.5 * (tau_lo + tau_hi) if tau_hi < math.inf
                            else max(2.0 * tau, 1.0))

        # One division, not repeated *= 0.1, whose rounding would end the
        # seventh escalation 3 ulps above 1e-13.
        x, lasso_multiplier, iters, converged, r, g = spg_lasso(
            sub, tau_next, (x, r, g), tol=_LASSO_TOL / 10 ** escalations,
            stats=stats, _target=(sigma_bar, root_tol), _gate=gate)
        total_inner += iters
        lasso_unconverged += not converged
        newton_steps += 1
        if gate.cert is not None:
            break
        phi = float(np.linalg.norm(r))
        slope = -float(np.abs(g / sub.w).max()) / phi if phi > 0.0 else 0.0
        tau = tau_next
    info = {"iterations": total_inner, "newton_steps": newton_steps,
            "escalations": escalations, "root_gap": abs(phi - sigma_bar),
            "lasso_unconverged": lasso_unconverged, **stats, **gate.stats}
    if gate.cert is not None:
        return _face_answer(sub, gate.cert, info)
    if cert is None or cert.x_tilde is not x:
        cert = sphere_certificate(sub, x, -r, g, lasso_multiplier)
    return cert, SpgState(tau=tau, x_lasso=x), info


# Looked up at call time, so a wrapper installed on pareto_newton sees the
# calls.
register_engine("spg", lambda sub, warm: pareto_newton(sub, warm),
                certified=True)
register_engine("spg-blackbox",
                lambda sub, warm: pareto_newton(sub, warm, "blackbox"),
                certified=False)
