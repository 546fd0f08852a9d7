"""Proximal ADMM engine for the weighted BPDN subproblem.

Solves min ||w o x||_1 s.t. ||A_k x - b_w|| <= sqrt(sigma_k) by splitting
the residual into an auxiliary ball-constrained variable.  The x update is
a proximal-linearized step (soft thresholding), the u update a Euclidean
ball projection, and the multiplier update a scaled residual step.  All
products with the scaled matrix are applied implicitly.

Each subproblem's closed-form face answers
(:func:`~dir_sparse.core.face_solve`) are tried by its
:class:`~dir_sparse.core.FaceGate`, which the SPG engine uses too: on
the previous answer's face when it is made, then on the sweeps' iterates
(its docstring has the rules).  A face answer at warm entry runs no
sweep; otherwise the sweeps start from the warm state.

A sweep of :func:`admm_solve` costs two products with A_k, one ``matvec``
and one ``rmatvec``.  The optimality surrogate is carried by recurrence
from the gradients the sweeps compute anyway (linearized ADMM for BPDN,
Yang & Zhang 2011, SIAM J. Sci. Comput. 33(1)); it only decides when to
test.  Each acceptance candidate costs one more ``rmatvec``, which
recomputes the surrogate exactly, and only that exact value can certify.

The penalty beta starts every solve at Lbar**-0.5 and is balanced against
the residuals (Boyd et al. 2011, Section 3.4.1): every ``_ADAPT_EVERY``
sweeps it doubles when the largest coupling residual of the window exceeds
``_ADAPT_RATIO`` times the largest carried surrogate, and halves in the
opposite case.  Comparing window maxima rather than one sweep's values
keeps beta from oscillating, and at most ``_ADAPT_MAX`` changes per solve
leave it fixed in the end, so the fixed-penalty convergence theory applies
(He, Yang & Wang 2000, JOTA 106).  A change rescales the carried
A_k^T lam / beta exactly and spends no product.
"""

from dataclasses import dataclass
import math

import numpy as np

from .core import FaceGate, InexactCertificate, SubproblemData, \
    register_engine
# The benchmark's tracer wraps dir_sparse.admm.retract by that name, so it
# stays importable here although the certificate retracts in core.
from .core import retract  # noqa: F401
from .linalg import project_l2_ball, soft_threshold


# Dual step factor; convergence needs 0 < gamma < (1 + sqrt(5)) / 2.  The
# proximal coefficient is prox = Lbar * beta for the scaled Gram bound Lbar,
# which keeps the proximal term beta (Lbar I - A_k^T A_k) positive
# semidefinite for every penalty beta.  Each solve starts at
# beta = Lbar**-0.5; the residual balancing below may double or halve it.
_GAMMA = 0.99 * (1.0 + math.sqrt(5.0)) / 2.0
_MAX_INNER = 100_000
# Residual balancing: window length in sweeps, imbalance ratio that changes
# beta by a factor 2, and the cap on changes per solve.
_ADAPT_EVERY = 50
_ADAPT_RATIO = 5.0
_ADAPT_MAX = 20


@dataclass
class AdmmState:
    """Primal pair and multiplier carried across warm-started solves.

    Unlike SPG's first LASSO start, the whole state pays after a failed
    face try: a cold (x, u, lam) took paper seed 0 from 2192 to 3625
    passes, and a cold (u, lam) robust-cli from 946 to 1030 per solve.
    """

    x: np.ndarray
    u: np.ndarray
    lam: np.ndarray


def _scaling(sub: SubproblemData):
    """Scaled Gram bound Lbar and the starting penalty Lbar**-0.5."""
    L_bar = max(sub.gram_bound(), np.finfo(float).tiny)
    return L_bar, L_bar ** -0.5


def _gradient(sub, Akx, u, lam, beta):
    """Gradient A_k^T (A_k x - b_w - u - lam / beta) of the x update."""
    return sub.rmatvec(Akx - sub.b_w - u - lam / beta)


def _advance(sub, x, g, lam, L_bar, beta, gamma):
    """One ADMM sweep given the gradient g from :func:`_gradient`."""
    x_new = soft_threshold(x - g / L_bar, sub.w / (beta * L_bar))
    Akx_new = sub.matvec(x_new)
    z = Akx_new - sub.b_w - lam / beta
    u_new = project_l2_ball(z, sub.sigma_bar)
    r = Akx_new - sub.b_w - u_new
    lam_new = lam - gamma * beta * r
    return x_new, Akx_new, z, u_new, lam_new, r


def admm_step(state: AdmmState, sub: SubproblemData,
              beta: float | None = None) -> AdmmState:
    """Apply one ADMM sweep at penalty ``beta`` (default Lbar**-0.5)."""
    L_bar, beta0 = _scaling(sub)
    beta = beta0 if beta is None else beta
    g = _gradient(sub, sub.matvec(state.x), state.u, state.lam, beta)
    x_new, _, _, u_new, lam_new, _ = _advance(
        sub, state.x, g, state.lam, L_bar, beta, _GAMMA)
    return AdmmState(x=x_new, u=u_new, lam=lam_new)


def _carried_kkt(q, q_prev, dx, beta, L_bar) -> float:
    """Norm of the optimality surrogate from the carried q = A_k^T r.

    Equals ||beta * (q - q_prev) - prox * dx||, as prox = L_bar * beta.
    """
    return beta * float(np.linalg.norm((q - q_prev) - L_bar * dx))


def _exact_kkt(sub, dAkx, du, dx, beta, L_bar) -> float:
    """Norm of the surrogate beta * A_k^T (A_k dx - du) - prox * dx."""
    prox = L_bar * beta
    return float(np.linalg.norm(beta * sub.rmatvec(dAkx - du) - prox * dx))


def _balance(kkt_max: float, coupling_max: float) -> float:
    """Factor for beta from a window's largest residuals: 2, 1/2 or 1."""
    if coupling_max > _ADAPT_RATIO * kkt_max:
        return 2.0
    if kkt_max > _ADAPT_RATIO * coupling_max:
        return 0.5
    return 1.0


def _ball_multiplier(z: np.ndarray, sigma_bar: float, beta: float) -> float:
    """Exact KKT multiplier of the u-update projection.

    The normal-cone element produced by projecting z onto the ball of
    radius sigma_bar equals beta * (||z|| - sigma_bar) / sigma_bar times
    the projected point; zero when z is interior.
    """
    nz = float(np.linalg.norm(z))
    if nz <= sigma_bar:
        return 0.0
    return beta * (nz - sigma_bar) / sigma_bar


def _face_answer(cert: InexactCertificate, info: dict):
    """The engine's return for a face answer of :func:`face_solve`.

    The state is x = z, u = u_tilde and the face's exact multiplier
    lam = -u_tilde / t, so that A_k^T lam = w o sign(z) on the support.
    """
    u = cert.u_tilde
    return cert, AdmmState(x=cert.x_tilde, u=u, lam=-cert.multiplier * u), info


def admm_solve(sub: SubproblemData, warm: AdmmState | None = None):
    """Iterate ADMM until the subproblem certificate is accepted.

    Acceptance is ``InexactCertificate.criteria_met``: the
    optimality surrogate and the coupling residual drop to eps_k and the
    retracted iterate satisfies the controlled weighted-l1 increase; these
    absolute bounds imply the looser relative thresholds
    min(eps_bar, tau_k * scale) as well, since eps_k <= tau_k and
    eps_k <= eps_bar = min(sigma_k, sqrt(sigma_k)).

    A sweep costs one ``matvec`` and one ``rmatvec``.  The surrogate
    beta * A_k^T (r - r_prev) - prox * dx, with r = A_k x - b_w - u, is
    carried by recurrence: the next sweep's gradient
    g = A_k^T (r - lam / beta) gives q = A_k^T r = (g + p) / (1 + gamma)
    once p = A_k^T lam / beta is tracked by p <- p - gamma * q.  The carried
    value only selects acceptance candidates.  Each candidate, and the last
    sweep, costs one more ``rmatvec`` that recomputes the surrogate exactly
    and builds the certificate from the A_k x in hand; acceptance and the
    certificate's ``kkt_residual`` use only that exact value.  A warm start
    with a nonzero multiplier costs one ``rmatvec`` more to seed p.

    The penalty starts at beta = Lbar**-0.5.  At the end of every
    ``_ADAPT_EVERY``-th sweep that was not an exact check, the largest
    carried surrogate K and the largest coupling residual C since the last
    such check are compared: beta doubles if C > ``_ADAPT_RATIO`` K and
    halves if K > ``_ADAPT_RATIO`` C, at most ``_ADAPT_MAX`` times per
    solve.  q does not depend on beta, and p and g = q - p are rescaled in
    place, so a change spends no product.

    The subproblem's :class:`~dir_sparse.core.FaceGate` is made on
    ``warm.x``, or on None cold, and looks at x, with the ||A_k x - b_w||
    in hand, after each sweep it says is due.  Its ``cert``, when not
    None, is the answer, with no further sweep, and the state is x = z,
    u = u_tilde and the face's exact multiplier lam = -u_tilde / t
    (A_k^T lam = w o sign(z) on the support).

    Returns ``(certificate, state, info)`` where ``info`` carries the
    iteration count, the trajectory minimum of the optimality surrogate
    and its sweep, the number of exact checks, the number of penalty
    changes, the final ``beta_scale`` = beta * Lbar**0.5, and the gate's
    ``stats``; on a face answer at warm entry every other entry is 0, and
    on one between sweeps they describe the sweeps taken.  After
    ``_MAX_INNER`` sweeps the certificate of the last iterate is returned,
    whether it passes or not.
    """
    n = sub.w.shape[0]
    m = sub.b_w.shape[0]
    gate = FaceGate(sub, None if warm is None else warm.x)
    if gate.cert is not None:
        return _face_answer(gate.cert, {
            "iterations": 0, "best_kkt": 0.0, "best_kkt_iter": 0,
            "exact_checks": 0, "penalty_changes": 0, "beta_scale": 0.0,
            **gate.stats})
    if warm is None:
        x, u, lam = np.zeros(n), np.zeros(m), np.zeros(m)
    else:
        x, u, lam = warm.x.copy(), warm.u.copy(), warm.lam.copy()

    L_bar, beta0 = _scaling(sub)
    beta = beta0
    gamma = _GAMMA
    Akx = sub.matvec(x)
    g = _gradient(sub, Akx, u, lam, beta)
    # p = A_k^T lam / beta and q = A_k^T (A_k x - b_w - u), carried by
    # recurrence from here; at the start g = q - p.
    p = sub.rmatvec(lam / beta) if lam.any() else np.zeros(n)
    q = g + p
    shrink = 1.0 / (1.0 + gamma)
    eps_k = sub.eps_k
    best_kkt = math.inf
    best_kkt_iter = -1
    exact_checks = 0
    changes = 0
    kkt_window = coupling_window = 0.0
    cert = None

    for it in range(1, _MAX_INNER + 1):
        x_new, Akx_new, z, u_new, lam_new, r = _advance(
            sub, x, g, lam, L_bar, beta, gamma)
        g = _gradient(sub, Akx_new, u_new, lam_new, beta)
        q_new = (g + p) * shrink
        p -= gamma * q_new

        dx = x_new - x
        kkt = _carried_kkt(q_new, q, dx, beta, L_bar)
        coupling = float(np.linalg.norm(r))
        kkt_window = max(kkt_window, kkt)
        coupling_window = max(coupling_window, coupling)
        exact = (kkt <= eps_k and coupling <= eps_k) or it == _MAX_INNER
        if exact:
            kkt = _exact_kkt(sub, Akx_new - Akx, u_new - u, dx, beta, L_bar)
            exact_checks += 1
        if kkt < best_kkt:
            best_kkt = kkt
            best_kkt_iter = it

        x, Akx, u, lam, q = x_new, Akx_new, u_new, lam_new, q_new

        if exact:
            cert = InexactCertificate(
                sub, x, Akx - sub.b_w, u_tilde=u,
                multiplier=_ball_multiplier(z, sub.sigma_bar, beta),
                kkt_residual=kkt, coupling_residual=coupling)
            if cert.criteria_met:
                break
        elif it % _ADAPT_EVERY == 0:
            factor = _balance(kkt_window, coupling_window)
            if factor != 1.0 and changes < _ADAPT_MAX:
                # p = A_k^T lam / beta scales with 1 / beta; q does not.
                p /= factor
                g = q - p
                beta *= factor
                changes += 1
            kkt_window = coupling_window = 0.0
        if gate.due(it) and gate.look(
                x, float(np.linalg.norm(Akx - sub.b_w))) is not None:
            break

    info = {"iterations": it, "best_kkt": best_kkt,
            "best_kkt_iter": best_kkt_iter, "exact_checks": exact_checks,
            "penalty_changes": changes, "beta_scale": beta / beta0,
            **gate.stats}
    if gate.cert is not None:
        return _face_answer(gate.cert, info)
    return cert, AdmmState(x=x, u=u, lam=lam), info


# Looked up at call time, so a wrapper installed on admm_solve sees the calls.
register_engine("admm", lambda sub, warm: admm_solve(sub, warm), certified=True)
