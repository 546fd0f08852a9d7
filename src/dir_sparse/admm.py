"""Proximal ADMM engine for the weighted BPDN subproblem.

Solves min ||w o x||_1 s.t. ||A_k x - b_w|| <= sqrt(sigma_k) by splitting
the residual into an auxiliary ball-constrained variable.  The x update is
a proximal-linearized step (soft thresholding), the u update a Euclidean
ball projection, and the multiplier update a scaled residual step.  All
products with the scaled matrix are applied implicitly.

A sweep of :func:`admm_solve` costs two products with A_k, one ``matvec``
and one ``rmatvec``.  The optimality surrogate is carried by recurrence
from the gradients the sweeps compute anyway (linearized ADMM for BPDN,
Yang & Zhang 2011, SIAM J. Sci. Comput. 33(1)); it only decides when to
test.  Each acceptance candidate costs one more ``rmatvec``, which
recomputes the surrogate exactly, and only that exact value can certify.
"""

from dataclasses import dataclass
import math

import numpy as np

from .core import InexactCertificate, SubproblemData, _retract, register_engine
# The benchmark's tracer wraps dir_sparse.admm.retract by that name, so it
# stays importable here although the descent check goes through _retract.
from .core import retract  # noqa: F401
from .linalg import project_l2_ball, soft_threshold


# Dual step factor; convergence needs 0 < gamma < (1 + sqrt(5)) / 2.  The
# penalty beta and the proximal coefficient are not free parameters: they are
# recomputed for every subproblem as beta = Lbar**-0.5 and prox = Lbar * beta
# from the scaled Gram bound Lbar, which keeps the proximal term positive
# semidefinite.
_GAMMA = 0.99 * (1.0 + math.sqrt(5.0)) / 2.0
_MAX_INNER = 100_000


@dataclass
class AdmmState:
    """Primal pair and multiplier carried across warm-started solves."""

    x: np.ndarray
    u: np.ndarray
    lam: np.ndarray
    iteration: int = 0


def _scaling(sub: SubproblemData):
    """Per-subproblem constants (Lbar, beta, prox coefficient)."""
    L_bar = max(sub.gram_bound(), np.finfo(float).tiny)
    beta = L_bar ** -0.5
    return L_bar, beta, L_bar * beta


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


def admm_step(state: AdmmState, sub: SubproblemData) -> AdmmState:
    """Apply one ADMM sweep to ``state`` and return the advanced state."""
    L_bar, beta, _ = _scaling(sub)
    g = _gradient(sub, sub.matvec(state.x), state.u, state.lam, beta)
    x_new, _, _, u_new, lam_new, _ = _advance(
        sub, state.x, g, state.lam, L_bar, beta, _GAMMA)
    return AdmmState(x=x_new, u=u_new, lam=lam_new, iteration=state.iteration + 1)


def _carried_kkt(q, q_prev, dx, beta, L_bar) -> float:
    """Norm of the optimality surrogate from the carried q = A_k^T r.

    Equals ||beta * (q - q_prev) - prox * dx||, as prox = L_bar * beta.
    """
    return beta * float(np.linalg.norm((q - q_prev) - L_bar * dx))


def _exact_kkt(sub, dAkx, du, dx, beta, prox) -> float:
    """Norm of the surrogate beta * A_k^T (A_k dx - du) - prox * dx."""
    return float(np.linalg.norm(beta * sub.rmatvec(dAkx - du) - prox * dx))


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


def admm_solve(sub: SubproblemData, warm: AdmmState | None = None):
    """Iterate ADMM until the subproblem certificate is accepted.

    Acceptance requires the optimality surrogate and the coupling residual
    to drop to eps_k and the retracted iterate to satisfy the controlled
    weighted-l1 increase; these absolute bounds imply the looser relative
    thresholds min(eps_bar, tau_k * scale) as well, since eps_k <= tau_k
    and eps_k <= eps_bar = min(sigma_k, sqrt(sigma_k)).

    A sweep costs one ``matvec`` and one ``rmatvec``.  The surrogate
    beta * A_k^T (r - r_prev) - prox * dx, with r = A_k x - b_w - u, is
    carried by recurrence: the next sweep's gradient
    g = A_k^T (r - lam / beta) gives q = A_k^T r = (g + p) / (1 + gamma)
    once p = A_k^T lam / beta is tracked by p <- p - gamma * q.  The carried
    value only selects acceptance candidates.  Each candidate, and the last
    sweep, costs one more ``rmatvec`` that recomputes the surrogate exactly;
    acceptance and the certificate's ``kkt_residual`` use only that exact
    value.  A warm start with a nonzero multiplier costs one ``rmatvec``
    more to seed p.

    Returns ``(certificate, state, info)`` where ``info`` carries the
    iteration count, the acceptance flag, the trajectory minimum of the
    optimality surrogate and the number of exact surrogate checks, each of
    which also checked descent.  After ``_MAX_INNER`` sweeps the
    certificate of the last iterate is returned with ``info["ok"] = False``.
    """
    n = sub.w.shape[0]
    m = sub.b_w.shape[0]
    if warm is None:
        state = AdmmState(x=np.zeros(n), u=np.zeros(m), lam=np.zeros(m))
    else:
        state = AdmmState(x=warm.x.copy(), u=warm.u.copy(), lam=warm.lam.copy(),
                          iteration=warm.iteration)

    L_bar, beta, lam_prox = _scaling(sub)
    gamma = _GAMMA
    x, u, lam = state.x, state.u, state.lam
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
    descent_ok = False
    kkt = coupling = math.inf
    z = Akx - sub.b_w
    it = 0

    for it in range(1, _MAX_INNER + 1):
        x_new, Akx_new, z, u_new, lam_new, r = _advance(
            sub, x, g, lam, L_bar, beta, gamma)
        g = _gradient(sub, Akx_new, u_new, lam_new, beta)
        q_new = (g + p) * shrink
        p -= gamma * q_new

        dx = x_new - x
        kkt = _carried_kkt(q_new, q, dx, beta, L_bar)
        coupling = float(np.linalg.norm(r))
        exact = (kkt <= eps_k and coupling <= eps_k) or it == _MAX_INNER
        if exact:
            kkt = _exact_kkt(sub, Akx_new - Akx, u_new - u, dx, beta, lam_prox)
            exact_checks += 1
        if kkt < best_kkt:
            best_kkt = kkt
            best_kkt_iter = it

        x, Akx, u, lam, q = x_new, Akx_new, u_new, lam_new, q_new

        if exact:
            pulled, _ = _retract(sub, x, Akx)
            descent_ok = bool(
                np.abs(sub.w * pulled).sum() <= sub.ref_objective + sub.mu_k)
            if kkt <= eps_k and coupling <= eps_k and descent_ok:
                break

    ok = kkt <= eps_k and coupling <= eps_k and descent_ok
    cert = InexactCertificate(
        x_tilde=x, u_tilde=u,
        multiplier=_ball_multiplier(z, sub.sigma_bar, beta),
        kkt_residual=kkt, coupling_residual=coupling, descent_ok=descent_ok)
    out_state = AdmmState(x=x, u=u, lam=lam, iteration=state.iteration + it)
    info = {"iterations": it, "ok": ok, "best_kkt": best_kkt,
            "best_kkt_iter": best_kkt_iter, "exact_checks": exact_checks}
    return cert, out_state, info


# Looked up at call time, so a wrapper installed on admm_solve sees the calls.
register_engine("admm", lambda sub, warm: admm_solve(sub, warm), certified=True)
