"""Dense linear-algebra kernels shared by the solvers.

The setup quantities come from the thin QR A.T = Q R of a wide matrix,
factored once per instance by the caller: the rank test reads the
diagonal of R, the least-norm point is Q (R^-T b), and the spectral bound
on A A.T = R.T R is ||R||_2^2.  The prox/projection operators are exact
closed forms or exact breakpoint searches.
"""

import numpy as np


# Smallest acceptable ratio of extreme |diag(R)| in the QR rank test.
_RANK_RTOL = 1e-10


def rank_ratio(R: np.ndarray) -> float:
    """Ratio min/max of |diag(R)| for a triangular factor; 0 when R = 0."""
    rdiag = np.abs(np.diag(R))
    return float(rdiag.min() / rdiag.max()) if rdiag.max() > 0 else 0.0


def least_norm_solution(Q: np.ndarray, R: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Minimum-norm solution of A x = b from the thin QR A.T = Q R.

    A must be wide with full row rank; the solution is Q (R^-T b).
    """
    if rank_ratio(R) <= _RANK_RTOL:
        raise np.linalg.LinAlgError(
            "matrix is numerically rank deficient; least-norm solve is singular")
    return Q @ np.linalg.solve(R.T, b)


def lambda_max_gram(M: np.ndarray) -> float:
    """Largest eigenvalue of M M.T, the squared spectral norm of M.

    Exact up to rounding for M = A or, with A.T = Q R, for the much smaller
    M = R, since A A.T = R.T R.
    """
    return float(np.linalg.norm(M, 2)) ** 2


def soft_threshold(v: np.ndarray, t) -> np.ndarray:
    """Componentwise sign(v) * max(|v| - t, 0) for nonnegative thresholds t."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("soft threshold requires nonnegative thresholds")
    return np.sign(v) * np.maximum(np.abs(v) - t, 0.0)


def project_l2_ball(y: np.ndarray, r: float) -> np.ndarray:
    """Euclidean projection onto the ball of radius r > 0."""
    if not r > 0:
        raise ValueError("ball radius must be positive")
    ny = np.linalg.norm(y)
    if ny <= r:
        return np.array(y, dtype=float, copy=True)
    return (r / ny) * np.asarray(y, dtype=float)


def project_weighted_l1_ball(y: np.ndarray, w: np.ndarray, tau: float) -> np.ndarray:
    """Euclidean projection of y onto {x : sum_i w_i |x_i| <= tau}, w > 0.

    The projection is sign(y_i) * max(|y_i| - theta w_i, 0) where theta >= 0
    solves the piecewise-linear equation sum_i w_i max(|y_i| - theta w_i, 0)
    = tau.  The exact root is found by sorting the breakpoints |y_i|/w_i and
    scanning the cumulative sums, so the result is exact up to rounding.

    Returns y itself (a copy) when already feasible and the zero vector when
    tau = 0.
    """
    y = np.asarray(y, dtype=float)
    w = np.asarray(w, dtype=float)
    if np.any(w <= 0):
        raise ValueError("weights must be strictly positive")
    if tau < 0:
        raise ValueError("radius tau must be nonnegative")
    a = np.abs(y)
    if float(w @ a) <= tau:
        return y.copy()
    if tau == 0.0:
        return np.zeros_like(y)

    # Breakpoints z_j = |y_j|/w_j in decreasing order; with the active set
    # {z > theta} fixed, the equation is linear in theta.
    z = a / w
    order = np.argsort(z)[::-1]
    zs = z[order]
    cwa = np.cumsum((w * a)[order])
    cww = np.cumsum((w * w)[order])
    theta_cand = (cwa - tau) / cww
    # Valid candidate: theta_j >= next breakpoint, so coordinates j+1.. stay
    # inactive.  The first such j gives the exact multiplier.
    nxt = np.append(zs[1:], 0.0)
    valid = theta_cand >= nxt
    if not valid.any():
        # The cumulative sum puts y inside the ball where the dot product
        # above did not: y is feasible up to rounding.
        return y.copy()
    j = int(np.argmax(valid))
    theta = float(theta_cand[j])
    return np.sign(y) * np.maximum(a - theta * w, 0.0)
