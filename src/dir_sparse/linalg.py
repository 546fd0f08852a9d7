"""Dense linear-algebra kernels shared by the solvers.

The setup quantities come from the triangular factor R of the QR
factorization A.T = Q R of a wide matrix, taken once per instance by the
caller; Q is never formed.  The rank test reads the diagonal of R, the
least-norm point comes from the corrected semi-normal equations
A A.T y = b with A A.T = R.T R, and the spectral bound on A A.T is
||R||_2^2.  Systems with R or R.T are solved by blocked substitution
(:func:`solve_upper`), O(m^2) where an LU of R would be O(m^3), and
:func:`invert_upper` forms R^-1 where many systems share one R.  The
prox/projection operators are exact closed forms or exact breakpoint
searches.
"""

import numpy as np


# Smallest acceptable ratio of extreme |diag(R)| in the QR rank test.
_RANK_RTOL = 1e-10
# Rows per diagonal block of solve_upper.
_SOLVE_BLOCK = 64


def rank_ratio(R: np.ndarray) -> float:
    """Ratio min/max of |diag(R)| for a triangular factor; 0 when R = 0."""
    rdiag = np.abs(np.diag(R))
    return float(rdiag.min() / rdiag.max()) if rdiag.max() > 0 else 0.0


def solve_upper(R: np.ndarray, B: np.ndarray, trans: bool = False) -> np.ndarray:
    """Solve R X = B, or R.T X = B when ``trans``, for upper-triangular R.

    Blocked substitution: each block of ``_SOLVE_BLOCK`` rows is solved
    with ``np.linalg.solve`` on its diagonal block of R and then
    eliminated from the rows still to come, which are those above it for
    R and below it for R.T.  B may be a vector or a matrix.
    """
    X = np.array(B, dtype=float)
    n = R.shape[0]
    starts = range(0, n, _SOLVE_BLOCK)
    for i in (starts if trans else reversed(starts)):
        j = min(i + _SOLVE_BLOCK, n)
        if trans:
            X[i:j] = np.linalg.solve(R[i:j, i:j].T, X[i:j])
            X[j:] -= R[i:j, j:].T @ X[i:j]
        else:
            X[i:j] = np.linalg.solve(R[i:j, i:j], X[i:j])
            X[:i] -= R[:i, i:j] @ X[i:j]
    return X


def invert_upper(R: np.ndarray) -> np.ndarray:
    """R^-1 for an upper-triangular R, by blocked back substitution.

    From the last block row up, each block row of ``_SOLVE_BLOCK`` rows
    takes the inverse of its diagonal block of R and the block rows of
    R^-1 below it; outside those small inverses every flop is a matrix
    product.  R^-1 is upper triangular, and with it a system R X = B or
    R.T X = B costs one product with B.
    """
    n = R.shape[0]
    X = np.zeros((n, n))
    for i in reversed(range(0, n, _SOLVE_BLOCK)):
        j = min(i + _SOLVE_BLOCK, n)
        X[i:j, i:j] = np.linalg.inv(R[i:j, i:j])
        X[i:j, j:] = -X[i:j, i:j] @ (R[i:j, j:] @ X[j:, j:])
    return X


def least_norm_solution(A: np.ndarray, R: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Minimum-norm solution of A x = b from the R factor of A.T = Q R.

    A must be wide with full row rank.  The point x = A.T R^-1 R^-T b is
    corrected by one refinement step with the residual b - A x (corrected
    semi-normal equations, Bjorck 1987), which brings its residual on a
    badly scaled A back to that of the Q-based formula Q (R^-T b).
    """
    if rank_ratio(R) <= _RANK_RTOL:
        raise np.linalg.LinAlgError(
            "matrix is numerically rank deficient; least-norm solve is singular")

    def seminormal(c):
        return A.T @ solve_upper(R, solve_upper(R, c, trans=True))

    x = seminormal(b)
    return x + seminormal(b - A @ x)


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


def l1_kkt_distance(x: np.ndarray, w: np.ndarray, q: np.ndarray) -> float:
    """Distance from 0 to the set w o d|x| + q, for weights w >= 0.

    Componentwise it is |w_i sign(x_i) + q_i| off zero and
    max(|q_i| - w_i, 0) at zero, where d|x_i| is the interval [-1, 1].
    """
    dist = np.where(x != 0.0, np.abs(w * np.sign(x) + q),
                    np.maximum(np.abs(q) - w, 0.0))
    return float(np.linalg.norm(dist))


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
    tau = 0.  A result whose computed weighted norm exceeds tau is scaled
    by tau over that norm, so that it lies within a few roundings of tau.
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
    x = np.sign(y) * np.maximum(a - theta * w, 0.0)
    # With tau far below ||w o y||_1 the shrinkage |y| - theta w cancels and
    # x can land up to about 1e-8 relative outside the ball; scaling onto
    # the sphere puts it back within rounding of tau.
    norm = float(w @ np.abs(x))
    return x * (tau / norm) if norm > tau else x
