"""Concave losses on squared residuals and the concave sparsity penalty.

Each loss ``phi`` acts on t = r**2 (a squared residual) and is concave,
nondecreasing on [0, inf) with phi(0) = 0 and a finite positive right
derivative at 0.  The sparsity penalty ``psi`` acts on t = |x_i| and is
the log penalty log(1 + t/eps).  Right derivatives are used throughout so
weights are well defined at 0 and across the Huber/Tukey kinks.
"""

from dataclasses import dataclass
from enum import Enum
import math

import numpy as np

from .linalg import _RANK_RTOL, rank_ratio


class LossKind(str, Enum):
    CAUCHY = "cauchy"
    GEMAN_MCCLURE = "geman-mcclure"
    WELSH = "welsh"
    PSEUDO_HUBER = "pseudo-huber"
    HUBER = "huber"
    TUKEY_BIWEIGHT = "tukey-biweight"


def _as_nonneg(t):
    arr = np.asarray(t, dtype=float)
    if np.any(arr < 0):
        raise ValueError("loss/penalty arguments must be nonnegative")
    return arr


def _like_input(out, t):
    return float(out) if np.isscalar(t) or np.ndim(t) == 0 else out


@dataclass(frozen=True)
class LossSpec:
    """A concave loss on squared residuals, selected by kind and scale delta."""

    kind: LossKind
    delta: float = 1.0

    def __post_init__(self):
        if not self.delta > 0:
            raise ValueError(f"delta must be positive, got {self.delta}")

    def value(self, t):
        """Evaluate phi(t) for t >= 0 (scalar or array)."""
        arr = _as_nonneg(t)
        d2 = self.delta ** 2
        kind = self.kind
        if kind is LossKind.CAUCHY:
            out = np.log1p(arr / d2)
        elif kind is LossKind.GEMAN_MCCLURE:
            out = 2.0 * arr / (arr + 4.0 * d2)
        elif kind is LossKind.WELSH:
            out = -np.expm1(-arr / (2.0 * d2))
        elif kind is LossKind.PSEUDO_HUBER:
            out = np.sqrt(1.0 + arr / d2) - 1.0
        elif kind is LossKind.HUBER:
            out = np.where(arr <= d2, 0.5 * arr,
                           self.delta * (np.sqrt(arr) - 0.5 * self.delta))
        else:  # Tukey biweight
            u = np.clip(1.0 - arr / d2, 0.0, None)
            out = (d2 / 6.0) * (1.0 - u ** 3)
        return _like_input(out, t)

    def dplus(self, t):
        """Right derivative phi'_+(t) for t >= 0 (scalar or array).

        The t = 0 values are the analytic limits, so no 0/0 is evaluated.
        Both Huber and Tukey are continuous across the kink at t = delta**2.
        """
        arr = _as_nonneg(t)
        d2 = self.delta ** 2
        kind = self.kind
        if kind is LossKind.CAUCHY:
            out = 1.0 / (d2 + arr)
        elif kind is LossKind.GEMAN_MCCLURE:
            out = 8.0 * d2 / (arr + 4.0 * d2) ** 2
        elif kind is LossKind.WELSH:
            out = np.exp(-arr / (2.0 * d2)) / (2.0 * d2)
        elif kind is LossKind.PSEUDO_HUBER:
            out = 0.5 / (d2 * np.sqrt(1.0 + arr / d2))
        elif kind is LossKind.HUBER:
            # sqrt(t) <= delta branch gives 1/2; beyond, delta/(2 sqrt(t)).
            out = np.where(arr <= d2, 0.5,
                           self.delta / (2.0 * np.sqrt(np.maximum(arr, d2))))
        else:
            u = np.clip(1.0 - arr / d2, 0.0, None)
            out = 0.5 * u ** 2
        return _like_input(out, t)

    def sup(self) -> float:
        """Supremum of phi over [0, inf); +inf for the unbounded kinds."""
        if self.kind in (LossKind.CAUCHY, LossKind.PSEUDO_HUBER, LossKind.HUBER):
            return math.inf
        if self.kind is LossKind.GEMAN_MCCLURE:
            return 2.0
        if self.kind is LossKind.WELSH:
            return 1.0
        return self.delta ** 2 / 6.0


@dataclass(frozen=True)
class PenaltySpec:
    """Log sparsity penalty psi(t) = log(1 + t/eps) acting on |x_i|."""

    epsilon: float = 0.1

    def __post_init__(self):
        if not self.epsilon > 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")

    def value(self, t):
        arr = _as_nonneg(t)
        return _like_input(np.log1p(arr / self.epsilon), t)

    def dplus(self, t):
        arr = _as_nonneg(t)
        return _like_input(1.0 / (self.epsilon + arr), t)


def constraint_value(loss: LossSpec, y: np.ndarray) -> float:
    """Constraint value sum_i phi(y_i^2) at the residual y = b - A x."""
    return float(np.sum(loss.value(y * y)))


def constraint_grad(loss: LossSpec, A: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Gradient of x -> sum_i phi((b_i - a_i.x)^2) at the residual y = b - A x.

    Equals -2 A^T (phi'_+(y^2) o y), one product with A.T; smooth
    everywhere because phi'_+ is continuous and the inner map is quadratic.
    """
    return -2.0 * (A.T @ (loss.dplus(y * y) * y))


@dataclass(frozen=True)
class AssumptionReport:
    """Outcome of the standing-assumption checks on (A, b, sigma, loss)."""

    ok: bool
    failures: tuple

    def __str__(self):
        if self.ok:
            return "all assumptions satisfied"
        return "; ".join(self.failures)


# Relative gap below which sigma counts as colliding with k * sup(phi).
_SUP_COLLISION_RTOL = 1e-12


def validate_assumptions(A: np.ndarray, b: np.ndarray, sigma: float,
                         loss: LossSpec, R: np.ndarray) -> AssumptionReport:
    """Check the problem-data assumptions the solver relies on.

    ``R`` is the triangular factor of the thin QR of A.T.  Non-finite
    values in A, b or sigma are reported alone, since every other check
    would misread them.  Otherwise verifies that A is wide (m <= n) with
    numerically full row rank, that 0 < sigma < sum_i phi(b_i^2) (so 0 is
    infeasible while the least-norm interpolant is feasible), and that
    sigma stays away from integer multiples of sup(phi) when that
    supremum is finite.
    """
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    m, n = A.shape
    if b.shape != (m,):
        raise ValueError(f"b has shape {b.shape}, expected ({m},)")

    nonfinite = [name for name, arr in (("A", A), ("b", b), ("sigma", sigma))
                 if not np.all(np.isfinite(arr))]
    if nonfinite:
        return AssumptionReport(
            ok=False, failures=(f"non-finite values (NaN or inf) in "
                                f"{', '.join(nonfinite)}",))

    failures = []
    if m > n:
        failures.append(f"matrix must be wide for full row rank: m={m} > n={n}")
    else:
        ratio = rank_ratio(R)
        if ratio <= _RANK_RTOL:
            failures.append(
                f"numerically rank deficient: min/max QR diagonal {ratio:.3e}")

    phi_at_zero = float(np.sum(loss.value(b * b)))
    if not (0.0 < sigma < phi_at_zero):
        failures.append(
            f"sigma must lie in (0, {phi_at_zero:.6g}), got {sigma:.6g}")

    phi_sup = loss.sup()
    if math.isfinite(phi_sup):
        gaps = np.abs(sigma - phi_sup * np.arange(1, m + 1))
        if gaps.min() <= _SUP_COLLISION_RTOL * phi_sup:
            failures.append(
                f"sigma within {_SUP_COLLISION_RTOL:g}*sup(phi) of a multiple "
                f"k*sup(phi)={phi_sup:.6g}")

    return AssumptionReport(ok=not failures, failures=tuple(failures))
