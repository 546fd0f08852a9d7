"""Outer loop of the doubly reweighted solver.

Each outer iteration freezes affine majorants of the penalty and of the
loss at the current feasible point, yielding a weighted basis-pursuit
denoising subproblem.  A pluggable engine solves that subproblem to an
inexact certificate; the answer is pulled back into the feasible set by a
convex-combination retraction with the least-norm interpolant, which makes
the next subproblem well posed no matter how loosely the engine solved the
current one.
"""

from dataclasses import InitVar, dataclass, field
from enum import Enum
import json
import time
import warnings
from typing import Optional

import numpy as np

from .linalg import invert_upper, l1_kkt_distance, least_norm_solution, \
    lambda_max_gram
from .losses import LossSpec, PenaltySpec, constraint_value, constraint_grad, \
    validate_assumptions

# Absolute slack allowed on feasibility checks; far below any sensible sigma.
FEASIBILITY_SLACK = 1e-10
# sigma_k is clamped to this fraction of sigma if rounding drives it negative.
_SIGMA_K_CLAMP = 1e-15
# Active-set rounds of face_solve.  On the (540, 2560, 80) panel every try
# ends within 18.
_FACE_ROUNDS = 20
# Face tries mid-solve (FaceGate): engine steps between looks at the sign
# pattern, and the largest | ||A_k x - b_w|| - sigma_bar | / sigma_bar at a
# try.
_FACE_EVERY = 5
_FACE_GAP = 0.1


class RunStatus(str, Enum):
    CONVERGED = "converged"
    MAX_ITERATIONS = "max-iterations"
    SUBPROBLEM_FAILURE = "subproblem-failure"
    CERTIFICATE_VIOLATION = "certificate-violation"
    ENGINE_ERROR = "engine-error"


@dataclass(frozen=True)
class ProblemInstance:
    """Problem data (A, b, sigma, loss, penalty) plus cached solver inputs.

    ``least_norm`` is the minimum-norm solution of A x = b (always strictly
    feasible) and ``gram_lmax`` the largest eigenvalue of A A.T used for
    engine step sizes.  Use :meth:`build` so the caches are consistent and
    the standing assumptions are verified; it stores A column-major, so that
    the columns :meth:`SubproblemData.matvec` gathers are contiguous.
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
        """Verify the assumptions and fill the caches from one QR of A.T.

        Only R is formed.  The column-major copy of A is taken after the
        factorization has freed its work arrays, so the two never coexist.
        """
        A = np.asarray(A, dtype=float)
        b = np.asarray(b, dtype=float)
        R = np.linalg.qr(A.T, mode="r")
        A = np.asfortranarray(A)
        report = validate_assumptions(A, b, sigma, loss, R)
        if not report.ok:
            raise ValueError(f"problem data violates assumptions: {report}")
        return cls(A=A, b=b, sigma=float(sigma), loss=loss, penalty=penalty,
                   least_norm=least_norm_solution(A, R, b),
                   gram_lmax=lambda_max_gram(R))

    def constraint(self, x) -> float:
        return constraint_value(self.loss, self.b - self.A @ x)

    def objective(self, x) -> float:
        """Separable concave sparsity objective sum_i psi(|x_i|)."""
        return float(np.sum(self.penalty.value(np.abs(x))))

    def is_feasible(self, x) -> bool:
        return self.constraint(x) <= self.sigma + FEASIBILITY_SLACK


# matvec gathers the columns where x is nonzero only for an A larger than
# this and an x with at most this fraction of nonzeros.  Single products on
# a 2-core Linux machine, OpenBLAS with one thread: at (540, 2560) the
# dense A @ x took 507-558 us and the gather 42 / 123 / 379 / 598 us at
# 3 / 10 / 20 / 30% nonzeros; at (54, 256) the gather (10-13 us) lost to
# the dense product (5.5 us) at every density.
_GATHER_MIN_BYTES = 1 << 20
_GATHER_MAX_FRACTION = 0.2


@dataclass
class SubproblemData:
    """One outer iteration's weighted BPDN data.

    The scaled matrix Diag(v) A is applied implicitly through
    :meth:`matvec`/:meth:`rmatvec`; it is never materialized.  On an A
    larger than 1 MiB, :meth:`matvec` multiplies only the columns of A
    where x is nonzero when at most a fifth of x is nonzero.  Each call is
    counted in ``matvec_calls``/``rmatvec_calls``, and the columns of A
    each ``matvec`` reads in ``matvec_columns``.
    """

    instance: ProblemInstance
    x_k: np.ndarray          # current feasible outer iterate
    w: np.ndarray            # objective weights, > 0
    v: np.ndarray            # row scalings sqrt(phi'_+) of squared residuals
    b_w: np.ndarray          # v * b
    sigma_k: float
    eps_k: float
    mu_k: float
    tau_k: float
    matvec_calls: int = 0
    rmatvec_calls: int = 0
    matvec_columns: int = 0

    def matvec(self, x: np.ndarray) -> np.ndarray:
        self.matvec_calls += 1
        A = self.instance.A
        if A.nbytes > _GATHER_MIN_BYTES:
            nz = np.flatnonzero(x)
            if nz.size <= _GATHER_MAX_FRACTION * x.size:
                self.matvec_columns += nz.size
                return self.v * (A[:, nz] @ x[nz])
        self.matvec_columns += x.size
        return self.v * (A @ x)

    def rmatvec(self, z: np.ndarray) -> np.ndarray:
        self.rmatvec_calls += 1
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

    The engine gives ``sub``, its answer ``x_tilde`` and the ``residual``
    A_k x_tilde - b_w it already holds.  ``kkt_residual`` bounds the
    distance of 0 from the weighted-l1 subdifferential plus the scaled
    normal-cone term; ``coupling_residual`` is the norm of
    A_k x_tilde - b_w - u_tilde.  The rest is derived here, from the
    residual: ``x_next`` is x_tilde retracted into the subproblem ball
    (see :func:`retract`), ``subproblem_residual`` is ||A_k x_tilde - b_w||,
    ``descent_ok`` the controlled increase
    ||w o x_next||_1 <= ||w o x_k||_1 + mu_k, and ``criteria_met`` holds
    when both residuals are at most the subproblem's own ``eps_k`` and
    ``descent_ok`` holds.
    """

    sub: InitVar[SubproblemData]
    x_tilde: np.ndarray
    residual: InitVar[np.ndarray]
    u_tilde: np.ndarray
    multiplier: float
    kkt_residual: float
    coupling_residual: float
    x_next: np.ndarray = field(init=False)
    subproblem_residual: float = field(init=False)
    descent_ok: bool = field(init=False)
    criteria_met: bool = field(init=False)

    def __post_init__(self, sub, residual):
        self.x_next = retract(sub, self.x_tilde, residual)
        self.subproblem_residual = float(np.linalg.norm(residual))
        self.descent_ok = bool(np.abs(sub.w * self.x_next).sum()
                               <= sub.ref_objective + sub.mu_k)
        self.criteria_met = bool(self.kkt_residual <= sub.eps_k
                                 and self.coupling_residual <= sub.eps_k
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
    stationarity: StationarityReport
    status: RunStatus
    error: Optional[str] = None  # "<Type>: <message>" on engine-error

    def history_jsonl(self) -> str:
        """One JSON object per outer iteration, newline separated."""
        return "\n".join(json.dumps(rec) for rec in self.history)


@dataclass
class DirConfig:
    """Outer-loop configuration.

    ``engine`` names a registered subproblem engine; the built-ins are
    "admm", "spg" (both certified) and "spg-blackbox".  ``outer_tol`` must
    be finite and at least 0, and ``max_outer`` at least 1.
    """

    engine: str = "admm"
    outer_tol: float = 1e-4
    max_outer: int = 1000

    def __post_init__(self):
        # "not" so that NaN is refused too.
        if not (np.isfinite(self.outer_tol) and self.outer_tol >= 0.0):
            raise ValueError(f"outer_tol must be finite and at least 0, "
                             f"got {self.outer_tol!r}")
        if not self.max_outer >= 1:
            raise ValueError(f"max_outer must be at least 1, "
                             f"got {self.max_outer!r}")


_ENGINES = {}


def register_engine(name: str, solve, *, certified: bool) -> None:
    """Register a subproblem engine under a CLI-usable name.

    ``solve(sub, warm)`` must return ``(InexactCertificate, state, info)``:
    the certificate is built from the engine's residual A_k x - b_w,
    ``state`` is handed back as ``warm`` on the next outer iteration, and
    ``info`` is a dict with at least ``"iterations"``; its other entries go
    into the history record.  :func:`run_dir` accepts an answer of a
    ``certified`` engine only when its certificate meets the ``eps_k``
    criteria, and every answer of the others.  External comparison solvers
    plug in through this hook.
    """
    _ENGINES[name] = (solve, bool(certified))


def get_engine(name: str):
    """Return the ``(solve, certified)`` pair registered under ``name``."""
    try:
        return _ENGINES[name]
    except KeyError:
        raise ValueError(
            f"unknown engine {name!r}; available: {sorted(_ENGINES)}") from None


def build_subproblem(instance: ProblemInstance, x_k: np.ndarray,
                     k: int, y: Optional[np.ndarray] = None) -> SubproblemData:
    """Assemble the weighted BPDN subproblem at the feasible point x_k.

    ``y`` is the residual b - A x_k when the caller already holds it; it is
    formed here, at one product with A, when it is not given.

    The weights are the right derivatives of the penalty at |x_k|; the row
    scalings are sqrt of the loss right derivatives at the squared
    residuals; the radius sigma_k absorbs the majorization offset so that
    feasibility for the subproblem implies feasibility for the original
    constraint.  The accuracy target tau_k = max(5**-(k+1), 1e-8) and the
    descent allowance mu_k = max(1.2**-(k+1), 1e-8) shrink geometrically.
    """
    if y is None:
        y = instance.b - instance.A @ x_k
    cval = constraint_value(instance.loss, y)
    # "not <=" also rejects a NaN anchor.
    if not cval <= instance.sigma + FEASIBILITY_SLACK:
        raise ValueError(
            f"subproblem anchor infeasible: constraint {cval:.12g} is not "
            f"within sigma {instance.sigma:.12g}")

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
    return SubproblemData(instance=instance, x_k=np.asarray(x_k, float),
                          w=w, v=v, b_w=v * instance.b, sigma_k=float(sigma_k),
                          eps_k=float(eps_k), mu_k=float(mu_k), tau_k=float(tau_k))


def retract(sub: SubproblemData, x: np.ndarray,
            residual: Optional[np.ndarray] = None) -> np.ndarray:
    """Pull x into the subproblem ball by blending with the least-norm point.

    ``residual`` is A_k x - b_w when the caller already holds it; it is
    formed here, at one ``matvec``, when it is not given.

    Returns x unchanged when ||A_k x - b_w||^2 <= sigma_k; otherwise the
    convex combination (1 - t) * least_norm + t * x with
    t = sqrt(sigma_k) / ||A_k x - b_w||.  That lands on the ball boundary
    up to rounding at the scale of ||b_w||, not of the radius: when the ball
    is small against ||b_w||, the squared residual can overshoot sigma_k by
    up to about 1.5e-11 relative, which ``FEASIBILITY_SLACK`` absorbs in
    :func:`run_dir`.
    """
    if residual is None:
        residual = sub.matvec(x) - sub.b_w
    nrm = float(np.linalg.norm(residual))
    if nrm * nrm <= sub.sigma_k:
        return x
    t = sub.sigma_bar / nrm
    return (1.0 - t) * sub.instance.least_norm + t * x


def _tally(stats: Optional[dict], key: str, amount) -> None:
    """Add ``amount`` to ``stats[key]``, from 0 when absent; None is a no-op."""
    if stats is not None:
        stats[key] = stats.get(key, 0) + amount


def sphere_certificate(sub: SubproblemData, x: np.ndarray, res: np.ndarray,
                       q: np.ndarray, lam: float) -> InexactCertificate:
    """Certificate of x whose ball variable is its residual on the sphere.

    ``res`` = A_k x - b_w and ``q`` = A_k^T res; ``lam`` is the LASSO
    multiplier, or a face answer's t, with q = -lam w o sign(x) on the
    support at an exact answer.  u = (sigma_bar / rho) res, rho = ||res||,
    so the coupling residual is | rho - sigma_bar | and A_k^T u costs no
    product; the multiplier rho / (sigma_bar lam) makes the KKT inclusion,
    measured on multiplier * A_k^T u, exact at an exact answer.
    """
    rho = float(np.linalg.norm(res))
    sigma_bar = sub.sigma_bar
    scale = sigma_bar / rho if rho > 0.0 else 0.0
    mult = rho / (sigma_bar * lam) if lam > 0.0 else 0.0
    return InexactCertificate(
        sub, x, res, u_tilde=scale * res, multiplier=mult,
        kkt_residual=l1_kkt_distance(x, sub.w, (mult * scale) * q),
        coupling_residual=abs(rho - sigma_bar))


class FaceFactor:
    """Least squares on one face, on one inverse Gram matrix per try.

    The face S, with signs s, keeps its scaled columns M = v o A[:, S] as
    a plain array, gathered once each (which reads A but is not a product
    with A_k), M^T b_w and H = (M^T M)^-1.  H is formed once, from the
    Cholesky factor M^T M = R^T R as R^-1 R^-T; :meth:`keep` and
    :meth:`add` update it by the block-inverse formulas (Hager 1989), so
    :meth:`solve` spends products with H alone.
    """

    def __init__(self, sub: SubproblemData, support: np.ndarray,
                 signs: np.ndarray):
        self.sub, self.support, self.signs = sub, support, signs
        self._M = self._gather(support)
        self._Mtb = self._M.T @ sub.b_w
        R_inv = invert_upper(np.linalg.cholesky(self._M.T @ self._M).T)
        self._H = R_inv @ R_inv.T

    def _gather(self, cols: np.ndarray) -> np.ndarray:
        """The scaled columns v o A[:, cols], as a plain array."""
        M = np.empty((self.sub.b_w.shape[0], cols.size), order="F")
        return np.multiply(self.sub.instance.A[:, cols], self.sub.v[:, None],
                           out=M)

    def keep(self, mask: np.ndarray) -> None:
        """Drop the face's entries where the boolean ``mask`` is False.

        With K the kept entries and D the dropped ones, the inverse of
        the kept Gram matrix is H_KK - H_KD H_DD^-1 H_DK.
        """
        H, gone = self._H, ~mask
        H_KD = H[np.ix_(mask, gone)]
        self._H = H[np.ix_(mask, mask)] \
            - H_KD @ np.linalg.solve(H[np.ix_(gone, gone)], H_KD.T)
        self._M, self._Mtb = self._M[:, mask], self._Mtb[mask]
        self.support, self.signs = self.support[mask], self.signs[mask]

    def add(self, cols: np.ndarray, signs: np.ndarray) -> None:
        """Join the entries ``cols`` of A_k with the signs ``signs``.

        With P the joined columns, HB = H M^T P and Q = P - M HB, the
        Schur complement of the bordered Gram matrix is Q^T Q, and with
        X = HB (Q^T Q)^-1 the new inverse is
        [[H + X HB^T, -X], [-X^T, (Q^T Q)^-1]].
        """
        P = self._gather(cols)
        HB = self._H @ (self._M.T @ P)
        Q = P - self._M @ HB
        S_inv = np.linalg.inv(Q.T @ Q)
        X = HB @ S_inv
        k = HB.shape[0]
        H = np.empty((k + cols.size, k + cols.size))
        H[:k, :k] = self._H + X @ HB.T
        H[:k, k:] = -X
        H[k:, :k] = -X.T
        H[k:, k:] = S_inv
        self._H = H
        self._M = np.concatenate((self._M, P), axis=1)
        self._Mtb = np.concatenate((self._Mtb, P.T @ self.sub.b_w))
        self.support = np.concatenate((self.support, cols))
        self.signs = np.concatenate((self.signs, signs))

    def solve(self):
        """``(c, z_ls, h, rho2)`` on the face S.

        c = w[S] o s; z_ls minimizes ||M z - b_w|| and h = (M^T M)^-1 c.
        Both are read off H, each corrected by one refinement step on its
        residual with M (corrected semi-normal equations, Bjorck 1987), and
        rho2 = ||M z_ls - b_w||^2 is read off the real residual.  Along
        z = z_ls - s h the weighted norm c . z falls at rate c . h and the
        squared residual is rho2 + s^2 c . h.
        """
        H, M, b_w = self._H, self._M, self.sub.b_w
        c = self.sub.w[self.support] * self.signs
        Z = H @ np.column_stack((self._Mtb, c))
        E = -(M @ Z)
        E[:, 0] += b_w
        F = M.T @ E
        F[:, 1] += c
        Z += H @ F
        res = M @ Z[:, 0] - b_w
        return c, Z[:, 0], Z[:, 1], float(res @ res)


def face_solve(sub: SubproblemData, x_prev: np.ndarray,
               stats: Optional[dict] = None) -> Optional[InexactCertificate]:
    """Answer the subproblem in closed form on the face of ``x_prev``.

    Once the support S and the signs s of the answers settle, the
    subproblem is min c . z s.t. ||M z - b_w||^2 <= sigma_k on that face
    (:meth:`FaceFactor.solve`, Osborne, Presnell & Turlach 2000; FPC_AS,
    Wen, Yin, Goldfarb & Zhang 2010).  When rho2 < sigma_k its answer is
    z = z_ls - t h with t = sqrt((sigma_k - rho2) / c . h): its residual
    r = M z - b_w has norm sigma_bar and M^T r = -t c, so t plays the
    LASSO multiplier's part in :func:`sphere_certificate`.

    ``x_prev`` is an engine's previous answer or its current iterate, and
    every engine calls this through :class:`FaceGate`; only its sign
    pattern is read.  An active-set loop of at most ``_FACE_ROUNDS``
    rounds starts from S = supp(x_prev) and s = sign(x_prev[S]), on one
    :class:`FaceFactor` for the whole try: the columns of A are gathered
    once each, the face's Gram matrix is factored once, when the try
    starts, and its inverse is updated as entries drop and join.  A round
    whose z flips a sign drops those entries and spends no product.
    Otherwise one ``matvec`` forms r and one ``rmatvec`` q = A_k^T r; the
    off-support entries with |q_j| > t w_j violate the optimality
    conditions, and the worst max(1, |S| // 10) of them join S with the
    signs -sign(q_j).  Without such an entry the certificate is built from
    r and q.  It reads real products, so an inverse that drifts can cost a
    try but never gives a wrong answer.

    Returns that certificate when its ``criteria_met`` holds, and None when
    it fails, when S is empty or has m entries or more (for x_prev, before
    any column is gathered), when rho2 >= sigma_k (no point of the face
    reaches the ball), when the Gram matrix is not numerically positive
    definite (a LinAlgError while the factor is built or updated, or
    c . h <= 0) or when the rounds run out.  When ``stats`` is a dict,
    ``"face_accepted"`` (1 for a returned certificate), ``"face_checks"``
    (the product pairs the try spent, one per checked round) and
    ``"face_s"`` (seconds in this call) are added to its entries.
    """
    tic = time.perf_counter()
    support = np.flatnonzero(x_prev)
    cert, calls = None, sub.matvec_calls
    if 0 < support.size < sub.b_w.shape[0]:
        try:
            cert = _active_set(
                sub, FaceFactor(sub, support, np.sign(x_prev[support])))
        except np.linalg.LinAlgError:
            pass
    _tally(stats, "face_accepted", int(cert is not None))
    _tally(stats, "face_checks", sub.matvec_calls - calls)
    _tally(stats, "face_s", time.perf_counter() - tic)
    return cert


def _active_set(sub: SubproblemData, face: FaceFactor):
    """The rounds of :func:`face_solve` on ``face``: a certificate or None."""
    m, n = sub.b_w.shape[0], sub.w.shape[0]
    for _ in range(_FACE_ROUNDS):
        c, z_ls, h, rho2 = face.solve()
        ch = float(c @ h)
        # c . h = c^T G_SS^-1 c > 0 unless the inverse has broken down.
        if not (rho2 < sub.sigma_k and ch > 0.0):
            break
        t = float(np.sqrt((sub.sigma_k - rho2) / ch))
        z = z_ls - t * h
        flipped = np.sign(z) != face.signs
        if flipped.any():
            face.keep(~flipped)
        else:
            x = np.zeros(n)
            x[face.support] = z
            res = sub.matvec(x) - sub.b_w
            q = sub.rmatvec(res)
            excess = np.abs(q) - t * sub.w
            excess[face.support] = 0.0
            worst = np.argsort(excess)[::-1][:max(1, face.support.size // 10)]
            worst = worst[excess[worst] > 0.0]
            if not worst.size:
                cert = sphere_certificate(sub, x, res, q, t)
                # Plain code, so that python -O keeps the check.
                return cert if cert.criteria_met else None
            face.add(worst, -np.sign(q[worst]))
        if not 0 < face.support.size < m:
            break
    return None


class FaceGate:
    """The one owner of a subproblem's :func:`face_solve` tries.

    Every engine makes one gate per subproblem, with its warm answer
    ``x_prev`` or None on a cold solve.  The gate tries the warm answer's
    face when it is made.  Mid-solve, after each step that :meth:`due`
    names, the engine calls :meth:`look` with its iterate x and
    ||A_k x - b_w||; the iterate settles on the answer's face long before
    it meets eps_k (FPC_AS, Wen, Yin, Goldfarb & Zhang 2010).  A look tries
    x when its sign pattern equals the previous look's, was not tried
    before in this subproblem (face_solve reads only the pattern, and the
    warm answer's counts as tried), and the residual norm is within
    ``_FACE_GAP`` * sigma_bar of sigma_bar, as every face answer's is,
    which keeps tries off iterates whose supports still change.  A try
    spends one product pair per checked round and changes no iterate.

    ``tried`` says whether the last look tried; ``cert`` holds the last
    try's certificate or None, and one not None answers the subproblem.
    ``stats`` holds the tries' ``face_accepted`` (answers), ``face_checks``
    (product pairs) and ``face_s`` (seconds), from 0, which the engines
    copy into their ``info``.
    """

    def __init__(self, sub: SubproblemData,
                 x_prev: Optional[np.ndarray] = None):
        self.sub = sub
        self.stats = {"face_accepted": 0, "face_checks": 0, "face_s": 0.0}
        self.cert: Optional[InexactCertificate] = None
        self.tried = False
        self._patterns = set()
        self._looked = None
        if x_prev is not None:
            self._patterns.add(np.sign(x_prev).tobytes())
            self.cert = face_solve(sub, x_prev, self.stats)

    @staticmethod
    def due(step: int) -> bool:
        """Whether an engine looks after its step number ``step``."""
        return step % _FACE_EVERY == 0

    def look(self, x: np.ndarray, rho: float) -> Optional[InexactCertificate]:
        """Look at x, with rho = ||A_k x - b_w||; return a try's ``cert``."""
        pattern = np.sign(x).tobytes()
        held, self._looked = pattern == self._looked, pattern
        sigma_bar = self.sub.sigma_bar
        self.tried = held and pattern not in self._patterns \
            and abs(rho - sigma_bar) <= _FACE_GAP * sigma_bar
        if self.tried:
            self._patterns.add(pattern)
            self.cert = face_solve(self.sub, x, self.stats)
        return self.cert if self.tried else None


def stationarity_report(instance: ProblemInstance, x: np.ndarray,
                        lam: float) -> StationarityReport:
    """Measure the first-order conditions at (x, lam) with lam >= 0.

    The dual residual is the distance from 0 to
    psi'_+(|x|) o d|x| + lam * grad(constraint) (:func:`l1_kkt_distance`).
    :func:`constraint_value` and :func:`constraint_grad` read the
    constraint and its gradient off one residual y = b - A x, so the report
    spends two products with A.
    """
    if lam < 0:
        raise ValueError("multiplier must be nonnegative")
    x = np.asarray(x, dtype=float)
    y = instance.b - instance.A @ x
    primal = constraint_value(instance.loss, y) - instance.sigma
    q = lam * constraint_grad(instance.loss, instance.A, y)
    wvals = instance.penalty.dplus(np.abs(x))
    return StationarityReport(lam=float(lam),
                              primal_feasibility=float(primal),
                              complementarity=float(lam * primal),
                              dual_residual=l1_kkt_distance(x, wvals, q))


def run_dir(instance: ProblemInstance,
            config: Optional[DirConfig] = None) -> RunResult:
    """Run the doubly reweighted outer loop until the step stalls.

    Starts from the least-norm interpolant.  Every iteration builds the
    reweighted subproblem, hands it to the configured engine (warm started
    from the previous inner state) and moves to the certificate's
    retracted point ``x_next``; no product with A_k is spent here.  The
    residual b - A x at each outer point is formed once: it serves that
    point's constraint test and the next subproblem, so a run of K outer
    iterations spends K + 3 products with the raw A, two of them in the
    final :func:`stationarity_report`.  Each history record's
    ``elapsed_seconds`` is the sum of its ``build_s`` (the
    :func:`build_subproblem` call), ``engine_s`` (the engine's solve) and
    ``retract_s`` (the residual b - A x_next and the constraint test of the
    retracted point), plus the time to build the record itself.
    Stops when the relative step ||x_{k+1} - x_k|| / max(||x_k||, 1) drops to
    ``outer_tol``, when ``max_outer`` is hit, or with
    ``subproblem-failure`` when a certified engine's certificate fails the
    ``eps_k`` criteria (that answer is kept as the last iteration).  An
    answer whose retracted point violates the original constraint by more
    than ``FEASIBILITY_SLACK`` stops the run with
    ``certificate-violation``; that answer is discarded and the result
    holds the iterations before it.  An ``Exception`` raised by the engine
    stops the run with ``engine-error`` in the same way, and
    ``RunResult.error`` names it.
    """
    config = config or DirConfig()
    solve, certified = get_engine(config.engine)

    x = instance.least_norm.copy()
    history = []
    status = RunStatus.MAX_ITERATIONS
    warm = None
    zeta = x
    last_mult = 0.0
    psi_curr = instance.objective(x)
    y = instance.b - instance.A @ x
    constraint_curr = constraint_value(instance.loss, y)
    error = None

    for k in range(config.max_outer):
        tic = time.perf_counter()
        sub = build_subproblem(instance, x, k, y)
        built = time.perf_counter()
        try:
            cert, warm, info = solve(sub, warm)
        except Exception as exc:
            status = RunStatus.ENGINE_ERROR
            error = f"{type(exc).__name__}: {exc}"
            break
        solved = time.perf_counter()
        x_next = cert.x_next
        y_next = instance.b - instance.A @ x_next
        constraint_next = constraint_value(instance.loss, y_next)
        # Plain code so that python -O keeps it; "not <=" also catches NaN.
        if not constraint_next <= instance.sigma + FEASIBILITY_SLACK:
            status = RunStatus.CERTIFICATE_VIOLATION
            break
        retracted = time.perf_counter()
        accepted = not certified or cert.criteria_met

        step = float(np.linalg.norm(x_next - x))
        rel_step = step / max(float(np.linalg.norm(x)), 1.0)
        psi_next = instance.objective(x_next)

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
            "descent_ok": cert.descent_ok,
            "multiplier": cert.multiplier,
            "criteria_enforced": certified and accepted,
            "subproblem_residual": cert.subproblem_residual,
            "retraction_displacement": float(np.linalg.norm(
                x_next - cert.x_tilde)),
            "anchor_gap": float(np.linalg.norm(
                instance.least_norm - cert.x_tilde)),
            "step_norm": step,
            "rel_step": rel_step,
            "matvec_calls": sub.matvec_calls,
            "rmatvec_calls": sub.rmatvec_calls,
            "matvec_columns": sub.matvec_columns,
            "build_s": built - tic,
            "engine_s": solved - built,
            "retract_s": retracted - solved,
            "elapsed_seconds": time.perf_counter() - tic,
        }
        for key, val in info.items():
            if key != "iterations":
                record.setdefault(key, val)
        history.append(record)

        zeta = cert.x_tilde
        last_mult = cert.multiplier
        x, y = x_next, y_next
        psi_curr = psi_next
        constraint_curr = constraint_next

        if not accepted:
            status = RunStatus.SUBPROBLEM_FAILURE
            break
        if rel_step <= config.outer_tol:
            status = RunStatus.CONVERGED
            break

    report = stationarity_report(instance, zeta, last_mult / 2.0)
    return RunResult(x_final=np.asarray(zeta, dtype=float),
                     x_retracted=x, history=history,
                     stationarity=report, status=status, error=error)
