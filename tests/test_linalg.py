import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from dir_sparse import (lambda_max_gram, least_norm_solution, project_l2_ball,
                        project_weighted_l1_ball, soft_threshold)
from dir_sparse.linalg import invert_upper, l1_kkt_distance, solve_upper


def oracle_weighted_l1_projection(y, w, tau, tol=1e-14):
    """Independent projection oracle: bisection on the exact piecewise-linear
    multiplier equation sum_i w_i max(|y_i| - theta w_i, 0) = tau."""
    a = np.abs(y)
    if float(w @ a) <= tau:
        return y.copy()
    if tau == 0.0:
        return np.zeros_like(y)

    def shrink_total(theta):
        return float(w @ np.maximum(a - theta * w, 0.0))

    lo, hi = 0.0, float(np.max(a / w))
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if shrink_total(mid) > tau:
            lo = mid
        else:
            hi = mid
        if hi - lo <= tol * max(hi, 1.0):
            break
    theta = 0.5 * (lo + hi)
    return np.sign(y) * np.maximum(a - theta * w, 0.0)


def r_factor(A):
    return np.linalg.qr(A.T, mode="r")


def badly_scaled(kind, seed, m=54, n=256):
    """(A, b) with cond(A) about 1e8.

    "rows" scales the rows of a Gaussian A from 1 to 1e-8.  "graded" is
    A = U diag(s) V.T with s from 1 to 1e-8, so its conditioning does not
    come from the scale of its rows and the semi-normal equations alone
    lose about cond(A) digits more than a QR-based solve.
    """
    rng = np.random.default_rng(seed)
    scale = np.logspace(0, -8, m)[:, None]
    if kind == "rows":
        A = scale * rng.standard_normal((m, n))
    else:
        U = np.linalg.qr(rng.standard_normal((m, m)))[0]
        V = np.linalg.qr(rng.standard_normal((n, m)))[0]
        A = U @ (scale * V.T)
    return A, rng.standard_normal(m)


class TestLeastNorm:
    def test_identity(self):
        A = np.eye(2)
        x = least_norm_solution(A, r_factor(A), np.array([3.0, 4.0]))
        np.testing.assert_allclose(x, [3.0, 4.0])

    def test_symmetric_min_norm(self):
        A = np.array([[1.0, 1.0]])
        x = least_norm_solution(A, r_factor(A), np.array([2.0]))
        np.testing.assert_allclose(x, [1.0, 1.0], rtol=1e-14)

    def test_random_residual_and_row_space(self):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((5, 20))
        b = rng.standard_normal(5)
        x = least_norm_solution(A, r_factor(A), b)
        assert np.linalg.norm(A @ x - b) <= 1e-10 * np.linalg.norm(b)
        # x must be orthogonal to null-space samples
        for _ in range(5):
            v = rng.standard_normal(20)
            z = v - A.T @ np.linalg.solve(A @ A.T, A @ v)
            assert abs(x @ z) <= 1e-10 * np.linalg.norm(x) * np.linalg.norm(z)

    def test_rank_deficient_raises(self):
        A = np.ones((2, 5))
        with pytest.raises(np.linalg.LinAlgError):
            least_norm_solution(A, r_factor(A), np.array([1.0, 1.0]))

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("kind", ["rows", "graded"])
    def test_badly_scaled_matches_qr_formula(self, kind, seed):
        A, b = badly_scaled(kind, seed)
        assert 5e7 <= np.linalg.cond(A) <= 5e8
        Q, R = np.linalg.qr(A.T)
        x_qr = Q @ np.linalg.solve(R.T, b)
        x = least_norm_solution(A, r_factor(A), b)

        def rel_residual(y):
            return np.linalg.norm(A @ y - b) / np.linalg.norm(b)

        assert rel_residual(x) <= 2.0 * rel_residual(x_qr)
        assert np.linalg.norm(x - Q @ (Q.T @ x)) <= 1e-8 * np.linalg.norm(x)


class TestSolveUpper:
    @pytest.mark.parametrize("trans", [False, True])
    @pytest.mark.parametrize("kind", ["random", "graded"])
    def test_matches_dense_solve(self, kind, trans):
        # n = 150 spans two full blocks and a partial one.
        rng = np.random.default_rng(3)
        n = 150
        if kind == "random":
            R = np.linalg.qr(rng.standard_normal((2 * n, n)), mode="r")
            agree = 1e-13
        else:
            U = np.linalg.qr(rng.standard_normal((n, n)))[0]
            V = np.linalg.qr(rng.standard_normal((n, n)))[0]
            R = np.linalg.qr(U @ (np.logspace(0, -8, n)[:, None] * V.T), mode="r")
            assert 5e7 <= np.linalg.cond(R) <= 5e8
            agree = 1e-8       # cond(R) eps
        M = R.T if trans else R
        for B in (rng.standard_normal(n), rng.standard_normal((n, 3))):
            X = solve_upper(R, B, trans=trans)
            Y = np.linalg.solve(M, B)
            assert X.shape == B.shape

            def rel_residual(Z):
                return np.linalg.norm(M @ Z - B) / (np.linalg.norm(M) * np.linalg.norm(Z))

            assert rel_residual(X) <= 2.0 * rel_residual(Y) + 1e-16
            assert np.linalg.norm(X - Y) <= agree * np.linalg.norm(Y)


class TestInvertUpper:
    @pytest.mark.parametrize("n", [1, 63, 64, 65, 150])
    def test_inverse_of_upper_triangular(self, n):
        # Block boundaries at 64: one partial block, one full, and more.
        rng = np.random.default_rng(n)
        R = np.linalg.qr(rng.standard_normal((2 * n, n)), mode="r")
        X = invert_upper(R)
        np.testing.assert_array_equal(X, np.triu(X))
        np.testing.assert_allclose(X @ R, np.eye(n), atol=1e-13)
        np.testing.assert_allclose(X, np.linalg.inv(R), rtol=1e-11,
                                   atol=1e-14)

    def test_empty(self):
        assert invert_upper(np.empty((0, 0))).shape == (0, 0)


class TestLambdaMax:
    def test_identity(self):
        assert lambda_max_gram(np.eye(3)) == pytest.approx(1.0, rel=1e-9)

    def test_diagonal_squares(self):
        assert lambda_max_gram(np.diag([1.0, 2.0])) == pytest.approx(4.0, rel=1e-9)

    def test_matches_dense_eigensolver(self):
        rng = np.random.default_rng(1)
        A = rng.standard_normal((20, 50))
        expected = float(np.linalg.eigvalsh(A @ A.T).max())
        assert lambda_max_gram(A) == pytest.approx(expected, rel=1e-6)

    def test_adversarial_start_vector(self):
        # leading eigenvector orthogonal to the all-ones start
        A = np.diag([2.0, -2.0, 1.0])  # AA^T = diag(4, 4, 1); ones is fine here
        assert lambda_max_gram(A) == pytest.approx(4.0, rel=1e-8)
        # top eigenvector e1 - e2 direction via a rotation
        Q = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
        A2 = Q @ np.diag([1.0, 3.0]) @ Q.T
        assert lambda_max_gram(A2) == pytest.approx(9.0, rel=1e-8)


class TestSoftThreshold:
    def test_basic(self):
        np.testing.assert_allclose(
            soft_threshold(np.array([3.0, -3.0, 0.5]), np.array([1.0, 1.0, 1.0])),
            [2.0, -2.0, 0.0])

    def test_zero_threshold_is_identity(self):
        v = np.array([1.5, -2.5, 0.0])
        np.testing.assert_allclose(soft_threshold(v, 0.0), v)

    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            soft_threshold(np.ones(2), np.array([0.1, -0.1]))

    def test_prox_property_by_scan(self):
        # soft_threshold(v, t) minimizes 0.5 (x - v)^2 + t |x| per coordinate;
        # verify against a golden-section scan of the 1-d convex objective.
        rng = np.random.default_rng(2)
        for _ in range(25):
            v = float(rng.uniform(-4, 4))
            t = float(rng.uniform(0, 3))
            got = float(soft_threshold(np.array([v]), np.array([t]))[0])

            def obj(x):
                return 0.5 * (x - v) ** 2 + t * abs(x)

            lo, hi = -6.0, 6.0
            for _ in range(200):
                m1 = lo + (hi - lo) / 3
                m2 = hi - (hi - lo) / 3
                if obj(m1) <= obj(m2):
                    hi = m2
                else:
                    lo = m1
            assert got == pytest.approx(0.5 * (lo + hi), abs=1e-7)


class TestL1KktDistance:
    def test_matches_both_former_formulas(self):
        # The certificate measured |w sign(x) + q| with q = A_k^T u scaled,
        # the stationarity report |g - w sign(x)| with g = -lam grad; both
        # must come out bit for bit.
        rng = np.random.default_rng(4)
        for _ in range(50):
            n = int(rng.integers(1, 40))
            x = rng.standard_normal(n) * (rng.random(n) < 0.5)
            w = rng.uniform(0.0, 2.0, n)
            grad = rng.standard_normal(n) * rng.uniform(0.1, 10.0)
            lam = float(rng.uniform(0.0, 3.0))
            q = lam * grad
            g = -lam * grad
            spg_form = np.where(x != 0.0, np.abs(w * np.sign(x) + q),
                                np.maximum(np.abs(q) - w, 0.0))
            report_form = np.where(x != 0.0, np.abs(g - w * np.sign(x)),
                                   np.maximum(np.abs(g) - w, 0.0))
            got = l1_kkt_distance(x, w, q)
            assert got == float(np.linalg.norm(spg_form))
            assert got == float(np.linalg.norm(report_form))

    def test_zero_inside_subdifferential(self):
        x = np.array([0.0, 2.0, -1.0])
        w = np.array([1.0, 0.5, 2.0])
        assert l1_kkt_distance(x, w, np.array([0.7, -0.5, 2.0])) == 0.0
        assert l1_kkt_distance(x, w, np.array([1.5, 0.0, 2.0])) \
            == pytest.approx(np.hypot(0.5, 0.5), rel=1e-15)


class TestL2Ball:
    def test_inside_unchanged(self):
        y = np.array([0.3, 0.4])
        np.testing.assert_allclose(project_l2_ball(y, 1.0), y)

    def test_radial_scaling(self):
        np.testing.assert_allclose(project_l2_ball(np.array([3.0, 4.0]), 1.0),
                                   [0.6, 0.8], rtol=1e-15)

    def test_zero(self):
        np.testing.assert_allclose(project_l2_ball(np.zeros(3), 2.0), 0.0)

    def test_bad_radius(self):
        with pytest.raises(ValueError):
            project_l2_ball(np.ones(2), 0.0)


class TestWeightedL1Ball:
    def test_feasible_unchanged(self):
        y = np.array([0.5, -0.25])
        w = np.array([1.0, 2.0])
        np.testing.assert_allclose(project_weighted_l1_ball(y, w, 2.0), y)

    def test_one_sparse_geometry(self):
        x = project_weighted_l1_ball(np.array([2.0, 0.0]), np.ones(2), 1.0)
        np.testing.assert_allclose(x, [1.0, 0.0], atol=1e-15)

    def test_tau_zero(self):
        x = project_weighted_l1_ball(np.array([2.0, -3.0]), np.ones(2), 0.0)
        np.testing.assert_allclose(x, 0.0)

    def test_matches_bisection_oracle(self):
        rng = np.random.default_rng(3)
        for trial in range(200):
            n = int(rng.integers(1, 7))
            y = rng.standard_normal(n) * rng.uniform(0.1, 10)
            w = rng.uniform(0.05, 5.0, n)
            tau = float(rng.uniform(0, 1.2) * (w @ np.abs(y)))
            got = project_weighted_l1_ball(y, w, tau)
            want = oracle_weighted_l1_projection(y, w, tau)
            assert np.linalg.norm(got - want) <= 1e-8, (trial, y, w, tau)
            assert float(w @ np.abs(got)) <= tau * (1 + 1e-12) + 1e-15

    def test_idempotent(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            y = rng.standard_normal(8) * 3
            w = rng.uniform(0.1, 3.0, 8)
            tau = float(rng.uniform(0.1, 2.0))
            p = project_weighted_l1_ball(y, w, tau)
            pp = project_weighted_l1_ball(p, w, tau)
            assert np.linalg.norm(p - pp) <= 1e-12

    def test_optimality_vs_random_feasible(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            y = rng.standard_normal(6) * 2
            w = rng.uniform(0.2, 2.0, 6)
            tau = float(rng.uniform(0.1, 1.5))
            p = project_weighted_l1_ball(y, w, tau)
            for _ in range(20):
                z = rng.standard_normal(6)
                z *= tau * rng.random() / max(float(w @ np.abs(z)), 1e-300)
                assert np.linalg.norm(y - p) <= np.linalg.norm(y - z) + 1e-10

    def test_l2_projection_idempotent(self):
        rng = np.random.default_rng(6)
        y = rng.standard_normal(5) * 4
        p = project_l2_ball(y, 1.5)
        np.testing.assert_allclose(project_l2_ball(p, 1.5), p, atol=1e-12)

    def test_bad_weights(self):
        with pytest.raises(ValueError):
            project_weighted_l1_ball(np.ones(2), np.array([1.0, 0.0]), 1.0)


@st.composite
def projection_cases(draw):
    n = draw(st.integers(1, 12))
    y = draw(hnp.arrays(np.float64, n, elements=st.floats(-1e3, 1e3)))
    w = draw(hnp.arrays(np.float64, n, elements=st.floats(0.05, 20.0)))
    tau = draw(st.floats(0.0, 1.2)) * float(w @ np.abs(y))
    return y, w, tau


class TestProperties:
    @settings(max_examples=200, deadline=None)
    @given(projection_cases())
    # The first projection lands outside the ball by rounding only; the
    # second one once found no valid breakpoint and blew the point up.
    @example((np.array([9.144458723831605, 7.468009923804169,
                        6.142304211792081, -3.913393374441042]),
              np.array([11.219887076744714, 13.917571831509017,
                        8.5009450051871, 17.41367770957834]),
              247.62153672762085))
    # Subnormal input: the weighted norm of p overshoots tau by 14 units of
    # 2^-1074, and the relative term rounds to 0.
    @example((np.array([2.22507386e-313]), np.array([6.0]), 1.16816377572e-312))
    def test_projection_feasible_and_idempotent(self, case):
        # Rounding is relative to the input: with tau far below ||w o y||_1
        # the shrinkage |y| - theta w cancels (y = [243], w = [0.05],
        # tau = 1.215e-7 overshoots tau by 1e-8 relative).
        # Below 2^-1022 rounding is absolute instead, up to half a unit of
        # 2^-1074 per operation.  The rounding of theta enters the weighted
        # norm times w . w, and the sums that form theta and that norm and
        # each entry's shrinkage add at most ||w||_1 + 2 n units more.  For
        # the drawn weights the floor is at most 2664 units (1.3e-320), under
        # the relative term of any y with ||w o y||_1 above 1.4e-307 (six times
        # the smallest normal number).
        y, w, tau = case
        floor = (float(w @ w) / 2 + float(w.sum()) + 2 * y.size) * 2.0 ** -1074
        p = project_weighted_l1_ball(y, w, tau)
        assert float(w @ np.abs(p)) <= tau + 1e-13 * float(w @ np.abs(y)) + floor
        pp = project_weighted_l1_ball(p, w, tau)
        assert np.linalg.norm(p - pp) <= 1e-13 * max(1.0, float(np.linalg.norm(y)))

    @settings(max_examples=200, deadline=None)
    @given(projection_cases())
    # tau far below ||w o y||_1: the shrinkage |y| - theta w cancels, and
    # the unscaled result overshot tau by 1e-8 relative.
    @example((np.array([243.0]), np.array([0.05]), 1.215e-7))
    def test_projection_within_tau(self, case):
        # Relative rounding only: below about 1e-300 it turns absolute (see
        # test_projection_feasible_and_idempotent).
        y, w, tau = case
        assume(tau == 0.0 or tau >= 1e-300)
        p = project_weighted_l1_ball(y, w, tau)
        assert float(w @ np.abs(p)) <= tau * (1 + 1e-12)

    @settings(max_examples=200, deadline=None)
    @given(projection_cases(), st.floats(1.0, 10.0))
    def test_projection_keeps_feasible_point(self, case, slack):
        y, w, _ = case
        tau = float(w @ np.abs(y)) * slack
        np.testing.assert_array_equal(project_weighted_l1_ball(y, w, tau), y)

    @settings(max_examples=200, deadline=None)
    @given(projection_cases(),
           hnp.arrays(np.float64, 12, elements=st.floats(-1e3, 1e3)),
           st.floats(1e-3, 1e3),
           st.floats(1.0, 1e3, exclude_min=True))
    def test_projection_residual_monotone_in_step(self, case, g_full, t1, ratio):
        # For x in the ball, ||P(x - t g) - x|| grows with t and shrinks
        # divided by t (Calamai & More 1987): the bound the SPG stop test
        # reads off its next direction rests on both.
        y, w, tau = case
        x = project_weighted_l1_ball(y, w, tau)
        g = g_full[:x.size]
        t2 = t1 * ratio
        p1, p2 = (float(np.linalg.norm(project_weighted_l1_ball(x - t * g, w, tau) - x))
                  for t in (t1, t2))
        err1, err2 = (1e-12 * (float(np.linalg.norm(x)) + t * float(np.linalg.norm(g)))
                      for t in (t1, t2))
        assert p1 <= p2 + err1 + err2
        assert p2 / t2 <= p1 / t1 + err1 / t1 + err2 / t2

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_soft_threshold_closed_form(self, data):
        n = data.draw(st.integers(1, 12))
        v = data.draw(hnp.arrays(np.float64, n, elements=st.floats(-1e3, 1e3)))
        t = data.draw(hnp.arrays(np.float64, n, elements=st.floats(0.0, 1e3)))
        want = [a - b if a > b else a + b if a < -b else 0.0 for a, b in zip(v, t)]
        np.testing.assert_array_equal(soft_threshold(v, t), want)
