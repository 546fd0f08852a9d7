import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from dir_sparse import (lambda_max_gram, least_norm_solution, project_l2_ball,
                        project_weighted_l1_ball, soft_threshold)


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


class TestLeastNorm:
    def test_identity(self):
        x = least_norm_solution(*np.linalg.qr(np.eye(2).T), np.array([3.0, 4.0]))
        np.testing.assert_allclose(x, [3.0, 4.0])

    def test_symmetric_min_norm(self):
        x = least_norm_solution(*np.linalg.qr(np.array([[1.0, 1.0]]).T),
                                np.array([2.0]))
        np.testing.assert_allclose(x, [1.0, 1.0], rtol=1e-14)

    def test_random_residual_and_row_space(self):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((5, 20))
        b = rng.standard_normal(5)
        x = least_norm_solution(*np.linalg.qr(A.T), b)
        assert np.linalg.norm(A @ x - b) <= 1e-10 * np.linalg.norm(b)
        # x must be orthogonal to null-space samples
        for _ in range(5):
            v = rng.standard_normal(20)
            z = v - A.T @ np.linalg.solve(A @ A.T, A @ v)
            assert abs(x @ z) <= 1e-10 * np.linalg.norm(x) * np.linalg.norm(z)

    def test_rank_deficient_raises(self):
        A = np.ones((2, 5))
        with pytest.raises(np.linalg.LinAlgError):
            least_norm_solution(*np.linalg.qr(A.T), np.array([1.0, 1.0]))


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
    def test_projection_feasible_and_idempotent(self, case):
        # Rounding is relative to the input: with tau far below ||w o y||_1
        # the shrinkage |y| - theta w cancels (y = [243], w = [0.05],
        # tau = 1.215e-7 overshoots tau by 1e-8 relative).
        y, w, tau = case
        p = project_weighted_l1_ball(y, w, tau)
        assert float(w @ np.abs(p)) <= tau + 1e-13 * float(w @ np.abs(y))
        pp = project_weighted_l1_ball(p, w, tau)
        assert np.linalg.norm(p - pp) <= 1e-13 * max(1.0, float(np.linalg.norm(y)))

    @settings(max_examples=200, deadline=None)
    @given(projection_cases(), st.floats(1.0, 10.0))
    def test_projection_keeps_feasible_point(self, case, slack):
        y, w, _ = case
        tau = float(w @ np.abs(y)) * slack
        np.testing.assert_array_equal(project_weighted_l1_ball(y, w, tau), y)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_soft_threshold_closed_form(self, data):
        n = data.draw(st.integers(1, 12))
        v = data.draw(hnp.arrays(np.float64, n, elements=st.floats(-1e3, 1e3)))
        t = data.draw(hnp.arrays(np.float64, n, elements=st.floats(0.0, 1e3)))
        want = [a - b if a > b else a + b if a < -b else 0.0 for a, b in zip(v, t)]
        np.testing.assert_array_equal(soft_threshold(v, t), want)
