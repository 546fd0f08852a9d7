import math

import numpy as np
import pytest

from dir_sparse import LossKind, LossSpec, PenaltySpec, constraint_grad, \
    constraint_value, validate_assumptions

ALL_KINDS = list(LossKind)
DELTAS = [0.01, 0.05, 1.0, 10.0]

# Analytic right derivatives at t = 0, per kind, as functions of delta.
DPLUS_AT_ZERO = {
    LossKind.CAUCHY: lambda d: 1.0 / d ** 2,
    LossKind.GEMAN_MCCLURE: lambda d: 1.0 / (2 * d ** 2),
    LossKind.WELSH: lambda d: 1.0 / (2 * d ** 2),
    LossKind.PSEUDO_HUBER: lambda d: 1.0 / (2 * d ** 2),
    LossKind.HUBER: lambda d: 0.5,
    LossKind.TUKEY_BIWEIGHT: lambda d: 0.5,
}


class TestValues:
    def test_cauchy_log2(self):
        assert LossSpec(LossKind.CAUCHY, 1.0).value(1.0) == pytest.approx(
            0.6931471805599453, abs=1e-15)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_zero_maps_to_zero(self, kind):
        assert LossSpec(kind, 0.7).value(0.0) == 0.0

    def test_tukey_flat_region(self):
        assert LossSpec(LossKind.TUKEY_BIWEIGHT, 1.0).value(9.0) == pytest.approx(1 / 6)

    def test_huber_formula(self):
        loss = LossSpec(LossKind.HUBER, 2.0)
        assert loss.value(1.0) == pytest.approx(0.5)          # sqrt(t) <= delta
        assert loss.value(9.0) == pytest.approx(2 * (3 - 1))  # delta(sqrt(t)-delta/2)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            LossSpec(LossKind.CAUCHY, 1.0).value(-1e-9)
        with pytest.raises(ValueError):
            LossSpec(LossKind.WELSH, 1.0).dplus(np.array([0.5, -0.5]))

    def test_rejects_bad_delta(self):
        with pytest.raises(ValueError):
            LossSpec(LossKind.CAUCHY, 0.0)


class TestRightDerivative:
    def test_cauchy_at_zero(self):
        assert LossSpec(LossKind.CAUCHY, 0.05).dplus(0.0) == pytest.approx(400.0)

    def test_tukey_constant_region(self):
        assert LossSpec(LossKind.TUKEY_BIWEIGHT, 1.0).dplus(4.0) == 0.0

    def test_huber_kink_value(self):
        assert LossSpec(LossKind.HUBER, 2.0).dplus(4.0) == pytest.approx(0.5)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("delta", DELTAS)
    def test_limit_at_zero(self, kind, delta):
        assert LossSpec(kind, delta).dplus(0.0) == pytest.approx(
            DPLUS_AT_ZERO[kind](delta), rel=1e-14)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("delta", DELTAS)
    def test_continuity_at_piecewise_boundary(self, kind, delta):
        loss = LossSpec(kind, delta)
        t = delta ** 2
        below = loss.dplus(t * (1 - 1e-13))
        above = loss.dplus(t * (1 + 1e-13))
        assert abs(below - above) <= 1e-12 * max(1.0, below)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    @pytest.mark.parametrize("delta", DELTAS)
    def test_monotonicity_and_sign(self, kind, delta):
        loss = LossSpec(kind, delta)
        grid = np.concatenate([[0.0], np.geomspace(1e-8, 1e4, 200) * delta ** 2])
        vals = loss.value(grid)
        ders = loss.dplus(grid)
        assert vals[0] == 0.0
        assert np.all(np.diff(vals) >= -1e-12)     # phi nondecreasing
        assert np.all(ders >= 0.0)                 # phi' nonnegative
        assert np.all(np.diff(ders) <= 1e-12)      # phi' nonincreasing (concavity)


class TestSup:
    def test_unbounded_kinds(self):
        for kind in (LossKind.CAUCHY, LossKind.PSEUDO_HUBER, LossKind.HUBER):
            assert LossSpec(kind, 3.0).sup() == math.inf

    def test_bounded_kinds(self):
        assert LossSpec(LossKind.WELSH, 2.0).sup() == 1.0
        assert LossSpec(LossKind.GEMAN_MCCLURE, 2.0).sup() == 2.0
        assert LossSpec(LossKind.TUKEY_BIWEIGHT, 0.05).sup() == pytest.approx(
            4.1666666666666667e-4)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_sup_dominates_samples(self, kind):
        loss = LossSpec(kind, 0.3)
        assert float(np.max(loss.value(np.geomspace(1e-6, 1e8, 100)))) \
            <= loss.sup() + 1e-12


class TestPenalty:
    def test_values(self):
        pen = PenaltySpec(0.1)
        assert pen.value(0.0) == 0.0
        assert pen.dplus(0.0) == pytest.approx(10.0)
        assert PenaltySpec(1.0).value(math.e - 1.0) == pytest.approx(1.0)

    def test_strictly_decreasing_derivative(self):
        pen = PenaltySpec(0.25)
        grid = np.linspace(0.0, 5.0, 100)
        d = pen.dplus(grid)
        assert np.all(d > 0)
        assert np.all(np.diff(d) < 0)

    def test_rejects_bad_epsilon(self):
        with pytest.raises(ValueError):
            PenaltySpec(0.0)


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("delta", DELTAS)
def test_majorization(kind, delta):
    # phi(s) <= phi(t) + phi'_+(t) (s - t) for concave phi, any s, t >= 0.
    loss = LossSpec(kind, delta)
    rng = np.random.default_rng(7)
    s = rng.uniform(0, 10 * delta ** 2, 500)
    t = rng.uniform(0, 10 * delta ** 2, 500)
    lhs = loss.value(s)
    rhs = loss.value(t) + loss.dplus(t) * (s - t)
    assert np.all(lhs <= rhs + 1e-12)


def test_majorization_penalty():
    pen = PenaltySpec(0.1)
    rng = np.random.default_rng(8)
    s = rng.uniform(0, 20, 500)
    t = rng.uniform(0, 20, 500)
    assert np.all(pen.value(s) <= pen.value(t) + pen.dplus(t) * (s - t) + 1e-12)


class TestConstraintFunction:
    def test_zero_residual(self):
        A = np.array([[1.0, 2.0], [3.0, 4.0]])
        x = np.array([1.0, -1.0])
        b = A @ x
        loss = LossSpec(LossKind.CAUCHY, 1.0)
        y = b - A @ x
        assert constraint_value(loss, y) == 0.0
        np.testing.assert_allclose(constraint_grad(loss, A, y), 0.0)

    def test_hand_computed_1d(self):
        # Cauchy delta=1, A=[1], b=[1], x=[0]: value log 2, gradient -1
        # (independently: -2 phi'(1) * 1 * 1 = -2 * 0.5, checked by central
        # differences at 1e-7 which gave -1.0000000000 on the same data).
        loss = LossSpec(LossKind.CAUCHY, 1.0)
        A = np.array([[1.0]])
        b = np.array([1.0])
        y = b - A @ np.array([0.0])
        assert constraint_value(loss, y) == pytest.approx(
            0.6931471805599453, abs=1e-15)
        np.testing.assert_allclose(constraint_grad(loss, A, y), [-1.0],
                                   rtol=1e-14)

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_gradient_matches_finite_differences(self, kind):
        loss = LossSpec(kind, 0.5)
        rng = np.random.default_rng(11)
        A = rng.standard_normal((3, 5))
        b = rng.standard_normal(3)
        for _ in range(10):
            x = rng.standard_normal(5)
            r = b - A @ x
            # keep away from the Huber/Tukey kink at |r| = delta
            if np.any(np.abs(np.abs(r) - loss.delta) < 1e-3):
                continue
            g = constraint_grad(loss, A, r)
            fd = np.empty(5)
            for i in range(5):
                h = 1e-6 * (1.0 + abs(x[i]))
                e = np.zeros(5)
                e[i] = h
                fd[i] = (constraint_value(loss, b - A @ (x + e))
                         - constraint_value(loss, b - A @ (x - e))) / (2 * h)
            np.testing.assert_allclose(g, fd, rtol=1e-5, atol=1e-8)

    def test_dimension_mismatch(self):
        loss = LossSpec(LossKind.CAUCHY, 1.0)
        with pytest.raises(ValueError):
            constraint_grad(loss, np.eye(2), np.ones(3))


def _validate(A, b, sigma, loss):
    """Validate with R from the QR of A.T, as ProblemInstance.build does."""
    return validate_assumptions(A, b, sigma, loss, np.linalg.qr(A.T, mode="r"))


class TestValidateAssumptions:
    def _data(self, m=4, n=10, seed=0):
        rng = np.random.default_rng(seed)
        A = rng.standard_normal((m, n))
        b = rng.standard_normal(m)
        return A, b

    def test_valid_cauchy(self):
        A, b = self._data()
        loss = LossSpec(LossKind.CAUCHY, 0.5)
        total = float(np.sum(loss.value(b * b)))
        report = _validate(A, b, 0.5 * total, loss)
        assert report.ok, report

    def test_sup_check_vacuous_for_unbounded(self):
        # any valid sigma passes the collision check when sup(phi) = inf
        A, b = self._data()
        loss = LossSpec(LossKind.CAUCHY, 0.5)
        total = float(np.sum(loss.value(b * b)))
        for frac in (0.1, 0.5, 0.9):
            assert _validate(A, b, frac * total, loss).ok

    def test_sigma_zero_fails(self):
        A, b = self._data()
        report = _validate(A, b, 0.0, LossSpec(LossKind.CAUCHY, 0.5))
        assert not report.ok
        assert any("sigma" in f for f in report.failures)

    def test_welsh_sup_collision(self):
        # Welsh has sup(phi) = 1; sigma = 2 collides with k = 2.
        rng = np.random.default_rng(3)
        A = rng.standard_normal((3, 9))
        b = 100.0 * np.ones(3)   # constraint at zero ~ 3, above sigma = 2
        report = _validate(A, b, 2.0, LossSpec(LossKind.WELSH, 0.1))
        assert not report.ok
        assert any("sup" in f for f in report.failures)

    def test_rank_deficiency(self):
        A = np.ones((3, 6))
        b = np.array([10.0, 10.0, 10.0])
        report = _validate(A, b, 1.0, LossSpec(LossKind.CAUCHY, 0.5))
        assert not report.ok
        assert any("rank" in f for f in report.failures)

    def test_tall_matrix_rejected(self):
        rng = np.random.default_rng(4)
        A = rng.standard_normal((6, 3))
        b = rng.standard_normal(6)
        report = _validate(A, b, 1.0, LossSpec(LossKind.CAUCHY, 0.5))
        assert not report.ok

    @pytest.mark.parametrize("where, value", [
        ("A", math.nan), ("A", math.inf), ("b", math.nan), ("sigma", math.nan)])
    def test_non_finite_input_named_alone(self, where, value):
        A, b = self._data()
        sigma = 1.0
        if where == "A":
            A[1, 2] = value
        elif where == "b":
            b[0] = value
        else:
            sigma = value
        report = _validate(A, b, sigma, LossSpec(LossKind.CAUCHY, 0.5))
        assert not report.ok
        assert len(report.failures) == 1
        assert "non-finite" in report.failures[0]
        assert report.failures[0].endswith(f" in {where}")
