import numpy as np
import pytest

from dir_sparse import (DirConfig, LossKind, LossSpec, PenaltySpec,
                        build_subproblem, pareto_newton,
                        project_weighted_l1_ball, retract, run_dir, spg_lasso)
from dir_sparse import spg as spg_module
from dir_sparse.core import ProblemInstance, SubproblemData

from conftest import make_instance


def one_dim_sub(b=2.0, sigma_k=1.0, x_k=1.5, eps_k=1e-6, mu_k=0.5, tau_k=1e-6):
    """A_k = [1], b_w = [b], w = [1]: Pareto curve phi(tau) = max(b - tau, 0)."""
    inst = ProblemInstance(A=np.array([[1.0]]), b=np.array([b]), sigma=sigma_k,
                           loss=LossSpec(LossKind.CAUCHY, 1.0),
                           penalty=PenaltySpec(0.1),
                           least_norm=np.array([b]), gram_lmax=1.0)
    return SubproblemData(instance=inst, k=0, x_k=np.array([x_k]),
                          w=np.array([1.0]), v=np.array([1.0]),
                          b_w=np.array([b]), sigma_k=sigma_k, eps_k=eps_k,
                          mu_k=mu_k, tau_k=tau_k)


def random_sub(m, n, seed):
    inst = make_instance(m, n, seed=seed)
    return build_subproblem(inst, inst.least_norm, 0)


class TestSpgLasso:
    def test_tau_zero(self):
        sub = random_sub(4, 10, seed=0)
        x, lam, iters, conv = spg_lasso(sub, 0.0, None)
        np.testing.assert_array_equal(x, 0.0)
        assert conv and iters == 0

    def test_negative_tau_rejected(self):
        sub = random_sub(4, 10, seed=0)
        with pytest.raises(ValueError):
            spg_lasso(sub, -1.0, None)

    def test_interior_optimum_reaches_zero_residual(self):
        sub = random_sub(4, 10, seed=1)
        # least-norm interpolant of the scaled system
        x_ls = np.linalg.lstsq(sub.v[:, None] * sub.instance.A, sub.b_w,
                               rcond=None)[0]
        tau = 1.1 * float(np.abs(sub.w * x_ls).sum())
        x, lam, iters, conv = spg_lasso(sub, tau, None)
        resid = float(np.linalg.norm(sub.matvec(x) - sub.b_w))
        assert resid <= 1e-6 * float(np.linalg.norm(sub.b_w))

    def test_one_dim_analytic(self):
        sub = one_dim_sub(b=2.0)
        x, lam, iters, conv = spg_lasso(sub, 1.0, None)
        np.testing.assert_allclose(x, [1.0], atol=1e-12)
        assert float(np.linalg.norm(sub.matvec(x) - sub.b_w)) \
            == pytest.approx(1.0, abs=1e-12)
        assert lam == pytest.approx(1.0, rel=1e-8)

    def test_termination_fixed_point_residual(self):
        tol = 1e-6
        for seed in range(5):
            sub = random_sub(5, 12, seed=seed)
            tau = 0.3 * float(np.abs(sub.w * sub.instance.least_norm).sum())
            x, lam, iters, conv = spg_lasso(sub, tau, None, tol=tol)
            assert conv
            g = -sub.rmatvec(sub.b_w - sub.matvec(x))
            fp = x - project_weighted_l1_ball(x - g, sub.w, tau)
            assert np.linalg.norm(fp) <= 10 * tol * max(np.linalg.norm(x), 1.0)

    def test_iterate_feasible(self):
        sub = random_sub(5, 12, seed=6)
        tau = 0.5
        x, _, _, _ = spg_lasso(sub, tau, None)
        assert float(np.abs(sub.w * x).sum()) <= tau * (1 + 1e-12)


class TestParetoNewton:
    def test_one_dim_two_steps(self):
        # phi(tau) = max(2 - tau, 0), slope -1: Newton from 0 lands on the
        # root tau = 1 in one step and certifies on re-evaluation.
        sub = one_dim_sub(b=2.0, sigma_k=1.0)
        cert, state, info = pareto_newton(sub, None, "certified")
        assert info["ok"]
        assert info["newton_steps"] <= 2
        assert state.tau == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(cert.x_tilde, [1.0], atol=1e-12)
        assert cert.coupling_residual <= 1e-12
        assert cert.kkt_residual <= 1e-10
        assert cert.multiplier == pytest.approx(1.0, rel=1e-8)

    def test_zero_feasible_precondition(self):
        sub = one_dim_sub(b=0.5, sigma_k=1.0)   # ||b_w|| < sigma_bar
        with pytest.raises(ValueError, match="already feasible"):
            pareto_newton(sub, None, "certified")

    def test_unknown_mode(self):
        sub = one_dim_sub()
        with pytest.raises(ValueError):
            pareto_newton(sub, None, "exactly")

    def test_desk_root_accuracy(self, desk_instance):
        inst, _ = desk_instance
        sub = build_subproblem(inst, inst.least_norm, 0)
        cert, state, info = pareto_newton(sub, None, "blackbox")
        rho = float(np.linalg.norm(sub.matvec(cert.x_tilde) - sub.b_w))
        assert abs(rho - sub.sigma_bar) <= 1e-4 * sub.sigma_bar

    def test_curve_monotone_and_bracketing(self, desk_instance):
        inst, _ = desk_instance
        sub = build_subproblem(inst, inst.least_norm, 0)
        cert, state, info = pareto_newton(sub, None, "certified")
        hist = state.history
        taus = [h[0] for h in hist]
        phis = [h[1] for h in hist]
        slopes = [h[2] for h in hist]
        for (t0, p0), (t1, p1) in zip(zip(taus, phis), zip(taus[1:], phis[1:])):
            if t1 >= t0:
                assert p1 <= p0 + 1e-8          # curve decreasing in tau
        for t0, t1, p0 in zip(taus, taus[1:], phis):
            if p0 > sub.sigma_bar + 1e-10:
                assert t1 >= t0 - 1e-10         # approach the root from the left
        for p, s in zip(phis, slopes):
            if p > sub.sigma_bar > 0:
                assert s < 0.0                  # dual-norm slope negative

    def test_sphere_projection_norm(self, desk_instance):
        inst, _ = desk_instance
        sub = build_subproblem(inst, inst.least_norm, 0)
        cert, _, _ = pareto_newton(sub, None, "certified")
        assert float(np.linalg.norm(cert.u_tilde)) \
            == pytest.approx(sub.sigma_bar, rel=1e-14)

    def test_blackbox_records_without_enforcing(self, monkeypatch):
        # a sloppy tolerance fails the certificate bounds; blackbox mode must
        # still report ok and record the honest residuals
        sub = random_sub(6, 14, seed=7)
        sub.eps_k = 1e-12
        monkeypatch.setattr(spg_module, "_LASSO_TOL", 1e-2)
        monkeypatch.setattr(spg_module, "_MAX_NEWTON", 6)
        cert, state, info = pareto_newton(sub, None, "blackbox")
        assert info["ok"]
        assert not cert.criteria_met(sub.eps_k)

    def test_certified_reports_failure_when_exhausted(self):
        sub = random_sub(6, 14, seed=8)
        sub.eps_k = 1e-15    # unreachable
        cert, state, info = pareto_newton(sub, None, "certified")
        assert not info["ok"]
        assert info["escalations"] == spg_module._MAX_ESCALATIONS


class TestCertificate:
    def test_one_product_each_way(self, monkeypatch):
        sub = random_sub(6, 14, seed=9)
        x, lam, _, _ = spg_lasso(sub, 0.01 * sub.ref_objective, None)
        assert np.linalg.norm(sub.matvec(x) - sub.b_w) > sub.sigma_bar  # retract blends
        want_descent = bool(np.abs(sub.w * retract(sub, x)).sum()
                            <= sub.ref_objective + sub.mu_k)
        calls = []
        for name in ("matvec", "rmatvec"):
            def counted(self, z, _orig=getattr(SubproblemData, name), _name=name):
                calls.append(_name)
                return _orig(self, z)
            monkeypatch.setattr(SubproblemData, name, counted)
        cert = spg_module._certificate(sub, x, lam)
        assert calls.count("matvec") == 1 and calls.count("rmatvec") == 1
        assert cert.descent_ok == want_descent


class TestEndToEnd:
    def test_certified_run_matches_blackbox_quality(self, desk_instance):
        inst, x_orig = desk_instance
        res_c = run_dir(inst, DirConfig(engine="spg"))
        res_b = run_dir(inst, DirConfig(engine="spg-blackbox"))
        for res in (res_c, res_b):
            err = np.linalg.norm(res.x_final - x_orig) \
                / max(np.linalg.norm(x_orig), 1.0)
            assert err <= 0.02
        assert all(h["criteria_enforced"] for h in res_c.history)
        assert not any(h["criteria_enforced"] for h in res_b.history)
