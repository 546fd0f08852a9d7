import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from dir_sparse import (DirConfig, LossKind, LossSpec, PenaltySpec, RunStatus,
                        build_subproblem, lambda_max_gram, pareto_newton,
                        project_weighted_l1_ball, retract, run_dir, spg_lasso)
from dir_sparse import core as core_module, spg as spg_module
from dir_sparse.core import FaceFactor, ProblemInstance, SubproblemData, face_solve

from conftest import make_instance


def one_dim_sub(b=2.0, sigma_k=1.0, x_k=1.5, eps_k=1e-6, mu_k=0.5, tau_k=1e-6):
    """A_k = [1], b_w = [b], w = [1]: Pareto curve phi(tau) = max(b - tau, 0)."""
    inst = ProblemInstance(A=np.array([[1.0]]), b=np.array([b]), sigma=sigma_k,
                           loss=LossSpec(LossKind.CAUCHY, 1.0),
                           penalty=PenaltySpec(0.1),
                           least_norm=np.array([b]), gram_lmax=1.0)
    return SubproblemData(instance=inst, x_k=np.array([x_k]),
                          w=np.array([1.0]), v=np.array([1.0]),
                          b_w=np.array([b]), sigma_k=sigma_k, eps_k=eps_k,
                          mu_k=mu_k, tau_k=tau_k)


def random_sub(m, n, seed):
    inst = make_instance(m, n, seed=seed)
    return build_subproblem(inst, inst.least_norm, 0)


class TestSpgLasso:
    def test_tau_zero(self):
        sub = random_sub(4, 10, seed=0)
        x, lam, iters, conv, r, g = spg_lasso(sub, 0.0, None)
        np.testing.assert_array_equal(x, 0.0)
        assert conv and iters == 0
        np.testing.assert_array_equal(r, sub.b_w)
        np.testing.assert_array_equal(g, -sub.rmatvec(sub.b_w))

    def test_returns_final_residual_and_gradient(self, desk_instance):
        # The desk solve runs for hundreds of iterations on a residual
        # carried by r <- r - s A_k d; none of its drift may reach r and g.
        inst, _ = desk_instance
        for sub, least_iters in ((random_sub(5, 12, seed=2), 1),
                                 (build_subproblem(inst, inst.least_norm, 0), 200)):
            x, _, iters, _, r, g = spg_lasso(sub, 0.3 * sub.ref_objective, None)
            assert iters >= least_iters
            np.testing.assert_array_equal(r, sub.b_w - sub.matvec(x))
            np.testing.assert_array_equal(g, -sub.rmatvec(r))

    def test_one_product_each_way_per_iteration(self, monkeypatch, desk_instance):
        # From the origin, whose residual is b_w: one rmatvec at the start,
        # one matvec and one rmatvec per iteration and at exit; one
        # projection per iteration, one for the first direction and the
        # unit-step probe at exit.  Backtracking spends none of them.
        products = {"matvec": [], "rmatvec": []}
        for name in products:
            def counted(self, z, _orig=getattr(SubproblemData, name), _name=name):
                out = _orig(self, z)
                products[_name].append((z.copy(), out))
                return out
            monkeypatch.setattr(SubproblemData, name, counted)
        projections = []

        def project(*args, _orig=project_weighted_l1_ball):
            projections.append(1)
            return _orig(*args)

        monkeypatch.setattr(spg_module, "project_weighted_l1_ball", project)
        inst, _ = desk_instance
        sub = build_subproblem(inst, inst.least_norm, 0)
        x, _, iters, conv, r, g = spg_lasso(sub, 0.3 * sub.ref_objective, None)
        assert conv
        assert len(products["matvec"]) == iters + 1
        assert len(products["rmatvec"]) == iters + 2
        assert len(projections) <= iters + 2
        # The residuals handed to rmatvec show the Armijo test backtracking:
        # some accepted move is shorter than the full step r - A_k d.
        residuals = [z for z, _ in products["rmatvec"]]
        moves = [out for _, out in products["matvec"][:-1]]
        full = [np.allclose(r1, r0 - Ad, rtol=1e-12, atol=1e-12)
                for r0, r1, Ad in zip(residuals, residuals[1:], moves)]
        assert len(full) == iters and not all(full)

    def test_start_inside_ball_spends_no_product(self, monkeypatch):
        # The exact point of a solve at a smaller tau lies in the larger
        # ball, so the next solve spends products only on its iterations
        # and at exit.
        sub = random_sub(6, 14, seed=3)
        x, _, _, _, r, g = spg_lasso(sub, 0.2 * sub.ref_objective, None)
        calls = []
        for name in ("matvec", "rmatvec"):
            def counted(self, z, _orig=getattr(SubproblemData, name), _name=name):
                calls.append(_name)
                return _orig(self, z)
            monkeypatch.setattr(SubproblemData, name, counted)
        _, _, iters, conv, _, _ = spg_lasso(sub, 0.3 * sub.ref_objective,
                                            (x, r, g))
        assert conv and iters > 0
        assert calls.count("matvec") == calls.count("rmatvec") == iters + 1

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
        x, lam, iters, conv, _, _ = spg_lasso(sub, tau, None)
        resid = float(np.linalg.norm(sub.matvec(x) - sub.b_w))
        assert resid <= 1e-6 * float(np.linalg.norm(sub.b_w))

    def test_one_dim_analytic(self):
        sub = one_dim_sub(b=2.0)
        x, lam, iters, conv, _, _ = spg_lasso(sub, 1.0, None)
        np.testing.assert_allclose(x, [1.0], atol=1e-12)
        assert float(np.linalg.norm(sub.matvec(x) - sub.b_w)) \
            == pytest.approx(1.0, abs=1e-12)
        assert lam == pytest.approx(1.0, rel=1e-8)

    def test_termination_fixed_point_residual(self):
        tol = 1e-6
        for seed in range(5):
            sub = random_sub(5, 12, seed=seed)
            tau = 0.3 * float(np.abs(sub.w * sub.instance.least_norm).sum())
            x, lam, iters, conv, _, _ = spg_lasso(sub, tau, None, tol=tol)
            assert conv
            g = -sub.rmatvec(sub.b_w - sub.matvec(x))
            fp = x - project_weighted_l1_ball(x - g, sub.w, tau)
            assert np.linalg.norm(fp) <= 10 * tol * max(np.linalg.norm(x), 1.0)

    def test_fixed_point_bound_is_the_only_stop(self, monkeypatch,
                                                desk_instance):
        # At a tight tol the desk solve stops at the first iteration that
        # meets the fixed-point bound: capped one iteration earlier, the
        # same iterations run and none of them stops.  No step or gap test
        # may hold the stop back.
        inst, _ = desk_instance
        sub = build_subproblem(inst, inst.least_norm, 0)
        tau, tol = 0.3 * sub.ref_objective, 1e-11
        x, _, iters, conv, _, g = spg_lasso(sub, tau, None, tol=tol)
        assert conv and iters > 1
        fp = x - project_weighted_l1_ball(x - g, sub.w, tau)
        assert np.linalg.norm(fp) <= 10 * tol * max(np.linalg.norm(x), 1.0)
        monkeypatch.setattr(spg_module, "_MAX_SPG_PER_LASSO", iters - 1)
        _, _, capped, conv_capped, _, _ = spg_lasso(sub, tau, None, tol=tol)
        assert capped == iters - 1 and not conv_capped

    def test_iterate_feasible(self):
        sub = random_sub(5, 12, seed=6)
        tau = 0.5
        x, _, _, _, _, _ = spg_lasso(sub, tau, None)
        assert float(np.abs(sub.w * x).sum()) <= tau * (1 + 1e-12)


def face_kkt(sub, support, signs, tau):
    """Equality-constrained least squares on the face from its KKT system."""
    B = sub.v[:, None] * sub.instance.A[:, support]
    c = sub.w[support] * signs
    k = support.size
    K = np.zeros((k + 1, k + 1))
    K[:k, :k] = B.T @ B
    K[:k, k] = K[k, :k] = c
    sol = np.linalg.solve(K, np.append(B.T @ sub.b_w, tau))
    return sol[:k], sol[k]


def random_face(seed, m=12, n=30, k=6):
    """A random support, the signs of its least-squares point and c . z_ls."""
    sub = random_sub(m, n, seed=seed)
    support = np.sort(np.random.default_rng(seed).choice(n, size=k, replace=False))
    B = sub.v[:, None] * sub.instance.A[:, support]
    z_ls = np.linalg.lstsq(B, sub.b_w, rcond=None)[0]
    signs = np.sign(z_ls)
    return sub, support, signs, float(sub.w[support] * signs @ z_ls)


class TestFaceMinimizer:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_kkt_solution(self, seed):
        # On the face's plane c . z = tau the minimizer is z_ls - mu h with
        # mu = (c . z_ls - tau) / (c . h), from the face's inverse Gram
        # matrix.
        sub, support, signs, c_zls = random_face(seed)
        tau = 0.999 * c_zls
        z_kkt, mu = face_kkt(sub, support, signs, tau)
        assert mu > 0 and np.array_equal(np.sign(z_kkt), signs)
        c, z_ls, h, _ = FaceFactor(sub, support, signs).solve()
        z = z_ls - (float(c @ z_ls) - tau) / float(c @ h) * h
        np.testing.assert_allclose(z, z_kkt, rtol=1e-10)

    @pytest.mark.parametrize("k", [12, 13])
    def test_none_when_support_fills_rows(self, k):
        sub = random_sub(12, 30, seed=0)
        x = np.zeros(30)
        x[:k] = 1.0
        assert face_solve(sub, x) is None
        assert sub.matvec_calls == sub.rmatvec_calls == 0

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 10), st.floats(1e-3, 1.2),
           st.booleans())
    # Both once left the ball through a projection that overshot tau by
    # rounding (3.2e-8 and 4.2e-12 relative).
    @example(seed=31929, m=2, fraction=0.125, warm=False)
    @example(seed=5673, m=2, fraction=0.026071855930396164, warm=False)
    def test_iterates_stay_in_ball(self, seed, m, fraction, warm):
        # Random row scalings v and weights w.
        rng = np.random.default_rng(seed)
        n = 3 * m
        A = rng.standard_normal((m, n))
        v = rng.uniform(0.2, 2.0, m)
        w = rng.uniform(0.2, 2.0, n)
        b_w = rng.standard_normal(m)
        x_ls = np.linalg.lstsq(v[:, None] * A, b_w, rcond=None)[0]
        inst = ProblemInstance(A=A, b=b_w / v, sigma=1.0,
                               loss=LossSpec(LossKind.CAUCHY, 1.0),
                               penalty=PenaltySpec(0.1), least_norm=x_ls,
                               gram_lmax=lambda_max_gram(A))
        sub = SubproblemData(instance=inst, x_k=x_ls, w=w, v=v, b_w=b_w,
                             sigma_k=1.0, eps_k=1e-6, mu_k=0.5, tau_k=1e-6)
        tau = fraction * float(np.abs(w * x_ls).sum())
        start = spg_module._exact_point(sub, x_ls) if warm else None
        x, _, _, _, _, _ = spg_lasso(sub, tau, start)
        assert float(np.abs(w * x).sum()) <= tau * (1 + 1e-12)


class TestParetoNewton:
    def test_one_dim_two_steps(self):
        # phi(tau) = max(2 - tau, 0), slope -1: Newton from 0 lands on the
        # root tau = 1 in one step and certifies on re-evaluation.
        sub = one_dim_sub(b=2.0, sigma_k=1.0)
        cert, state, info = pareto_newton(sub, None, "certified")
        assert cert.criteria_met
        assert info["newton_steps"] <= 2
        assert state.tau == pytest.approx(1.0, abs=1e-12)
        np.testing.assert_allclose(cert.x_tilde, [1.0], atol=1e-12)
        assert cert.coupling_residual <= 1e-12
        assert cert.kkt_residual <= 1e-10
        assert cert.multiplier == pytest.approx(1.0, rel=1e-8)

    @pytest.mark.parametrize("seed", range(4))
    def test_phi_floor_bounds_the_curve(self, seed):
        # A loose solve's gap puts phi(tau) in [floor, ||r||], which is what
        # lets a bracket end rest on it; a tight solve gives phi(tau).
        sub = random_sub(20, 60, seed=seed)
        tau = 0.5 * float(np.abs(sub.w * np.linalg.lstsq(
            sub.v[:, None] * sub.instance.A, sub.b_w, rcond=None)[0]).sum())
        x, _, _, _, r, g = spg_lasso(sub, tau, None, tol=1e-2)
        phi = float(np.linalg.norm(r))
        floor = spg_module._phi_floor(sub, tau, x, g, 0.5 * phi * phi)
        _, _, _, conv, r_star, _ = spg_lasso(sub, tau, None, tol=1e-12)
        phi_star = float(np.linalg.norm(r_star))
        assert conv and floor < phi
        assert floor <= phi_star * (1 + 1e-9) and phi_star <= phi * (1 + 1e-12)

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

    def test_curve_monotone_and_bracketing(self, monkeypatch, desk_instance):
        # (tau, phi, slope) at tau = 0 and after every LASSO solve, read off
        # the exact (r, g) each solve returns.
        inst, _ = desk_instance
        sub = build_subproblem(inst, inst.least_norm, 0)
        g0 = -sub.rmatvec(sub.b_w)
        phi0 = float(np.linalg.norm(sub.b_w))
        hist = [(0.0, phi0, -float(np.abs(g0 / sub.w).max()) / phi0)]

        def lasso(sub, tau, *args, _orig=spg_module.spg_lasso, **kwargs):
            out = _orig(sub, tau, *args, **kwargs)
            phi = float(np.linalg.norm(out[4]))
            hist.append((tau, phi, -float(np.abs(out[5] / sub.w).max()) / phi))
            return out

        monkeypatch.setattr(spg_module, "spg_lasso", lasso)
        pareto_newton(sub, None, "certified")
        assert len(hist) > 1
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

    def test_face_answer_ends_lasso_at_once(self, monkeypatch, desk_instance):
        # The desk's first subproblem is answered on the face its LASSO
        # iterate settles on.  After that try spg_lasso spends no product
        # and no projection: the answer is the gate's certificate.
        events = []
        for name in ("matvec", "rmatvec"):
            def counted(self, z, _orig=getattr(SubproblemData, name), _name=name):
                events.append(_name)
                return _orig(self, z)
            monkeypatch.setattr(SubproblemData, name, counted)

        def projection(*args, _orig=spg_module.project_weighted_l1_ball):
            events.append("projection")
            return _orig(*args)

        def face_solve(*args, _orig=core_module.face_solve):
            cert = _orig(*args)
            events.append("answer" if cert is not None else "miss")
            return cert

        def lasso(*args, _orig=spg_module.spg_lasso, **kwargs):
            out = _orig(*args, **kwargs)
            events.append("exit")
            return out

        monkeypatch.setattr(spg_module, "project_weighted_l1_ball", projection)
        monkeypatch.setattr(core_module, "face_solve", face_solve)
        monkeypatch.setattr(spg_module, "spg_lasso", lasso)
        inst, _ = desk_instance
        sub = build_subproblem(inst, inst.least_norm, 0)
        _, _, info = pareto_newton(sub, None, "blackbox")
        assert info["face_accepted"] == 1 and info["iterations"] > 0
        assert events.count("answer") == 1
        assert events[events.index("answer") + 1:] == ["exit"]

    def test_sphere_projection_norm(self, desk_instance):
        inst, _ = desk_instance
        sub = build_subproblem(inst, inst.least_norm, 0)
        cert, _, _ = pareto_newton(sub, None, "certified")
        assert float(np.linalg.norm(cert.u_tilde)) \
            == pytest.approx(sub.sigma_bar, rel=1e-14)

    @pytest.mark.parametrize("mode", ["certified", "blackbox"])
    def test_newton_step_spends_no_product(self, monkeypatch, desk_instance, mode):
        # Outside the LASSO solves only the rmatvec of the point at tau = 0;
        # the certificates read the g each solve returns.  No face answer,
        # so the Newton steps build the certificate.
        monkeypatch.setattr(core_module, "face_solve", lambda *args: None)
        calls = []
        for name in ("matvec", "rmatvec"):
            def counted(self, z, _orig=getattr(SubproblemData, name), _name=name):
                calls.append(_name)
                return _orig(self, z)
            monkeypatch.setattr(SubproblemData, name, counted)
        inside = []         # products spent inside the LASSO solves
        certificates = []

        def lasso(*args, _orig=spg_module.spg_lasso, **kwargs):
            before = len(calls)
            out = _orig(*args, **kwargs)
            inside.extend(calls[before:])
            return out

        def certificate(*args, _orig=spg_module.sphere_certificate):
            certificates.append(1)
            return _orig(*args)

        monkeypatch.setattr(spg_module, "spg_lasso", lasso)
        monkeypatch.setattr(spg_module, "sphere_certificate", certificate)
        inst, _ = desk_instance
        sub = build_subproblem(inst, inst.least_norm, 0)
        _, _, info = pareto_newton(sub, None, mode)
        assert info["newton_steps"] > 0 and certificates
        assert calls.count("matvec") == inside.count("matvec")
        assert calls.count("rmatvec") - inside.count("rmatvec") == 1

    @pytest.mark.parametrize("mode", ["certified", "blackbox"])
    def test_start_points_are_exact(self, monkeypatch, desk_instance, mode):
        # Every (x, r, g) a solve is started from, over a cold and a warm
        # Newton search, holds the exact r = b_w - A_k x and g = -A_k^T r.
        starts = []

        def lasso(sub, tau, start=None, _orig=spg_module.spg_lasso, **kwargs):
            starts.append((sub, start))
            return _orig(sub, tau, start, **kwargs)

        monkeypatch.setattr(spg_module, "spg_lasso", lasso)
        inst, _ = desk_instance
        sub = build_subproblem(inst, inst.least_norm, 0)
        cert, state, _ = pareto_newton(sub, None, mode)
        pareto_newton(build_subproblem(inst, cert.x_next, 1), state, mode)
        assert starts and all(start is not None for _, start in starts)
        for sub, (x, r, g) in starts:
            np.testing.assert_array_equal(r, sub.b_w - sub.matvec(x))
            np.testing.assert_array_equal(g, -sub.rmatvec(r))

    @pytest.mark.parametrize("mode", ["certified", "blackbox"])
    def test_warm_search_starts_at_origin(self, monkeypatch, desk_instance,
                                          mode):
        # The warm state is read only by the face try at entry; when that
        # try fails, the Newton search starts from the point at tau = 0.
        inst, _ = desk_instance
        cert, state, _ = pareto_newton(
            build_subproblem(inst, inst.least_norm, 0), None, mode)
        assert state.x_lasso.any()
        monkeypatch.setattr(core_module, "face_solve", lambda *args: None)
        starts = []

        def lasso(sub, tau, start=None, _orig=spg_module.spg_lasso, **kwargs):
            starts.append(start)
            return _orig(sub, tau, start, **kwargs)

        monkeypatch.setattr(spg_module, "spg_lasso", lasso)
        sub = build_subproblem(inst, cert.x_next, 1)
        pareto_newton(sub, state, mode)
        x, r, g = starts[0]
        np.testing.assert_array_equal(x, 0.0)
        np.testing.assert_array_equal(r, sub.b_w)
        np.testing.assert_array_equal(g, -sub.rmatvec(sub.b_w))

    def test_blackbox_records_without_enforcing(self, monkeypatch):
        # a sloppy tolerance fails the certificate bounds; blackbox mode must
        # still return without escalating and record the honest residuals
        sub = random_sub(6, 14, seed=7)
        sub.eps_k = 1e-12
        monkeypatch.setattr(spg_module, "_LASSO_TOL", 1e-2)
        monkeypatch.setattr(spg_module, "_MAX_NEWTON", 6)
        cert, state, info = pareto_newton(sub, None, "blackbox")
        assert info["escalations"] == 0
        assert not cert.criteria_met

    def test_capped_lasso_solves_counted(self, monkeypatch):
        sub = random_sub(6, 14, seed=7)
        _, _, info = pareto_newton(sub, None, "blackbox")
        assert info["lasso_unconverged"] == 0
        monkeypatch.setattr(spg_module, "_MAX_SPG_PER_LASSO", 2)
        _, _, info = pareto_newton(sub, None, "blackbox")
        assert 0 < info["lasso_unconverged"] <= info["newton_steps"]
        inst = make_instance(6, 14, seed=7)
        res = run_dir(inst, DirConfig(engine="spg-blackbox", max_outer=1))
        assert res.history[0]["lasso_unconverged"] > 0

    @staticmethod
    def _record_tolerances(monkeypatch):
        """Record the tol of every spg_lasso call pareto_newton makes."""
        tols = []

        def lasso(*args, tol, _orig=spg_module.spg_lasso, **kwargs):
            tols.append(tol)
            return _orig(*args, tol=tol, **kwargs)

        monkeypatch.setattr(spg_module, "spg_lasso", lasso)
        return tols

    def test_certified_starts_at_blackbox_tolerance(self, monkeypatch,
                                                    desk_instance):
        # The desk subproblem certifies at the blackbox tolerance, so
        # certified mode never tightens it.
        tols = self._record_tolerances(monkeypatch)
        inst, _ = desk_instance
        sub = build_subproblem(inst, inst.least_norm, 0)
        cert, _, info = pareto_newton(sub, None, "certified")
        assert cert.criteria_met
        assert info["escalations"] == 0
        assert set(tols) == {spg_module._LASSO_TOL}

    def test_certified_reports_failure_when_exhausted(self, monkeypatch):
        tols = self._record_tolerances(monkeypatch)
        sub = random_sub(6, 14, seed=8)
        sub.eps_k = 1e-15    # unreachable
        cert, state, info = pareto_newton(sub, None, "certified")
        assert not cert.criteria_met
        assert info["escalations"] == spg_module._MAX_ESCALATIONS
        assert tols[0] == spg_module._LASSO_TOL
        assert tols[-1] <= 1e-13

    def test_certificate_belongs_to_final_point(self, monkeypatch):
        # With an unreachable eps_k, some Newton caps run out right after an
        # escalation's re-solve; the certificate must still be the final
        # point's.
        for seed in range(6, 12):
            for cap in range(1, 30):
                sub = random_sub(6, 14, seed=seed)
                sub.eps_k = 1e-15
                monkeypatch.setattr(spg_module, "_MAX_NEWTON", cap)
                cert, state, info = pareto_newton(sub, None, "certified")
                assert cert.x_tilde is state.x_lasso
                assert info["root_gap"] == cert.coupling_residual


def reference_root(sub, tol=1e-12):
    """Root of phi(tau) = sigma_bar by plain Newton steps on tight solves.

    phi is convex and decreasing, so Newton steps from tau = 0 approach the
    root from the left.
    """
    sigma_bar = sub.sigma_bar
    tau, point = 0.0, None
    r = sub.b_w
    g = -sub.rmatvec(r)
    for _ in range(60):
        phi = float(np.linalg.norm(r))
        if abs(phi - sigma_bar) <= 1e-12 * sigma_bar:
            break
        tau += (phi - sigma_bar) * phi / float(np.abs(g / sub.w).max())
        x, _, _, _, r, g = spg_lasso(sub, tau, point, tol=tol)
        point = (x, r, g)
    return tau


class TestInexactNewton:
    @staticmethod
    def _record_solves(monkeypatch):
        """Record (tau, target, x, r, ended on the target) of every solve."""
        solves = []

        def lasso(sub, tau, start=None, *, stats, _target=None,
                  _orig=spg_module.spg_lasso, **kwargs):
            before = stats["pareto_stops"]
            out = _orig(sub, tau, start, stats=stats, _target=_target, **kwargs)
            solves.append((tau, _target, out[0], out[4],
                           stats["pareto_stops"] > before))
            return out

        monkeypatch.setattr(spg_module, "spg_lasso", lasso)
        return solves

    @pytest.mark.parametrize("seed", range(4))
    def test_stop_settles_the_side_of_the_root(self, seed):
        # Solves on both sides of the root, each ended by the target; a
        # tight reference solve at the same tau confirms the side and the
        # gap interval [phi_lo, phi].
        sub = random_sub(12, 40, seed=seed)
        sigma_bar = sub.sigma_bar
        _, state, _ = pareto_newton(sub, None, "blackbox")
        sides = set()
        for fraction in (0.5, 0.8, 0.95, 0.99, 1.01, 1.05, 1.2, 2.0):
            tau = fraction * state.tau
            stats = {}
            target = (sigma_bar, 1e-6 * sigma_bar)
            x, _, _, conv, r, g = spg_lasso(sub, tau, None, stats=stats,
                                            _target=target)
            if not stats.get("pareto_stops"):
                continue
            assert conv
            phi = float(np.linalg.norm(r))
            gap = tau * float(np.abs(g / sub.w).max()) + float(x @ g)
            phi_lo = np.sqrt(max(phi * phi - 2.0 * gap, 0.0))
            _, _, _, conv_ref, r_ref, _ = spg_lasso(sub, tau, None, tol=1e-12)
            phi_ref = float(np.linalg.norm(r_ref))
            assert conv_ref
            assert np.sign(phi_ref - sigma_bar) == np.sign(phi - sigma_bar)
            rounding = 1e-9 * sigma_bar
            assert phi_lo - rounding <= phi_ref <= phi + rounding
            sides.add(phi > sigma_bar)
        assert sides == {True, False}

    @pytest.mark.parametrize("mode", ["certified", "blackbox"])
    def test_certificate_never_from_a_stopped_solve(self, monkeypatch,
                                                    desk_instance, mode):
        # No face answer, so the warm solve runs the Newton steps.
        monkeypatch.setattr(core_module, "face_solve", lambda *args: None)
        solves = self._record_solves(monkeypatch)
        inst, _ = desk_instance
        sub = build_subproblem(inst, inst.least_norm, 0)
        cert, state, info = pareto_newton(sub, None, mode)
        cert2, _, info2 = pareto_newton(build_subproblem(inst, cert.x_next, 1),
                                        state, mode)
        assert info["pareto_stops"] > 0 and info2["pareto_stops"] > 0
        assert sum(stopped for *_, stopped in solves) \
            == info["pareto_stops"] + info2["pareto_stops"]
        for c in (cert, cert2):
            source = [stopped for _, _, x, _, stopped in solves
                      if x is c.x_tilde]
            assert source == [False]

    @pytest.mark.parametrize("mode", ["certified", "blackbox"])
    def test_bracket_keeps_reference_root(self, monkeypatch, desk_instance,
                                          mode):
        # Every solve that lands outside root_tol moves one end of the
        # bracket [tau_lo, tau_hi]; the root of tight solves stays inside.
        solves = self._record_solves(monkeypatch)
        inst, _ = desk_instance
        subs = [build_subproblem(inst, inst.least_norm, 0),
                random_sub(12, 40, seed=1), random_sub(20, 60, seed=0)]
        for sub in subs:
            solves.clear()
            pareto_newton(sub, None, mode)
            tau_ref = reference_root(sub)
            tau_lo, tau_hi = 0.0, np.inf
            for tau, target, _, r, stopped in solves:
                sigma_bar, root_tol = target
                phi = float(np.linalg.norm(r))
                if phi > sigma_bar + root_tol:
                    tau_lo = max(tau_lo, tau)
                elif phi < sigma_bar - root_tol:
                    tau_hi = min(tau_hi, tau)
                else:
                    assert not stopped
                assert tau_lo < tau_ref < tau_hi
            assert any(stopped for *_, stopped in solves)

    def test_unreachable_target_is_the_plain_solve(self, desk_instance):
        inst, _ = desk_instance
        sub = build_subproblem(inst, inst.least_norm, 0)
        tau = 0.3 * sub.ref_objective
        plain = spg_lasso(sub, tau, None)
        stats = {}
        targeted = spg_lasso(sub, tau, None, stats=stats,
                             _target=(sub.sigma_bar, np.inf))
        assert "pareto_stops" not in stats
        for a, b in zip(plain, targeted):
            np.testing.assert_array_equal(a, b)

    def test_history_counts_stops_and_face_rejections(self, desk_instance):
        # The desk's first subproblem is answered on the face its LASSO
        # iterate settles on, after Newton steps that ended on the target;
        # every later one on the previous answer's face, with no Newton
        # step.  Faces are tried only through the gate, so no face-step key
        # is left.
        inst, _ = desk_instance
        res = run_dir(inst, DirConfig(engine="spg-blackbox"))
        first, *rest = res.history
        assert first["face_accepted"] == 1
        assert 0 < first["pareto_stops"] < first["newton_steps"]
        assert rest and all(rec["face_accepted"] == 1 for rec in rest)
        assert all(rec["newton_steps"] == rec["inner_iterations"] == 0
                   for rec in rest)
        for rec in res.history:
            assert rec["lasso_unconverged"] == 0
            assert not {"face_steps", "face_truncations",
                        "face_rejections"} & set(rec)


class TestCertificate:
    def test_spends_no_product(self, monkeypatch):
        sub = random_sub(6, 14, seed=9)
        x, lam, _, _, r, g = spg_lasso(sub, 0.01 * sub.ref_objective, None)
        assert np.linalg.norm(sub.matvec(x) - sub.b_w) > sub.sigma_bar  # retract blends
        want_descent = bool(np.abs(sub.w * retract(sub, x)).sum()
                            <= sub.ref_objective + sub.mu_k)
        calls = []
        for name in ("matvec", "rmatvec"):
            def counted(self, z, _orig=getattr(SubproblemData, name), _name=name):
                calls.append(_name)
                return _orig(self, z)
            monkeypatch.setattr(SubproblemData, name, counted)
        cert = spg_module.sphere_certificate(sub, x, -r, g, lam)
        assert calls == []
        assert cert.descent_ok == want_descent
        np.testing.assert_array_equal(cert.x_next, retract(sub, x))

    def test_face_answer_agrees_with_its_lasso_view(self, desk_instance):
        # The desk's second subproblem is answered on the warm answer's
        # face, certified with lam = t.  The LASSO view of that answer z,
        # its exact point and the unit-step projection multiplier at
        # tau = ||w o z||_1, must give the same certificate.  Both KKT
        # residuals sit at rounding level (about 5e-13), below pytest's
        # default absolute floor of 1e-12.
        inst, _ = desk_instance
        cert, state, _ = pareto_newton(
            build_subproblem(inst, inst.least_norm, 0), None, "certified")
        sub = build_subproblem(inst, cert.x_next, 1)
        face = core_module.face_solve(sub, state.x_lasso)
        assert face is not None
        z, r, g = spg_module._exact_point(sub, face.x_tilde)
        y = z - g
        tau = float(np.abs(sub.w * z).sum())
        lam = spg_module._projection_multiplier(
            y, project_weighted_l1_ball(y, sub.w, tau), sub.w)
        view = core_module.sphere_certificate(sub, z, -r, g, lam)
        assert view.multiplier == pytest.approx(face.multiplier, rel=1e-9)
        assert view.kkt_residual == pytest.approx(face.kkt_residual,
                                                  rel=1e-9, abs=1e-12)
        assert view.coupling_residual == face.coupling_residual
        np.testing.assert_array_equal(view.u_tilde, face.u_tilde)


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

    def test_seed3_tukey_escalations(self):
        # Certified SPG escalated 39 times on this run when it answered only
        # on the warm answer's face; answers on the face its LASSO iterate
        # settles on leave at most a handful.  They cost passes here,
        # though: 30,069 against 24,089 with the LASSO face steps they
        # replaced, and the budget holds that loss from growing.
        res = run_dir(make_instance(54, 256, 3, LossKind.TUKEY_BIWEIGHT),
                      DirConfig(engine="spg"))
        assert res.status is RunStatus.CONVERGED
        assert sum(rec["escalations"] for rec in res.history) <= 5
        assert sum(rec["matvec_calls"] + rec["rmatvec_calls"]
                   for rec in res.history) <= 31_000

    @pytest.mark.parametrize("kind, budget", [
        (LossKind.CAUCHY, 7283), (LossKind.GEMAN_MCCLURE, 4658),
        (LossKind.WELSH, 4667), (LossKind.PSEUDO_HUBER, 4612),
        (LossKind.HUBER, 5917)])
    def test_seed3_pass_budget(self, kind, budget):
        # The measured 6936, 4436, 4444, 4392 and 5635 passes plus 5%.  No
        # benchmark workload runs certified SPG on these instances, so a
        # rise of the face-step loss on them shows only here.
        res = run_dir(make_instance(54, 256, 3, kind), DirConfig(engine="spg"))
        assert res.status is RunStatus.CONVERGED
        assert sum(rec["matvec_calls"] + rec["rmatvec_calls"]
                   for rec in res.history) <= budget
