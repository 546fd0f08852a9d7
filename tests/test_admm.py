import math

import numpy as np
import pytest

from dir_sparse import (AdmmState, LossKind, LossSpec, PenaltySpec, admm_solve,
                        admm_step, build_subproblem, retract)
from dir_sparse import admm as admm_module
from dir_sparse.admm import _ball_multiplier
from dir_sparse.core import ProblemInstance, SubproblemData

from conftest import make_instance


def fabricate_sub(A, b, w, v, sigma_k, eps_k=0.5, mu_k=0.5, tau_k=0.5,
                  x_k=None, gram=None):
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    inst = ProblemInstance(
        A=A, b=b, sigma=sigma_k, loss=LossSpec(LossKind.CAUCHY, 1.0),
        penalty=PenaltySpec(0.1),
        least_norm=np.linalg.lstsq(A, b, rcond=None)[0],
        gram_lmax=gram if gram is not None
        else float(np.linalg.eigvalsh(A @ A.T).max()))
    x_k = np.zeros(A.shape[1]) if x_k is None else np.asarray(x_k, float)
    return SubproblemData(instance=inst, k=0, x_k=x_k, w=np.asarray(w, float),
                          v=np.asarray(v, float), b_w=np.asarray(v, float) * b,
                          sigma_k=sigma_k, eps_k=eps_k, mu_k=mu_k, tau_k=tau_k)


def build_random_sub(m, n, seed, eps_k=None):
    inst = make_instance(m, n, seed=seed)
    sub = build_subproblem(inst, inst.least_norm, 0)
    if eps_k is not None:
        sub.eps_k = eps_k
    return sub


class TestStep:
    def test_zero_fixed_point(self):
        sub = fabricate_sub(A=[[1.0]], b=[0.0], w=[1.0], v=[1.0], sigma_k=1.0)
        state = AdmmState(x=np.zeros(1), u=np.zeros(1), lam=np.zeros(1))
        out = admm_step(state, sub)
        np.testing.assert_array_equal(out.x, 0.0)
        np.testing.assert_array_equal(out.u, 0.0)
        np.testing.assert_array_equal(out.lam, 0.0)
        assert out.iteration == 1

    def test_multiplier_frozen_when_coupling_zero(self):
        # any state whose post-update residual vanishes leaves lam unchanged
        sub = fabricate_sub(A=[[1.0]], b=[0.0], w=[1.0], v=[1.0], sigma_k=1.0)
        state = AdmmState(x=np.zeros(1), u=np.zeros(1), lam=np.array([0.3]))
        out = admm_step(state, sub)
        # u-update absorbs A x - b_w - lam/beta exactly when inside the ball
        resid = sub.matvec(out.x) - sub.b_w - out.u
        np.testing.assert_allclose(out.lam, state.lam
                                   - admm_module._GAMMA * resid / math.sqrt(
                                       sub.gram_bound()), rtol=1e-12)

    def test_u_stays_in_ball(self):
        sub = build_random_sub(4, 10, seed=0)
        state = AdmmState(x=np.zeros(10), u=np.zeros(4), lam=np.zeros(4))
        for _ in range(50):
            state = admm_step(state, sub)
            assert np.linalg.norm(state.u) <= sub.sigma_bar + 1e-12

    @pytest.mark.parametrize("n", [1, 2])
    def test_x_update_matches_grid_oracle(self, n):
        # minimize ||w o x||_1 - lam.(A_k x - b_w - u) + (beta/2)||A_k x - b_w - u||^2
        #          + 0.5 (x - x_prev)'(prox I - beta A_k'A_k)(x - x_prev)
        rng = np.random.default_rng(40 + n)
        A = rng.standard_normal((n, n))
        v = rng.uniform(0.5, 1.5, n)
        w = rng.uniform(0.5, 2.0, n)
        b = rng.standard_normal(n)
        sub = fabricate_sub(A=A, b=b, w=w, v=v, sigma_k=1.0)
        state = AdmmState(x=rng.standard_normal(n), u=0.1 * rng.standard_normal(n),
                          lam=0.1 * rng.standard_normal(n))
        out = admm_step(state, sub)

        L_bar = sub.gram_bound()
        beta = L_bar ** -0.5
        prox = L_bar * beta
        Ak = v[:, None] * A

        def objective(x):
            resid = Ak @ x - sub.b_w - state.u
            dx = x - state.x
            quad = prox * (dx @ dx) - beta * float((Ak @ dx) @ (Ak @ dx))
            return (float(np.abs(w * x).sum()) - float(state.lam @ resid)
                    + 0.5 * beta * float(resid @ resid) + 0.5 * quad)

        # shrinking-grid search around the reported minimizer's scale
        center = np.zeros(n)
        half = 4.0 + float(np.abs(out.x).max())
        best = center.copy()
        best_val = objective(best)
        for _ in range(80):
            axes = [np.linspace(c - half, c + half, 17) for c in center]
            grids = np.meshgrid(*axes, indexing="ij")
            pts = np.stack([g.ravel() for g in grids], axis=1)
            vals = np.array([objective(p) for p in pts])
            j = int(np.argmin(vals))
            if vals[j] < best_val:
                best_val = vals[j]
                best = pts[j]
            center = best
            half *= 0.7
        np.testing.assert_allclose(out.x, best, atol=1e-8)


class TestSolve:
    def test_trajectory_matches_repeated_steps(self, monkeypatch):
        sub = build_random_sub(4, 10, seed=1, eps_k=-1.0)  # never accept
        monkeypatch.setattr(admm_module, "_MAX_INNER", 40)
        cert, state, info = admm_solve(sub, None)
        assert info["iterations"] == 40 and not info["ok"]

        ref = AdmmState(x=np.zeros(10), u=np.zeros(4), lam=np.zeros(4))
        for _ in range(40):
            ref = admm_step(ref, sub)
        np.testing.assert_array_equal(state.x, ref.x)
        np.testing.assert_array_equal(state.u, ref.u)
        np.testing.assert_array_equal(state.lam, ref.lam)

    def test_certificate_thresholds_enforced(self):
        sub = build_random_sub(5, 12, seed=2)
        cert, state, info = admm_solve(sub, None)
        assert info["ok"]
        assert cert.kkt_residual <= sub.eps_k
        assert cert.coupling_residual <= sub.eps_k
        assert cert.descent_ok
        assert np.linalg.norm(cert.u_tilde) <= sub.sigma_bar + 1e-12
        assert cert.multiplier >= 0.0

    def test_anchor_optimal_still_terminates_with_descent(self):
        # descent holds at the optimum because the anchor is feasible
        sub = build_random_sub(5, 12, seed=3)
        cert, _, info = admm_solve(sub, None)
        assert info["ok"]
        pulled = retract(sub, cert.x_tilde)
        assert np.abs(sub.w * pulled).sum() \
            <= np.abs(sub.w * sub.x_k).sum() + sub.mu_k

    def test_two_products_per_sweep(self, monkeypatch):
        # One matvec and one rmatvec per sweep.  The constant is the first
        # product and gradient, the exact check of the last sweep, and on a
        # warm start with a nonzero multiplier the seed of A_k^T lam / beta.
        calls = []
        for name in ("matvec", "rmatvec"):
            def counted(self, z, _orig=getattr(SubproblemData, name), _name=name):
                calls.append(_name)
                return _orig(self, z)
            monkeypatch.setattr(SubproblemData, name, counted)
        sub = build_random_sub(5, 12, seed=4, eps_k=-1.0)
        monkeypatch.setattr(admm_module, "_MAX_INNER", 5)
        _, warm, _ = admm_solve(sub, None)
        assert warm.lam.any()
        for N in (20, 40):
            monkeypatch.setattr(admm_module, "_MAX_INNER", N)
            calls.clear()
            admm_solve(sub, None)
            assert calls.count("matvec") == N + 1
            assert calls.count("rmatvec") == N + 2
            calls.clear()
            admm_solve(sub, warm)
            assert calls.count("matvec") == N + 1
            assert calls.count("rmatvec") == N + 3

    @staticmethod
    def _exact_surrogate(sub, prev, cur):
        """||beta A_k^T (A_k dx - du) - prox dx|| between two states."""
        L_bar = sub.gram_bound()
        beta = L_bar ** -0.5
        dAkx = sub.matvec(cur.x) - sub.matvec(prev.x)
        s = (beta * sub.rmatvec(dAkx - (cur.u - prev.u))
             - L_bar * beta * (cur.x - prev.x))
        return float(np.linalg.norm(s))

    @staticmethod
    def _second_subproblem(desk_instance):
        """The desk run's second subproblem and its warm start.

        The warm multiplier is nonzero, so the carried A_k^T lam / beta starts
        nonzero, and on 8 sweeps of this solve the coupling residual passes
        eps_k while the exact surrogate does not.
        """
        inst, _ = desk_instance
        sub0 = build_subproblem(inst, inst.least_norm, 0)
        cert0, warm, _ = admm_solve(sub0, None)
        return build_subproblem(inst, retract(sub0, cert0.x_tilde), 1), warm

    def test_certificate_kkt_recomputed_exactly(self, desk_instance):
        sub, warm = self._second_subproblem(desk_instance)
        cert, state, info = admm_solve(sub, warm)
        assert info["ok"] and warm.lam.any()

        prev = ref = warm
        for _ in range(info["iterations"]):
            prev, ref = ref, admm_step(ref, sub)
        np.testing.assert_array_equal(ref.x, state.x)
        want = self._exact_surrogate(sub, prev, ref)
        assert cert.kkt_residual == pytest.approx(want, rel=1e-12, abs=0.0)
        assert cert.kkt_residual <= sub.eps_k

    def test_lying_surrogate_does_not_certify(self, monkeypatch, desk_instance):
        # The carried surrogate claims 0 on every sweep, so every sweep whose
        # coupling passes becomes a candidate; only the exact check may accept.
        sub, warm = self._second_subproblem(desk_instance)
        monkeypatch.setattr(admm_module, "_carried_kkt", lambda *args: 0.0)
        cert, state, info = admm_solve(sub, warm)

        # Replay: the first sweep that passes the exact tests is the answer.
        eps_k = sub.eps_k
        ref = warm
        rejected = []
        accepted_at = None
        for it in range(1, info["iterations"] + 1):
            prev, ref = ref, admm_step(ref, sub)
            coupling = float(np.linalg.norm(sub.matvec(ref.x) - sub.b_w - ref.u))
            if coupling > eps_k:
                continue
            kkt = self._exact_surrogate(sub, prev, ref)
            descent = (np.abs(sub.w * retract(sub, ref.x)).sum()
                       <= sub.ref_objective + sub.mu_k)
            if kkt <= eps_k and descent:
                accepted_at = it
                break
            rejected.append(it)
        assert info["ok"] and accepted_at == info["iterations"]
        assert rejected, "no sweep on which the lie could have certified"
        assert info["exact_checks"] == len(rejected) + 1
        assert cert.kkt_residual <= eps_k

    def test_iteration_cap_reports_failure(self, monkeypatch):
        sub = build_random_sub(5, 12, seed=4, eps_k=-1.0)
        monkeypatch.setattr(admm_module, "_MAX_INNER", 10)
        cert, state, info = admm_solve(sub, None)
        assert not info["ok"]
        assert info["iterations"] == 10
        assert math.isfinite(cert.kkt_residual)

    def test_objective_matches_cvxpy_reference(self, monkeypatch):
        cvxpy = pytest.importorskip("cvxpy")
        sub = build_random_sub(4, 10, seed=0, eps_k=-1.0)
        monkeypatch.setattr(admm_module, "_MAX_INNER", 5000)
        cert, state, info = admm_solve(sub, None)
        got = float(np.abs(sub.w * state.x).sum())

        x = cvxpy.Variable(10)
        Ak = sub.v[:, None] * sub.instance.A
        prob = cvxpy.Problem(
            cvxpy.Minimize(cvxpy.norm1(cvxpy.multiply(sub.w, x))),
            [cvxpy.norm2(Ak @ x - sub.b_w) <= sub.sigma_bar])
        prob.solve(solver="CLARABEL")
        want = float(prob.value)
        assert got == pytest.approx(want, rel=1e-6)

    def test_warm_start_saves_iterations(self, desk_instance):
        inst, _ = desk_instance
        sub0 = build_subproblem(inst, inst.least_norm, 0)
        cert0, state0, info0 = admm_solve(sub0, None)
        x1 = retract(sub0, cert0.x_tilde)
        sub1 = build_subproblem(inst, x1, 1)
        _, _, info_warm = admm_solve(sub1, state0)
        _, _, info_cold = admm_solve(sub1, None)
        assert info_warm["ok"] and info_cold["ok"]
        assert info_warm["iterations"] < info_cold["iterations"]

    def test_kkt_surrogate_minimum_near_termination(self, desk_instance):
        # Convergent-trend sanity: the optimality surrogate at acceptance
        # matches the trajectory minimum up to a small plateau wobble (the
        # solver may idle at the floor while coupling/descent catch up), or
        # the literal minimum falls in the last few iterations.
        inst, _ = desk_instance
        x = inst.least_norm
        warm = None
        for k in range(5):
            sub = build_subproblem(inst, x, k)
            cert, warm, info = admm_solve(sub, warm)
            assert info["ok"]
            near_end = info["best_kkt_iter"] >= info["iterations"] - 10
            tied = cert.kkt_residual <= 5.0 * info["best_kkt"]
            assert near_end or tied
            x = retract(sub, cert.x_tilde)


class TestBallMultiplier:
    def test_interior_zero(self):
        assert _ball_multiplier(np.array([0.1, 0.1]), 1.0, 2.0) == 0.0

    def test_exterior_kkt_identity(self):
        # beta (z - proj(z)) must equal multiplier * proj(z)
        rng = np.random.default_rng(5)
        for _ in range(20):
            z = rng.standard_normal(4) * rng.uniform(1, 10)
            sigma_bar = float(rng.uniform(0.1, 2.0))
            beta = float(rng.uniform(0.1, 5.0))
            if np.linalg.norm(z) <= sigma_bar:
                continue
            u = sigma_bar * z / np.linalg.norm(z)
            mult = _ball_multiplier(z, sigma_bar, beta)
            np.testing.assert_allclose(beta * (z - u), mult * u, rtol=1e-12)
