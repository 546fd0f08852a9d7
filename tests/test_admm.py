import math

import numpy as np
import pytest

from dir_sparse import (AdmmState, DirConfig, LossKind, LossSpec, PenaltySpec,
                        RunStatus, admm_solve, admm_step, build_subproblem,
                        retract, run_dir)
from dir_sparse import admm as admm_module, core as core_module, \
    spg as spg_module
from dir_sparse.admm import _ball_multiplier
from dir_sparse.core import (_FACE_EVERY, _FACE_GAP, ProblemInstance,
                             SubproblemData, get_engine)

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
    return SubproblemData(instance=inst, x_k=x_k, w=np.asarray(w, float),
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
    @staticmethod
    def _record_penalties(monkeypatch):
        """List that receives the penalty beta of every sweep ADMM takes.

        ``admm_step`` sweeps append to it too, so copy it before a replay.
        """
        betas = []
        advance = admm_module._advance

        def spy(sub, x, g, lam, L_bar, beta, gamma):
            betas.append(beta)
            return advance(sub, x, g, lam, L_bar, beta, gamma)
        monkeypatch.setattr(admm_module, "_advance", spy)
        return betas

    @staticmethod
    def _replay(sub, warm, betas):
        """States after each of the sweeps ``admm_step`` takes at ``betas``."""
        states = [warm]
        for beta in betas:
            states.append(admm_step(states[-1], sub, beta))
        return states

    def test_trajectory_matches_repeated_steps(self, monkeypatch):
        sub = build_random_sub(4, 10, seed=1, eps_k=-1.0)  # never accept
        monkeypatch.setattr(admm_module, "_MAX_INNER", 40)
        cert, state, info = admm_solve(sub, None)
        assert info["iterations"] == 40 and not cert.criteria_met
        assert info["penalty_changes"] == 0

        ref = AdmmState(x=np.zeros(10), u=np.zeros(4), lam=np.zeros(4))
        for _ in range(40):
            ref = admm_step(ref, sub)
        np.testing.assert_array_equal(state.x, ref.x)
        np.testing.assert_array_equal(state.u, ref.u)
        np.testing.assert_array_equal(state.lam, ref.lam)

    def test_trajectory_with_penalty_changes_matches_steps(self, monkeypatch):
        # After a change the solve keeps the gradient q - p it rescaled,
        # which equals the one admm_step recomputes only up to rounding.
        sub = build_random_sub(4, 10, seed=4, eps_k=-1.0)
        monkeypatch.setattr(admm_module, "_MAX_INNER", 200)
        betas = self._record_penalties(monkeypatch)
        cert, state, info = admm_solve(sub, None)
        betas = betas[:]
        assert info["penalty_changes"] == len(set(betas)) - 1 == 2
        assert info["beta_scale"] == betas[-1] / betas[0] == 4.0

        zero = AdmmState(x=np.zeros(10), u=np.zeros(4), lam=np.zeros(4))
        ref = self._replay(sub, zero, betas)[-1]
        for got, want in ((state.x, ref.x), (state.u, ref.u),
                          (state.lam, ref.lam)):
            np.testing.assert_allclose(got, want, rtol=0.0,
                                       atol=1e-12 * np.abs(want).max())

    def test_certificate_thresholds_enforced(self):
        sub = build_random_sub(5, 12, seed=2)
        cert, state, info = admm_solve(sub, None)
        assert cert.criteria_met
        assert cert.kkt_residual <= sub.eps_k
        assert cert.coupling_residual <= sub.eps_k
        assert cert.descent_ok
        assert np.linalg.norm(cert.u_tilde) <= sub.sigma_bar + 1e-12
        assert cert.multiplier >= 0.0

    def test_anchor_optimal_still_terminates_with_descent(self):
        # descent holds at the optimum because the anchor is feasible
        sub = build_random_sub(5, 12, seed=3)
        cert, _, info = admm_solve(sub, None)
        assert cert.criteria_met
        pulled = retract(sub, cert.x_tilde)
        assert np.abs(sub.w * pulled).sum() \
            <= np.abs(sub.w * sub.x_k).sum() + sub.mu_k

    def test_two_products_per_sweep(self, monkeypatch):
        # One matvec and one rmatvec per sweep.  The constant is the first
        # product and gradient, the exact check of the last sweep, and on a
        # warm start with a nonzero multiplier the seed of A_k^T lam / beta.
        # No face answer, so the warm solve iterates.
        monkeypatch.setattr(core_module, "face_solve", lambda *args: None)
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
    def _exact_surrogate(sub, prev, cur, beta):
        """||beta A_k^T (A_k dx - du) - prox dx|| between two states."""
        L_bar = sub.gram_bound()
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

    def test_certificate_kkt_recomputed_exactly(self, monkeypatch,
                                                desk_instance):
        sub, warm = self._second_subproblem(desk_instance)
        monkeypatch.setattr(core_module, "face_solve", lambda *args: None)
        betas = self._record_penalties(monkeypatch)
        cert, state, info = admm_solve(sub, warm)
        betas = betas[:]
        assert cert.criteria_met and warm.lam.any()
        assert len(betas) == info["iterations"]

        *_, prev, ref = self._replay(sub, warm, betas)
        np.testing.assert_array_equal(ref.x, state.x)
        want = self._exact_surrogate(sub, prev, ref, betas[-1])
        assert cert.kkt_residual == pytest.approx(want, rel=1e-12, abs=0.0)
        assert cert.kkt_residual <= sub.eps_k

    def test_lying_surrogate_does_not_certify(self, monkeypatch, desk_instance):
        # The carried surrogate claims 0 on every sweep, so every sweep whose
        # coupling passes becomes a candidate; only the exact check may accept.
        # The lie also feeds the residual balancing, which doubles beta at the
        # end of each window, so the replay follows the solve's penalties.
        sub, warm = self._second_subproblem(desk_instance)
        monkeypatch.setattr(core_module, "face_solve", lambda *args: None)
        monkeypatch.setattr(admm_module, "_carried_kkt", lambda *args: 0.0)
        betas = self._record_penalties(monkeypatch)
        cert, state, info = admm_solve(sub, warm)
        betas = betas[:]
        assert info["penalty_changes"] >= 1
        assert betas[-1] == 2.0 ** info["penalty_changes"] * betas[0]

        # Replay: the first sweep that passes the exact tests is the answer.
        eps_k = sub.eps_k
        states = self._replay(sub, warm, betas)
        rejected = []
        accepted_at = None
        for it in range(1, info["iterations"] + 1):
            prev, ref = states[it - 1], states[it]
            coupling = float(np.linalg.norm(sub.matvec(ref.x) - sub.b_w - ref.u))
            if coupling > eps_k:
                continue
            kkt = self._exact_surrogate(sub, prev, ref, betas[it - 1])
            descent = (np.abs(sub.w * retract(sub, ref.x)).sum()
                       <= sub.ref_objective + sub.mu_k)
            if kkt <= eps_k and descent:
                accepted_at = it
                break
            rejected.append(it)
        assert cert.criteria_met and accepted_at == info["iterations"]
        assert rejected, "no sweep on which the lie could have certified"
        assert info["exact_checks"] == len(rejected) + 1
        assert cert.kkt_residual <= eps_k

    def test_iteration_cap_reports_failure(self, monkeypatch):
        sub = build_random_sub(5, 12, seed=4, eps_k=-1.0)
        monkeypatch.setattr(admm_module, "_MAX_INNER", 10)
        cert, state, info = admm_solve(sub, None)
        assert not cert.criteria_met
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
        cert_warm, _, info_warm = admm_solve(sub1, state0)
        cert_cold, _, info_cold = admm_solve(sub1, None)
        assert cert_warm.criteria_met and cert_cold.criteria_met
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
            assert cert.criteria_met
            near_end = info["best_kkt_iter"] >= info["iterations"] - 10
            tied = cert.kkt_residual <= 5.0 * info["best_kkt"]
            assert near_end or tied
            x = retract(sub, cert.x_tilde)


class TestPenalty:
    """Residual balancing of the penalty beta inside one solve."""

    @staticmethod
    def _force_doubling(monkeypatch, every=None):
        # A carried surrogate of 0 makes every window's coupling residual the
        # larger by far, so each check doubles beta until the cap.
        monkeypatch.setattr(admm_module, "_carried_kkt", lambda *args: 0.0)
        if every is not None:
            monkeypatch.setattr(admm_module, "_ADAPT_EVERY", every)

    def test_changes_spend_no_product(self, monkeypatch):
        # Only the sweeps' products are counted, so no face is tried.
        monkeypatch.setattr(core_module, "face_solve", lambda *args: None)
        calls = []
        for name in ("matvec", "rmatvec"):
            def counted(self, z, _orig=getattr(SubproblemData, name), _name=name):
                calls.append(_name)
                return _orig(self, z)
            monkeypatch.setattr(SubproblemData, name, counted)
        sub = build_random_sub(4, 10, seed=4, eps_k=-1.0)
        N = 200
        monkeypatch.setattr(admm_module, "_MAX_INNER", N)
        _, _, info = admm_solve(sub, None)
        assert info["penalty_changes"] >= 1
        assert calls.count("matvec") == N + 1
        assert calls.count("rmatvec") == N + 2

    def test_rescaled_gradient_is_exact(self, monkeypatch):
        # Record what each sweep starts from: (x, carried g, lam, beta), and
        # the u the previous sweep produced.
        sub = build_random_sub(5, 12, seed=4, eps_k=-1.0)
        self._force_doubling(monkeypatch, every=5)
        monkeypatch.setattr(admm_module, "_MAX_INNER", 30)
        sweeps = []
        advance = admm_module._advance

        def spy(sub, x, g, lam, L_bar, beta, gamma):
            out = advance(sub, x, g, lam, L_bar, beta, gamma)
            sweeps.append((x.copy(), g.copy(), lam.copy(), beta, out[3].copy()))
            return out
        monkeypatch.setattr(admm_module, "_advance", spy)
        _, _, info = admm_solve(sub, None)
        assert info["penalty_changes"] == 5

        checked = 0
        for (_, _, _, beta_old, u), (x, g, lam, beta, _) in zip(sweeps, sweeps[1:]):
            if beta == beta_old:
                continue
            assert beta == 2.0 * beta_old
            want = admm_module._gradient(sub, sub.matvec(x), u, lam, beta)
            np.testing.assert_allclose(g, want, rtol=0.0,
                                       atol=1e-12 * np.abs(want).max())
            checked += 1
        assert checked == 5

    def test_changes_capped_per_solve(self, monkeypatch):
        sub = build_random_sub(5, 12, seed=4, eps_k=-1.0)
        self._force_doubling(monkeypatch)
        cap = admm_module._ADAPT_MAX
        monkeypatch.setattr(admm_module, "_MAX_INNER",
                            (cap + 5) * admm_module._ADAPT_EVERY)
        _, _, info = admm_solve(sub, None)
        assert info["penalty_changes"] == cap
        assert info["beta_scale"] == 2.0 ** cap

    def test_each_solve_starts_at_default_penalty(self, monkeypatch):
        # A warm start carries x, u and lam, never the adapted beta.
        sub = build_random_sub(5, 12, seed=4, eps_k=-1.0)
        self._force_doubling(monkeypatch)
        monkeypatch.setattr(admm_module, "_MAX_INNER", 120)
        betas = TestSolve._record_penalties(monkeypatch)
        _, warm, info = admm_solve(sub, None)
        first = betas[:]
        assert info["penalty_changes"] == 2 and first[-1] == 4.0 * first[0]
        betas.clear()
        admm_solve(sub, warm)
        assert betas[0] == first[0] == sub.gram_bound() ** -0.5

    def test_desk_tukey_solve_within_budget(self):
        # robust-cli's instance 4: the (54, 256, 8) harness draw at seed 4
        # (matrix, support, values, Cauchy noise uniforms, in that order)
        # under the Tukey biweight loss.  At a fixed beta it took 85,759
        # sweeps; the coupling residual held it open.
        rng = np.random.default_rng(4)
        A = rng.standard_normal((54, 256))
        support = rng.choice(256, size=8, replace=False)
        values = rng.standard_normal(8)
        noise = 0.01 * np.tan(np.pi * (rng.random(54) - 0.5))
        x_true = np.zeros(256)
        x_true[support] = values
        loss = LossSpec(LossKind.TUKEY_BIWEIGHT, 0.05)
        sigma = 1.2 * float(np.sum(loss.value(noise * noise)))
        inst = ProblemInstance.build(A, A @ x_true + noise, sigma, loss,
                                     PenaltySpec(0.1))
        res = run_dir(inst, DirConfig(engine="admm"))
        assert res.status is RunStatus.CONVERGED
        assert sum(rec["inner_iterations"] for rec in res.history) <= 30_000


ENGINES = ["admm", "spg"]


class TestMidSolveFace:
    """Face tries on the sign pattern an engine's iterate settles on.

    Both engines try faces through the one core.FaceGate, so patching
    core.face_solve reaches every try.
    """

    @pytest.mark.parametrize("engine", ENGINES)
    def test_cold_solve_answered_mid_solve(self, desk_instance, engine):
        # The desk's first subproblem has no face to try at entry; the
        # engine's iterate settles on the answer's face and it is answered
        # there.
        solve, _ = get_engine(engine)
        inst, _ = desk_instance
        sub0 = build_subproblem(inst, inst.least_norm, 0)
        cert0, state0, info0 = solve(sub0, None)
        assert info0["iterations"] > 0 and info0["face_accepted"] == 1
        assert cert0.criteria_met
        if engine == "admm":
            assert info0["iterations"] % _FACE_EVERY == 0
            np.testing.assert_array_equal(state0.x, cert0.x_tilde)
            np.testing.assert_array_equal(state0.u, cert0.u_tilde)
            np.testing.assert_array_equal(state0.lam,
                                          -cert0.multiplier * cert0.u_tilde)
        else:
            assert state0.x_lasso is cert0.x_tilde
            assert state0.tau == float(np.abs(sub0.w * cert0.x_tilde).sum())
            assert info0["root_gap"] == cert0.coupling_residual
        sub1 = build_subproblem(inst, cert0.x_next, 1)
        cert1, _, info1 = solve(sub1, state0)
        assert cert1.criteria_met
        assert info1["iterations"] == 0 and info1["face_accepted"] == 1

    @pytest.mark.parametrize("kind", [LossKind.CAUCHY, LossKind.HUBER])
    @pytest.mark.parametrize("engine", ENGINES)
    def test_try_only_on_a_held_pattern_once(self, monkeypatch, desk_instance,
                                             engine, kind):
        # With eps_k = -1 every try fails, so ADMM sweeps to the cap and SPG
        # escalates to its last tolerance, and every look is made that the
        # engine makes.  On the desk instance a pattern often holds only for
        # one look; on the seed-3 Huber instance most held patterns come
        # while ||A_k x - b_w|| is far from sigma_bar.
        solve, _ = get_engine(engine)
        inst = desk_instance[0] if kind is LossKind.CAUCHY \
            else make_instance(54, 256, 3, kind)
        sub = build_subproblem(inst, inst.least_norm, 0)
        sub.eps_k = -1.0
        every, N = _FACE_EVERY, 400
        monkeypatch.setattr(admm_module, "_MAX_INNER", N)
        # The sign pattern after each ADMM sweep; each look as (sweeps
        # taken so far, sign pattern of its x, ||A_k x - b_w|| it was
        # given); each try as (index of its look, sign pattern of its x);
        # each LASSO solve as (looks it made, its iterations).
        sweeps, looks, tries, solves = [], [], [], []
        advance = admm_module._advance
        lasso = spg_module.spg_lasso
        look = core_module.FaceGate.look
        face_solve = core_module.face_solve

        def spy_advance(*args):
            out = advance(*args)
            sweeps.append(np.sign(out[0]))
            return out

        def spy_look(gate, x, rho):
            residual = sub.v * (sub.instance.A @ x) - sub.b_w
            assert rho == pytest.approx(np.linalg.norm(residual), rel=1e-9)
            looks.append((len(sweeps), np.sign(x), rho))
            return look(gate, x, rho)

        def spy_face(sub, x, stats=None):
            tries.append((len(looks) - 1, np.sign(x)))
            return face_solve(sub, x, stats)

        def spy_lasso(*args, **kwargs):
            before = len(looks)
            out = lasso(*args, **kwargs)
            solves.append((len(looks) - before, out[2]))
            return out
        monkeypatch.setattr(admm_module, "_advance", spy_advance)
        monkeypatch.setattr(spg_module, "spg_lasso", spy_lasso)
        monkeypatch.setattr(core_module.FaceGate, "look", spy_look)
        monkeypatch.setattr(core_module, "face_solve", spy_face)
        _, state, info = solve(sub, None)
        if engine == "admm":
            # A look after every _FACE_EVERY-th sweep, at that sweep's own
            # iterate, and none skipped.
            assert info["iterations"] == N
            assert [it for it, _, _ in looks] == list(range(every, N + 1,
                                                            every))
            for it, pattern, _ in looks:
                np.testing.assert_array_equal(pattern, sweeps[it - 1])
        else:
            # A look after every _FACE_EVERY-th iteration of each LASSO
            # solve, and none skipped.
            assert not sweeps
            assert all(n == it // every for n, it in solves)
            assert sum(it for _, it in solves) == info["iterations"]
        held = sum(np.array_equal(a, b)
                   for (_, a, _), (_, b, _) in zip(looks, looks[1:]))
        assert 1 <= len(tries) < held
        for i, pattern in tries:
            assert i >= 1
            np.testing.assert_array_equal(pattern, looks[i][1])
            np.testing.assert_array_equal(pattern, looks[i - 1][1])
            assert abs(looks[i][2] - sub.sigma_bar) \
                <= _FACE_GAP * sub.sigma_bar
        patterns = {pattern.tobytes() for _, pattern in tries}
        assert len(patterns) == len(tries)

    def test_spg_looks_after_every_due_step(self, monkeypatch, desk_instance):
        # Every step the gate names due, in every LASSO solve, is followed
        # by a look, also after failed tries: the gate alone decides
        # whether a look tries.  With eps_k = -1 every try fails.
        inst, _ = desk_instance
        sub = build_subproblem(inst, inst.least_norm, 0)
        sub.eps_k = -1.0
        events = []
        due = core_module.FaceGate.due
        look = core_module.FaceGate.look
        face_solve = core_module.face_solve
        lasso = spg_module.spg_lasso

        def spy_due(step):
            if due(step):
                events.append("due")
                return True
            return False

        def spy_look(gate, x, rho):
            events.append("look")
            return look(gate, x, rho)

        def spy_face(sub, x, stats=None):
            events.append("try")
            return face_solve(sub, x, stats)

        def spy_lasso(*args, **kwargs):
            events.append("solve")
            return lasso(*args, **kwargs)
        monkeypatch.setattr(core_module.FaceGate, "due", staticmethod(spy_due))
        monkeypatch.setattr(core_module.FaceGate, "look", spy_look)
        monkeypatch.setattr(core_module, "face_solve", spy_face)
        monkeypatch.setattr(spg_module, "spg_lasso", spy_lasso)
        _, _, info = get_engine("spg")[0](sub, None)
        assert info["face_accepted"] == 0
        tried = False           # a failed try earlier in this solve
        due_after_try = 0
        for event, after in zip(events, events[1:] + [None]):
            if event == "solve":
                tried = False
            elif event == "due":
                assert after == "look"
                due_after_try += tried
            elif event == "try":
                tried = True
        # The skip this replaces would have passed over these dues.
        assert events.count("try") >= 2 and due_after_try >= 1

    @pytest.mark.parametrize("engine", ENGINES)
    def test_failed_tries_leave_the_iterates_unchanged(self, monkeypatch,
                                                       desk_instance, engine):
        # Failed tries spend product pairs but change no iterate: the solve
        # ends at the same point as one without face tries, and the
        # certificate is the returned state's point.
        solve, _ = get_engine(engine)
        inst, _ = desk_instance
        sub = build_subproblem(inst, inst.least_norm, 0)
        sub.eps_k = -1.0
        N = 400
        monkeypatch.setattr(admm_module, "_MAX_INNER", N)
        cert, state, info = solve(sub, None)
        assert info["face_accepted"] == 0 and info["face_checks"] >= 1
        assert not cert.criteria_met
        if engine == "admm":
            assert info["iterations"] == N and info["exact_checks"] == 1
            np.testing.assert_array_equal(state.x, cert.x_tilde)
        else:
            assert state.x_lasso is cert.x_tilde
        monkeypatch.setattr(core_module, "face_solve", lambda *args: None)
        cert_plain, state_plain, info_plain = solve(sub, None)
        assert info["iterations"] == info_plain["iterations"]
        for name, value in vars(state).items():
            np.testing.assert_array_equal(value, vars(state_plain)[name])
        np.testing.assert_array_equal(cert.x_tilde, cert_plain.x_tilde)
        assert cert.kkt_residual == cert_plain.kkt_residual

    @pytest.mark.parametrize("kind, budget", [(LossKind.TUKEY_BIWEIGHT, 40_000),
                                              (LossKind.HUBER, 5_000)])
    def test_seed3_robust_loss_within_budget(self, kind, budget):
        # Answering on the settled face took these runs from 421,182
        # (Tukey) and 26,315 (Huber) sweeps to 19,734 and 2,485.
        res = run_dir(make_instance(54, 256, 3, kind), DirConfig(engine="admm"))
        assert res.status is RunStatus.CONVERGED
        assert sum(rec["inner_iterations"] for rec in res.history) <= budget


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
