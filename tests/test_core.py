import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import dir_sparse
from dir_sparse import (DirConfig, InexactCertificate, LossKind, LossSpec,
                        PenaltySpec, RunStatus, build_subproblem,
                        register_engine, retract, run_dir, stationarity_report)
from dir_sparse.core import ProblemInstance

from conftest import make_instance


def one_dim_instance(b=2.0, sigma=1.0, delta=1.0, epsilon=0.1):
    loss = LossSpec(LossKind.CAUCHY, delta)
    return ProblemInstance(A=np.array([[1.0]]), b=np.array([b]), sigma=sigma,
                           loss=loss, penalty=PenaltySpec(epsilon),
                           least_norm=np.array([b]), gram_lmax=1.0)


class TestProblemInstance:
    def test_build_caches(self):
        inst = make_instance(5, 12, seed=0)
        np.testing.assert_allclose(inst.A @ inst.least_norm, inst.b, atol=1e-10)
        assert inst.gram_lmax == pytest.approx(
            float(np.linalg.eigvalsh(inst.A @ inst.A.T).max()), rel=1e-8)
        assert inst.is_feasible(inst.least_norm)

    def test_build_factors_once(self, monkeypatch):
        qr_calls = []
        qr = np.linalg.qr
        monkeypatch.setattr(np.linalg, "qr",
                            lambda *args, **kw: qr_calls.append(1) or qr(*args, **kw))
        inst = make_instance(30, 90, seed=1)
        assert len(qr_calls) == 1
        monkeypatch.undo()
        assert inst.gram_lmax == pytest.approx(
            float(np.linalg.norm(inst.A, 2)) ** 2, rel=1e-12)

    def test_build_rejects_bad_sigma(self):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((4, 9))
        b = rng.standard_normal(4)
        with pytest.raises(ValueError):
            ProblemInstance.build(A, b, 0.0, LossSpec(LossKind.CAUCHY, 1.0),
                                  PenaltySpec(0.1))


class TestBuildSubproblem:
    def test_interpolating_anchor_keeps_sigma(self):
        inst = make_instance(5, 12, seed=1)
        sub = build_subproblem(inst, inst.least_norm, 0)
        assert sub.sigma_k == pytest.approx(inst.sigma, rel=1e-12)

    def test_one_dim_worked_example(self):
        # Cauchy delta=1, A=[1], b=[2], x_k=[1], sigma=1:
        # y=1, phi'(1)=1/2, sigma_k = 1 + 1/2 - log 2 (independent evaluation
        # froze 0.8068528194400547).
        inst = one_dim_instance()
        sub = build_subproblem(inst, np.array([1.0]), 0)
        assert sub.sigma_k == pytest.approx(0.8068528194400547, abs=1e-15)
        np.testing.assert_allclose(sub.v, [math.sqrt(0.5)], rtol=1e-15)
        assert sub.eps_k == pytest.approx(min(sub.sigma_k, math.sqrt(sub.sigma_k), 0.2))

    def test_weights_at_zero_anchor(self):
        inst = make_instance(4, 9, seed=2, epsilon=0.1)
        # zero is infeasible for the original problem but the weight formula
        # is anchor-independent; use a feasible anchor with zero entries
        sub = build_subproblem(inst, inst.least_norm, 0)
        mask = inst.least_norm == 0.0
        np.testing.assert_allclose(sub.w[mask], 10.0)
        np.testing.assert_allclose(
            sub.w, 1.0 / (0.1 + np.abs(inst.least_norm)), rtol=1e-15)

    def test_infeasible_anchor_rejected(self):
        inst = make_instance(5, 12, seed=3)
        bad = inst.least_norm + 100.0 * np.ones(12)
        assert not inst.is_feasible(bad)
        with pytest.raises(ValueError):
            build_subproblem(inst, bad, 0)

    def test_schedules_enter_subproblem(self):
        inst = make_instance(5, 12, seed=4)
        for k in (0, 3, 40):
            sub = build_subproblem(inst, inst.least_norm, k)
            assert sub.tau_k == pytest.approx(max(5.0 ** (-k - 1), 1e-8))
            assert sub.mu_k == pytest.approx(max(1.2 ** (-k - 1), 1e-8))

    def test_sigma_clamp_warns_on_degenerate_anchor(self):
        # All residuals in the Tukey flat region make the correction terms
        # vanish while the constraint sits a hair above sigma: the exact
        # formula then dips negative and the clamp must fire.
        m, n = 3, 6
        A = np.vstack([np.eye(m), np.zeros((n - m, m))]).T
        phi_bar = 1.0 / 6.0  # Tukey delta=1
        b = np.full(m, 10.0)
        sigma = m * phi_bar - 1e-11
        inst = ProblemInstance(A=A, b=b, sigma=sigma,
                               loss=LossSpec(LossKind.TUKEY_BIWEIGHT, 1.0),
                               penalty=PenaltySpec(0.1),
                               least_norm=np.concatenate([b, np.zeros(n - m)]),
                               gram_lmax=1.0)
        x_k = np.zeros(n)   # residuals = b, all beyond the Tukey cutoff
        assert inst.constraint(x_k) <= sigma + 1e-10
        with pytest.warns(RuntimeWarning, match="sigma_k"):
            sub = build_subproblem(inst, x_k, 0)
        assert 0 < sub.sigma_k <= 1e-14 * sigma


class TestRetract:
    def test_feasible_point_returned_unchanged(self):
        inst = make_instance(5, 12, seed=5)
        sub = build_subproblem(inst, inst.least_norm, 0)
        x = inst.least_norm + 1e-3  # small perturbation stays feasible
        if float(np.linalg.norm(sub.matvec(x) - sub.b_w)) ** 2 <= sub.sigma_k:
            assert retract(sub, x) is x

    def test_halfway_blend(self):
        inst = one_dim_instance()
        sub = build_subproblem(inst, np.array([1.0]), 0)
        # choose x with ||A_k x - b_w|| = 2 sqrt(sigma_k): theta = 1/2
        x = np.array([(sub.b_w[0] + 2.0 * sub.sigma_bar) / sub.v[0]])
        out = retract(sub, x)
        np.testing.assert_allclose(out, 0.5 * inst.least_norm + 0.5 * x,
                                   rtol=1e-12)

    def test_output_feasible_for_both_constraints(self):
        rng = np.random.default_rng(6)
        inst = make_instance(5, 12, seed=7)
        sub = build_subproblem(inst, inst.least_norm, 0)
        for _ in range(20):
            x = 10.0 * rng.standard_normal(12)
            out = retract(sub, x)
            sub_res = float(np.linalg.norm(sub.matvec(out) - sub.b_w)) ** 2
            assert sub_res <= sub.sigma_k + 1e-12
            assert inst.constraint(out) <= inst.sigma + 1e-12

    def test_boundary_exactness(self):
        inst = make_instance(4, 10, seed=8)
        sub = build_subproblem(inst, inst.least_norm, 0)
        x = 50.0 * np.ones(10)
        out = retract(sub, x)
        assert float(np.linalg.norm(sub.matvec(out) - sub.b_w)) ** 2 \
            == pytest.approx(sub.sigma_k, rel=1e-10)


    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), m=st.integers(1, 6), extra=st.integers(0, 6),
           seed=st.integers(0, 2 ** 16), k=st.integers(0, 30))
    def test_retract_always_lands_in_ball(self, data, m, extra, seed, k):
        try:
            inst = make_instance(m, m + extra, seed=seed)
        except ValueError:      # tiny draws can make x = 0 feasible
            assume(False)
        sub = build_subproblem(inst, inst.least_norm, k)
        x = data.draw(hnp.arrays(np.float64, m + extra,
                                 elements=st.floats(-1e6, 1e6)))
        out = retract(sub, x)
        res = float(np.linalg.norm(sub.matvec(out) - sub.b_w))
        # The boundary is hit up to rounding at the scale of the data, not of
        # the radius: m = 1, seed 31956, x = [1] overshoots sigma_k by
        # 1.35e-12 relative, where ||b_w|| is 1.6e4 times sqrt(sigma_k).
        scale = float(np.linalg.norm(sub.b_w)) \
            + math.sqrt(sub.gram_bound()) * float(np.linalg.norm(out))
        assert res <= sub.sigma_bar + 1e-14 * scale


class TestStationarityReport:
    def test_zero_point_zero_multiplier(self):
        inst = make_instance(5, 12, seed=9)
        rep = stationarity_report(inst, np.zeros(12), 0.0)
        assert rep.dual_residual == 0.0
        assert rep.primal_feasibility > 0.0      # zero is never feasible
        assert rep.complementarity == 0.0

    def test_nonzero_point_zero_multiplier_has_residual(self):
        inst = make_instance(5, 12, seed=10)
        x = inst.least_norm
        rep = stationarity_report(inst, x, 0.0)
        nz = np.abs(x[x != 0.0])
        assert rep.dual_residual >= float(inst.penalty.dplus(nz).min()) - 1e-12

    def test_negative_multiplier_rejected(self):
        inst = make_instance(5, 12, seed=11)
        with pytest.raises(ValueError):
            stationarity_report(inst, np.zeros(12), -1e-3)

    def test_dual_residual_formula(self):
        # hand-check the componentwise distance on a 1-d instance
        inst = one_dim_instance(b=2.0, sigma=1.0)
        lam = 0.7
        x = np.array([0.5])
        g = -lam * inst.constraint_gradient(x)
        expected = abs(g[0] - inst.penalty.dplus(0.5) * 1.0)
        rep = stationarity_report(inst, x, lam)
        assert rep.dual_residual == pytest.approx(expected, rel=1e-14)


class _EchoEngine:
    """Feeds back the least-norm point; used to test the engine plug-in."""

    def __init__(self):
        self.warm_seen = []

    def solve(self, sub, warm):
        self.warm_seen.append(warm)
        x = sub.instance.least_norm
        cert = InexactCertificate(
            x_tilde=x, u_tilde=np.zeros_like(sub.b_w), multiplier=0.0,
            kkt_residual=math.inf, coupling_residual=0.0, descent_ok=True)
        return cert, {"token": len(self.warm_seen)}, {"iterations": 1, "ok": True}


def _failing_solve(sub, warm):
    cert = InexactCertificate(
        x_tilde=sub.x_k, u_tilde=np.zeros_like(sub.b_w), multiplier=0.0,
        kkt_residual=math.inf, coupling_residual=math.inf, descent_ok=False)
    return cert, None, {"iterations": 5, "ok": False}


class _LyingEngine:
    """Certified engine whose second answer claims success but fails its
    certificate; used to test that run_dir checks the claim."""

    def __init__(self):
        self.calls = 0

    def solve(self, sub, warm):
        self.calls += 1
        residual = 0.0 if self.calls == 1 else math.inf
        cert = InexactCertificate(
            x_tilde=sub.x_k, u_tilde=np.zeros_like(sub.b_w), multiplier=0.0,
            kkt_residual=residual, coupling_residual=0.0, descent_ok=True)
        return cert, None, {"iterations": 1, "ok": True}


def certificate_violation_run():
    """Run the lying engine; returns (instance, result)."""
    register_engine("lying-test", _LyingEngine().solve, certified=True)
    inst = make_instance(5, 12, seed=18)
    return inst, run_dir(inst, DirConfig(engine="lying-test", max_outer=10,
                                         outer_tol=-1.0))


class TestRunDir:
    def test_stopping_rule_plumbing(self):
        inst = make_instance(6, 15, seed=12)
        res = run_dir(inst, DirConfig(engine="admm", outer_tol=1e3, max_outer=50))
        assert res.status is RunStatus.CONVERGED
        assert len(res.history) >= 1

    def test_unknown_engine(self):
        inst = make_instance(5, 12, seed=13)
        with pytest.raises(ValueError, match="unknown engine"):
            run_dir(inst, DirConfig(engine="no-such-engine"))

    def test_infeasible_x0_rejected(self):
        inst = make_instance(5, 12, seed=14)
        with pytest.raises(ValueError, match="x0"):
            run_dir(inst, DirConfig(engine="admm"),
                    x0=inst.least_norm + 100.0)

    def test_plugin_engine_and_warm_threading(self):
        engine = _EchoEngine()
        register_engine("echo-test", engine.solve, certified=False)
        inst = make_instance(5, 12, seed=15)
        res = run_dir(inst, DirConfig(engine="echo-test", max_outer=3,
                                      outer_tol=-1.0))
        assert len(res.history) == 3
        # warm state from solve k is handed to solve k+1
        assert engine.warm_seen[0] is None
        assert engine.warm_seen[1] == {"token": 1}
        assert engine.warm_seen[2] == {"token": 2}
        assert not any(h["criteria_enforced"] for h in res.history)

    def test_subproblem_failure_keeps_partial_history(self):
        register_engine("fail-test", _failing_solve, certified=True)
        inst = make_instance(5, 12, seed=16)
        res = run_dir(inst, DirConfig(engine="fail-test", max_outer=10))
        assert res.status is RunStatus.SUBPROBLEM_FAILURE
        assert len(res.history) == 1
        assert inst.is_feasible(res.x_retracted)

    def test_certificate_violation_keeps_partial_history(self):
        inst, res = certificate_violation_run()
        assert res.status is RunStatus.CERTIFICATE_VIOLATION
        assert len(res.history) == 1 and res.history[0]["criteria_enforced"]
        assert inst.is_feasible(res.x_retracted)

    def test_certificate_violation_caught_under_python_O(self):
        path = os.pathsep.join([os.path.dirname(os.path.dirname(dir_sparse.__file__)),
                                os.path.dirname(__file__)])
        code = ("import sys, test_core\n"
                "_, res = test_core.certificate_violation_run()\n"
                "print(sys.flags.optimize, res.status.value, len(res.history))\n")
        out = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                             text=True, timeout=120,
                             env={**os.environ, "PYTHONPATH": path})
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == ["1", "certificate-violation", "1"]

    def test_history_jsonl_parses(self):
        inst = make_instance(6, 15, seed=17)
        res = run_dir(inst, DirConfig(engine="admm", max_outer=4, outer_tol=0.0))
        lines = res.history_jsonl().splitlines()
        assert len(lines) == len(res.history)
        for line, rec in zip(lines, res.history):
            parsed = json.loads(line)
            assert parsed == rec
            for key in ("k", "sigma_k", "eps_k", "objective", "inner_iterations",
                        "kkt_residual", "coupling_residual", "elapsed_seconds"):
                assert key in parsed

    @pytest.mark.parametrize("engine, keys", [
        ("admm", {"best_kkt", "best_kkt_iter", "exact_checks"}),
        ("spg", {"newton_steps", "escalations", "root_gap"}),
    ])
    def test_history_carries_engine_info(self, desk_instance, engine, keys):
        inst, _ = desk_instance
        res = run_dir(inst, DirConfig(engine=engine))
        assert res.status is RunStatus.CONVERGED
        for rec in res.history:
            assert keys <= set(rec)
            assert not {"iterations", "ok"} & set(rec)
        parsed = [json.loads(line) for line in res.history_jsonl().splitlines()]
        assert parsed == res.history

    def test_desk_run_invariants(self, desk_instance):
        inst, _ = desk_instance
        res = run_dir(inst, DirConfig(engine="admm"))
        assert res.status is RunStatus.CONVERGED
        hist = res.history
        # feasibility chain and sigma_k nesting
        assert all(h["constraint"] <= inst.sigma + 1e-10 for h in hist)
        assert all(h["constraint_next"] <= inst.sigma + 1e-10 for h in hist)
        assert all(0.0 < h["sigma_k"] <= inst.sigma for h in hist)
        # approximate descent
        assert all(h["objective_next"] - h["objective"] <= h["mu_k"] + 1e-8
                   for h in hist)
        # retraction displacement bound (certified mode)
        for h in hist:
            bound = (h["eps_k"] / math.sqrt(h["sigma_k"])) * h["anchor_gap"]
            assert h["retraction_displacement"] <= bound + 1e-12
        # consecutive objective values chain together
        for prev, cur in zip(hist, hist[1:]):
            assert cur["objective"] == pytest.approx(prev["objective_next"])
