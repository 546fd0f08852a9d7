import dataclasses
import json
import math
import os
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import dir_sparse
from dir_sparse import (DirConfig, InexactCertificate, InstanceSpec, LossKind,
                        LossSpec, PenaltySpec, RunStatus, admm_solve,
                        build_subproblem, constraint_grad, generate_instance,
                        register_engine, retract, run_dir,
                        stationarity_report)
from dir_sparse import core as core_module
from dir_sparse.core import (_FACE_ROUNDS, FEASIBILITY_SLACK, FaceFactor,
                             FaceGate, ProblemInstance, SubproblemData,
                             face_solve, get_engine)
from dir_sparse.harness import _problem_data

from conftest import ALL_KINDS, make_instance


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

    def test_build_memory_stays_near_one_copy_of_a(self):
        # Q is never formed and the column-major copy of A is taken after
        # the QR has freed its work arrays.  Forming Q, or copying A before
        # the QR, peaked at about 2.24 A.nbytes.
        data, _ = _problem_data(InstanceSpec(m=540, n=2560, s=80, seed=0))
        A = data[0]
        tracemalloc.start()
        try:
            inst = ProblemInstance.build(*data)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * A.nbytes
        assert inst.A.flags.f_contiguous

    def test_build_rejects_bad_sigma(self):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((4, 9))
        b = rng.standard_normal(4)
        with pytest.raises(ValueError):
            ProblemInstance.build(A, b, 0.0, LossSpec(LossKind.CAUCHY, 1.0),
                                  PenaltySpec(0.1))


def gather_sub(m=300, n=600, seed=0):
    """A subproblem on a fabricated column-major A of 1.44 MB."""
    rng = np.random.default_rng(seed)
    A = np.asfortranarray(rng.standard_normal((m, n)))
    b = rng.standard_normal(m)
    v = rng.uniform(0.5, 2.0, m)
    inst = ProblemInstance(A=A, b=b, sigma=1.0, loss=LossSpec(LossKind.CAUCHY, 1.0),
                           penalty=PenaltySpec(0.1), least_norm=np.zeros(n),
                           gram_lmax=1.0)
    return SubproblemData(instance=inst, x_k=np.zeros(n), w=np.ones(n), v=v,
                          b_w=v * b, sigma_k=1.0, eps_k=1.0, mu_k=1.0, tau_k=1.0)


class TestMatvecGather:
    # A fifth of n = 600 is 120: up to 120 nonzeros the product gathers.
    @pytest.mark.parametrize("nnz, columns", [
        (0, 0), (1, 1), (37, 37), (120, 120), (121, 600), (600, 600)])
    def test_path_and_value(self, nnz, columns):
        sub = gather_sub()
        A = sub.instance.A
        assert A.nbytes > 2 ** 20
        rng = np.random.default_rng(nnz)
        x = np.zeros(600)
        x[rng.choice(600, size=nnz, replace=False)] = rng.standard_normal(nnz)
        got = sub.matvec(x)
        assert sub.matvec_calls == 1 and sub.matvec_columns == columns
        want = sub.v * (A @ x)
        bound = 1e-13 * np.linalg.norm(A, 2) * np.linalg.norm(x)
        assert np.linalg.norm(got - want) <= bound
        if nnz == 0:
            np.testing.assert_array_equal(got, 0.0)


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

    def test_nan_anchor_rejected(self):
        inst = make_instance(5, 12, seed=3)
        bad = inst.least_norm.copy()
        bad[2] = np.nan
        with pytest.raises(ValueError, match="anchor infeasible"):
            build_subproblem(inst, bad, 0)

    def test_given_residual_spends_no_product(self):
        inst = make_instance(5, 12, seed=4)
        x_k = inst.least_norm
        want = build_subproblem(inst, x_k, 2)
        y = inst.b - inst.A @ x_k
        got = build_subproblem(dataclasses.replace(inst, A=None), x_k, 2, y)
        for f in dataclasses.fields(SubproblemData):
            if f.name != "instance":
                np.testing.assert_array_equal(getattr(got, f.name),
                                              getattr(want, f.name))

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

    @pytest.mark.parametrize("offset", [0.0, 50.0])
    def test_given_residual_spends_no_product(self, offset):
        # The least-norm point lies inside the ball, 50 * ones outside it.
        inst = make_instance(4, 10, seed=8)
        sub = build_subproblem(inst, inst.least_norm, 0)
        x = inst.least_norm + offset
        residual = sub.matvec(x) - sub.b_w
        assert (float(np.linalg.norm(residual)) ** 2 <= sub.sigma_k) \
            == (offset == 0.0)
        calls = sub.matvec_calls
        got = retract(sub, x, residual)
        assert sub.matvec_calls == calls
        np.testing.assert_array_equal(got, retract(sub, x))
        assert sub.matvec_calls == calls + 1

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


def _rounding_scale(inst, sub, x):
    """sigma plus the squared scale at which A_k x - b_w is computed."""
    return inst.sigma + (float(np.linalg.norm(sub.b_w)) + math.sqrt(
        sub.gram_bound()) * float(np.linalg.norm(x))) ** 2


class TestMajorization:
    """The subproblem ball lies inside the original constraint for every loss.

    This backs the feasibility check in run_dir: a certificate built from an
    honest residual retracts into the ball, hence into the constraint.
    Anchors are retracted points of the first subproblem, blended toward
    the least-norm point, so their residuals are nonzero.
    """

    @staticmethod
    def _subproblem(data, kind, m, extra, seed):
        try:
            inst = make_instance(m, m + extra, seed=seed, kind=kind)
        except ValueError:      # tiny draws can make x = 0 feasible
            assume(False)
        points = hnp.arrays(np.float64, m + extra, elements=st.floats(-1e6, 1e6))
        sub0 = build_subproblem(inst, inst.least_norm, 0)
        s = data.draw(st.floats(0.0, 1.0))
        anchor = inst.least_norm + s * (retract(sub0, data.draw(points))
                                        - inst.least_norm)
        assume(inst.is_feasible(anchor))
        return inst, build_subproblem(inst, anchor, 1), data.draw(points)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), kind=st.sampled_from(ALL_KINDS), m=st.integers(1, 6),
           extra=st.integers(0, 6), seed=st.integers(0, 2 ** 16),
           t=st.floats(0.0, 1.0))
    def test_ball_inside_constraint(self, data, kind, m, extra, seed, t):
        inst, sub, x = self._subproblem(data, kind, m, extra, seed)
        # A_k y - b_w = t (A_k retract(x) - b_w), as A least_norm = b.
        y = inst.least_norm + t * (retract(sub, x) - inst.least_norm)
        assume(float(np.linalg.norm(sub.matvec(y) - sub.b_w)) ** 2 <= sub.sigma_k)
        assert inst.constraint(y) <= inst.sigma + 1e-14 * _rounding_scale(inst, sub, y)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), kind=st.sampled_from(ALL_KINDS), m=st.integers(1, 6),
           extra=st.integers(0, 6), seed=st.integers(0, 2 ** 16))
    def test_certificate_point_feasible(self, data, kind, m, extra, seed):
        inst, sub, x = self._subproblem(data, kind, m, extra, seed)
        cert = _certificate_at(sub, x, 0.0, 0.0)
        got = inst.constraint(cert.x_next)
        assert got <= inst.sigma + 1e-14 * _rounding_scale(inst, sub, cert.x_next)
        assert got <= inst.sigma + FEASIBILITY_SLACK


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
        g = -lam * constraint_grad(inst.loss, inst.A, inst.b - inst.A @ x)
        expected = abs(g[0] - inst.penalty.dplus(0.5) * 1.0)
        rep = stationarity_report(inst, x, lam)
        assert rep.dual_residual == pytest.approx(expected, rel=1e-14)


def _certificate_at(sub, x, kkt_residual, coupling_residual, residual=None):
    """A certificate at x built from its true residual, or from ``residual``."""
    if residual is None:
        residual = sub.matvec(x) - sub.b_w
    return InexactCertificate(sub, x, residual, u_tilde=np.zeros_like(sub.b_w),
                              multiplier=0.0, kkt_residual=kkt_residual,
                              coupling_residual=coupling_residual)


class _EchoEngine:
    """Feeds back half its anchor; used to test the engine plug-in.

    Half the anchor is never the anchor, so no run stops on a zero step.
    """

    def __init__(self):
        self.warm_seen = []

    def solve(self, sub, warm):
        self.warm_seen.append(warm)
        cert = _certificate_at(sub, 0.5 * sub.x_k, math.inf, 0.0)
        return cert, {"token": len(self.warm_seen)}, {"iterations": 1}


def _failing_solve(sub, warm):
    return _certificate_at(sub, sub.x_k, math.inf, math.inf), None, {"iterations": 5}


class _LyingEngine:
    """Engine whose second answer reports a zero residual at an infeasible
    point; used to test that run_dir checks the retracted point.  Its first
    answer is half its anchor, so the run does not stop on a zero step."""

    def __init__(self):
        self.calls = 0

    def solve(self, sub, warm):
        self.calls += 1
        if self.calls == 1:
            cert = _certificate_at(sub, 0.5 * sub.x_k, 0.0, 0.0)
        else:
            cert = _certificate_at(sub, sub.x_k + 100.0, 0.0, 0.0,
                                   residual=np.zeros_like(sub.b_w))
        return cert, None, {"iterations": 1}


class _RaisingEngine:
    """Answers half its anchor, then raises ``exc`` on its second call."""

    def __init__(self, exc):
        self.exc = exc
        self.calls = 0

    def solve(self, sub, warm):
        self.calls += 1
        if self.calls == 2:
            raise self.exc
        return (_certificate_at(sub, 0.5 * sub.x_k, 0.0, 0.0), None,
                {"iterations": 1})


def certificate_violation_run(certified=True):
    """Run the lying engine; returns (instance, result)."""
    register_engine("lying-test", _LyingEngine().solve, certified=certified)
    inst = make_instance(5, 12, seed=18)
    return inst, run_dir(inst, DirConfig(engine="lying-test", max_outer=10,
                                         outer_tol=0.0))


def first_face_subproblem():
    """The desk run's first subproblem that ADMM answers at warm entry.

    That answer is on the face of the previous ADMM answer, with no sweep.
    Returns the subproblem and that previous answer.
    """
    inst, _ = generate_instance(InstanceSpec(m=54, n=256, s=8, seed=0))
    x, warm = inst.least_norm, None
    for k in range(10):
        sub = build_subproblem(inst, x, k)
        cert, state, info = admm_solve(sub, warm)
        if info["face_accepted"] and info["iterations"] == 0:
            return sub, warm.x
        x, warm = cert.x_next, state
    raise AssertionError("no face answer in 10 outer iterations")


def unmeetable_face_answer():
    """face_solve on the first face subproblem with eps_k = -1."""
    sub, x_prev = first_face_subproblem()
    sub.eps_k = -1.0
    stats = {}
    return face_solve(sub, x_prev, stats), stats


class TestFaceSolve:
    def test_desk_answer_is_the_face_optimum(self):
        sub, x_prev = first_face_subproblem()
        cert = face_solve(sub, x_prev)
        assert cert is not None and cert.criteria_met
        x = cert.x_tilde
        residual = sub.matvec(x) - sub.b_w
        assert float(np.linalg.norm(residual)) == pytest.approx(
            sub.sigma_bar, rel=1e-12, abs=0.0)
        assert cert.kkt_residual <= 1e-10
        # t from the normal equations on the face, independent of the
        # face's inverse Gram matrix.
        S = np.flatnonzero(x)
        M = sub.v[:, None] * sub.instance.A[:, S]
        z_ls = np.linalg.lstsq(M, sub.b_w, rcond=None)[0]
        rho2 = float(np.sum((M @ z_ls - sub.b_w) ** 2))
        c = sub.w[S] * np.sign(x[S])
        h = np.linalg.solve(M.T @ M, c)
        t = math.sqrt((sub.sigma_k - rho2) / float(c @ h))
        assert cert.multiplier > 0.0
        assert cert.multiplier == pytest.approx(1.0 / t, rel=1e-9)
        np.testing.assert_allclose(x[S], z_ls - t * h, rtol=1e-9)

    def test_removed_column_added_back(self):
        # Without a column the face either still reaches the ball, and then
        # the column must come back, or it does not, and no answer is tried.
        sub, x_prev = first_face_subproblem()
        want = face_solve(sub, x_prev).x_tilde
        S = np.flatnonzero(want)
        reachable = 0
        for j in S:
            short = want.copy()
            short[j] = 0.0
            rest = np.flatnonzero(short)
            M = sub.v[:, None] * sub.instance.A[:, rest]
            z_ls = np.linalg.lstsq(M, sub.b_w, rcond=None)[0]
            rho2 = float(np.sum((M @ z_ls - sub.b_w) ** 2))
            stats = {}
            cert = face_solve(sub, short, stats)
            if rho2 >= sub.sigma_k:
                assert cert is None and stats["face_checks"] == 0
                continue
            reachable += 1
            assert cert is not None
            assert 2 <= stats["face_checks"] <= _FACE_ROUNDS
            np.testing.assert_array_equal(np.flatnonzero(cert.x_tilde), S)
            np.testing.assert_allclose(cert.x_tilde, want, rtol=1e-9,
                                       atol=1e-12)
        assert reachable > 0

    @pytest.mark.parametrize("size", [0, 54, 60])
    def test_empty_or_full_support_spends_nothing(self, monkeypatch, size):
        # No product, and no column gathered: no FaceFactor is made.
        sub, _ = first_face_subproblem()
        made = []
        monkeypatch.setattr(core_module, "FaceFactor",
                            lambda *args: made.append(args))
        x_prev = np.zeros(sub.w.shape[0])
        x_prev[:size] = 1.0
        calls = (sub.matvec_calls, sub.rmatvec_calls)
        stats = {}
        assert face_solve(sub, x_prev, stats) is None
        assert (sub.matvec_calls, sub.rmatvec_calls) == calls and made == []
        assert stats["face_checks"] == stats["face_accepted"] == 0

    def test_unmeetable_eps_gives_none(self):
        cert, stats = unmeetable_face_answer()
        assert cert is None
        assert stats["face_checks"] >= 1 and stats["face_accepted"] == 0

    def test_unmeetable_eps_gives_none_under_python_O(self):
        path = os.pathsep.join([os.path.dirname(os.path.dirname(dir_sparse.__file__)),
                                os.path.dirname(__file__)])
        code = ("import sys, test_core\n"
                "cert, stats = test_core.unmeetable_face_answer()\n"
                "print(sys.flags.optimize, cert is None, stats['face_checks'])\n")
        out = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                             text=True, timeout=120,
                             env={**os.environ, "PYTHONPATH": path})
        assert out.returncode == 0, out.stderr
        optimize, is_none, checks = out.stdout.split()
        assert (optimize, is_none) == ("1", "True") and int(checks) >= 1

    @pytest.mark.parametrize("engine", ["admm", "spg", "spg-blackbox"])
    def test_face_answered_warm_solve(self, engine):
        # The engine's own answer on the desk's first face subproblem is
        # answered on its face, and its state warm-starts the next solve.
        # The cold solve has no face to try at entry, so the engine runs.
        solve, _ = get_engine(engine)
        inst, _ = generate_instance(InstanceSpec(m=54, n=256, s=8, seed=0))
        sub0 = build_subproblem(inst, inst.least_norm, 0)
        cert0, warm, info0 = solve(sub0, None)
        assert info0["iterations"] > 0
        sub1 = build_subproblem(inst, cert0.x_next, 1)
        cert1, state1, info1 = solve(sub1, warm)
        assert info1["iterations"] == 0 and info1["face_accepted"] == 1
        assert info1["face_checks"] == sub1.matvec_calls == sub1.rmatvec_calls
        assert cert1.criteria_met
        sub2 = build_subproblem(inst, cert1.x_next, 2)
        cert2, _, info2 = solve(sub2, state1)
        assert cert2.criteria_met and info2["face_accepted"] == 1
        assert info2["iterations"] == 0


def face_lstsq(sub, support, signs):
    """(c, z_ls, h, rho2) on a face from two least-squares solves with M.

    h = (M^T M)^-1 c is the least-squares solution of M h = y with y the
    least-norm solution of M^T y = c.
    """
    M = sub.v[:, None] * sub.instance.A[:, support]
    c = sub.w[support] * signs
    z_ls = np.linalg.lstsq(M, sub.b_w, rcond=None)[0]
    h = np.linalg.lstsq(M, np.linalg.lstsq(M.T, c, rcond=None)[0],
                        rcond=None)[0]
    return c, z_ls, h, float(np.sum((M @ z_ls - sub.b_w) ** 2))


class TestFaceFactor:
    @pytest.mark.parametrize("seed", range(6))
    def test_drops_and_adds_match_lstsq(self, monkeypatch, seed):
        # Drops and joins in a random order over as many steps as a try
        # has rounds, some with no solve between them and a dropped entry
        # joining again, all on the one Cholesky factor made at the start.
        factored = []
        cholesky = np.linalg.cholesky

        def counted(G):
            factored.append(G.shape[0])
            return cholesky(G)

        monkeypatch.setattr(np.linalg, "cholesky", counted)
        rng = np.random.default_rng(seed)
        inst = make_instance(40, 120, seed=seed)
        sub = build_subproblem(inst, inst.least_norm, 0)
        start = rng.choice(120, size=24, replace=False)
        face = FaceFactor(sub, start, rng.choice([-1.0, 1.0], size=24))
        for step in range(_FACE_ROUNDS):
            if step % 3 == 1:
                size = face.support.size
                face.keep(rng.random(size) > 0.15)
            else:
                out = np.setdiff1d(np.arange(120), face.support)
                cols = rng.choice(out, size=rng.integers(1, 4), replace=False)
                face.add(cols, rng.choice([-1.0, 1.0], size=cols.size))
            if step % 4 == 3:
                continue
            got = face.solve()
            want = face_lstsq(sub, face.support, face.signs)
            np.testing.assert_array_equal(got[0], want[0])
            for g, w in zip(got[1:], want[1:]):
                np.testing.assert_allclose(g, w, rtol=1e-9)
        assert factored == [24]

    @staticmethod
    def desk_seed3_try():
        """Desk seed 3's first warm try: its subproblem and warm answer.

        The try runs 14 active-set rounds, from the 33 entries of the cold
        answer to the 20 of its own, with 5 drops and 8 joins.
        """
        inst, _ = generate_instance(InstanceSpec(m=54, n=256, s=8, seed=3))
        cert0, warm, _ = admm_solve(
            build_subproblem(inst, inst.least_norm, 0), None)
        return build_subproblem(inst, cert0.x_next, 1), warm.x

    @pytest.mark.parametrize("method", ["keep", "add"])
    def test_failing_update_ends_the_try(self, monkeypatch, method):
        # A LinAlgError in the third update of either kind ends the try
        # with None, and face_checks still counts the pairs spent before.
        sub, x_prev = self.desk_seed3_try()
        update, calls = getattr(FaceFactor, method), []

        def failing(self, *args):
            calls.append(method)
            if len(calls) == 3:
                raise np.linalg.LinAlgError("factor broke down")
            return update(self, *args)

        monkeypatch.setattr(FaceFactor, method, failing)
        before = (sub.matvec_calls, sub.rmatvec_calls)
        stats = {}
        assert face_solve(sub, x_prev, stats) is None
        assert len(calls) == 3 and stats["face_accepted"] == 0
        spent = sub.matvec_calls - before[0]
        assert stats["face_checks"] == spent >= 1
        assert sub.rmatvec_calls - before[1] == spent

    def test_failing_factor_ends_the_try(self, monkeypatch):
        # A Gram matrix that is not positive definite ends the try with
        # None before any product.
        sub, x_prev = self.desk_seed3_try()

        def singular(G):
            raise np.linalg.LinAlgError("Matrix is not positive definite")

        monkeypatch.setattr(np.linalg, "cholesky", singular)
        before = (sub.matvec_calls, sub.rmatvec_calls)
        stats = {}
        assert face_solve(sub, x_prev, stats) is None
        assert (sub.matvec_calls, sub.rmatvec_calls) == before
        assert stats["face_checks"] == stats["face_accepted"] == 0

    def test_warm_try_past_six_rounds_certifies(self, monkeypatch):
        # Desk seed 3's first warm try certifies in 14 rounds, where the
        # former cap of 6 rounds gave it up.
        sub, x_prev = self.desk_seed3_try()
        rounds = []
        solve = FaceFactor.solve

        def counted(self):
            rounds.append(self.support.size)
            return solve(self)

        monkeypatch.setattr(FaceFactor, "solve", counted)
        cert = face_solve(sub, x_prev)
        assert cert is not None and cert.criteria_met
        assert len(rounds) > 6 and rounds[0] == 33
        assert np.count_nonzero(cert.x_tilde) == 20
        monkeypatch.setattr(core_module, "_FACE_ROUNDS", 6)
        assert face_solve(sub, x_prev) is None


class TestFaceGate:
    @staticmethod
    def spy(monkeypatch):
        """Record each face_solve call's x and result."""
        calls = []

        def face_solve(sub, x, stats=None, _orig=core_module.face_solve):
            calls.append((x, _orig(sub, x, stats)))
            return calls[-1][1]

        monkeypatch.setattr(core_module, "face_solve", face_solve)
        return calls

    def test_warm_try_at_construction(self, monkeypatch):
        sub, x_prev = first_face_subproblem()
        calls = self.spy(monkeypatch)
        before = sub.matvec_calls
        gate = FaceGate(sub, x_prev)
        assert len(calls) == 1 and calls[0][0] is x_prev
        assert gate.cert is calls[0][1] and gate.cert is not None
        assert set(gate.stats) == {"face_accepted", "face_checks", "face_s"}
        assert gate.stats["face_accepted"] == 1
        assert gate.stats["face_checks"] == sub.matvec_calls - before >= 1
        # The warm pattern counts as tried: a held look on it tries nothing.
        for _ in range(2):
            assert gate.look(x_prev, sub.sigma_bar) is None
            assert not gate.tried
        assert len(calls) == 1 and gate.cert is calls[0][1]

    def test_cold_gate_tries_nothing_at_construction(self, monkeypatch):
        sub, x_prev = first_face_subproblem()
        calls = self.spy(monkeypatch)
        before = (sub.matvec_calls, sub.rmatvec_calls)
        gate = FaceGate(sub)
        assert calls == [] and gate.cert is None
        assert gate.stats == {"face_accepted": 0, "face_checks": 0,
                              "face_s": 0.0}
        assert (sub.matvec_calls, sub.rmatvec_calls) == before
        # The same pattern, held over two looks, is tried on the second.
        assert gate.look(x_prev, sub.sigma_bar) is None and not gate.tried
        assert gate.look(x_prev, sub.sigma_bar) is not None and gate.tried
        assert len(calls) == 1 and gate.stats["face_accepted"] == 1


class TestDirConfig:
    @pytest.mark.parametrize("tol", [math.nan, math.inf, -1.0, -1e-300])
    def test_rejects_bad_outer_tol(self, tol):
        with pytest.raises(ValueError, match="outer_tol must be finite and "
                                             "at least 0"):
            DirConfig(outer_tol=tol)

    @pytest.mark.parametrize("count", [0, -5])
    def test_rejects_max_outer_below_one(self, count):
        with pytest.raises(ValueError, match="max_outer must be at least 1"):
            DirConfig(max_outer=count)

    def test_accepts_zero_tol_and_one_iteration(self):
        config = DirConfig(outer_tol=0.0, max_outer=1)
        assert (config.outer_tol, config.max_outer) == (0.0, 1)


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

    def test_plugin_engine_and_warm_threading(self):
        engine = _EchoEngine()
        register_engine("echo-test", engine.solve, certified=False)
        inst = make_instance(5, 12, seed=15)
        res = run_dir(inst, DirConfig(engine="echo-test", max_outer=3,
                                      outer_tol=0.0))
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

    def test_certificate_violation_for_uncertified_engine(self):
        # Feasibility is checked for every engine, not only certified ones.
        inst, res = certificate_violation_run(certified=False)
        assert res.status is RunStatus.CERTIFICATE_VIOLATION
        assert len(res.history) == 1 and not res.history[0]["criteria_enforced"]
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

    def test_engine_error_keeps_partial_history(self):
        register_engine("raise-test", _RaisingEngine(RuntimeError("boom")).solve,
                        certified=False)
        inst = make_instance(5, 12, seed=19)
        res = run_dir(inst, DirConfig(engine="raise-test", max_outer=10,
                                      outer_tol=0.0))
        assert res.status is RunStatus.ENGINE_ERROR
        assert res.status.value == "engine-error"
        assert res.error == "RuntimeError: boom"
        assert len(res.history) == 1 and res.history[0]["k"] == 0
        assert inst.is_feasible(res.x_retracted)

    def test_keyboard_interrupt_propagates(self):
        register_engine("interrupt-test",
                        _RaisingEngine(KeyboardInterrupt()).solve, certified=False)
        inst = make_instance(5, 12, seed=19)
        with pytest.raises(KeyboardInterrupt):
            run_dir(inst, DirConfig(engine="interrupt-test", max_outer=10,
                                    outer_tol=0.0))

    @pytest.mark.parametrize("engine", ["admm", "spg"])
    def test_matvec_columns_dense_on_desk(self, desk_instance, engine):
        # The desk A stays on the dense path, so every matvec reads all n.
        inst, _ = desk_instance
        res = run_dir(inst, DirConfig(engine=engine))
        assert res.status is RunStatus.CONVERGED and res.error is None
        for rec in res.history:
            assert rec["matvec_columns"] == 256 * rec["matvec_calls"]

    @pytest.mark.parametrize("engine", ["admm", "spg"])
    def test_raw_products_per_run(self, desk_instance, engine):
        # One residual b - A x per outer point serves both its constraint
        # test and the next subproblem: K + 3 products with the raw A in a
        # run of K outer iterations, two of them in the stationarity report
        # (one residual, one gradient).  The operator passes of the engine
        # are counted apart.
        inst, _ = desk_instance
        products = []

        class CountingA(np.ndarray):
            def __matmul__(self, other):
                products.append(1)
                return np.asarray(self) @ other

        res = run_dir(dataclasses.replace(inst, A=inst.A.view(CountingA)),
                      DirConfig(engine=engine))
        assert res.status is RunStatus.CONVERGED
        passes = sum(h["matvec_calls"] + h["rmatvec_calls"] for h in res.history)
        assert len(products) - passes == len(res.history) + 3
        plain = run_dir(inst, DirConfig(engine=engine))
        np.testing.assert_array_equal(res.x_final, plain.x_final)

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

    @pytest.mark.parametrize("engine", ["admm", "spg"])
    def test_history_times_build_and_engine(self, desk_instance, engine):
        inst, _ = desk_instance
        res = run_dir(inst, DirConfig(engine=engine, max_outer=3, outer_tol=0.0))
        for rec in res.history:
            assert rec["build_s"] >= 0.0 and rec["engine_s"] >= 0.0
            assert rec["build_s"] + rec["engine_s"] <= rec["elapsed_seconds"]
        parsed = [json.loads(line) for line in res.history_jsonl().splitlines()]
        assert parsed == res.history

    @pytest.mark.parametrize("engine", ["admm", "spg"])
    def test_elapsed_is_build_engine_and_retract(self, monkeypatch,
                                                 desk_instance, engine):
        # Each constraint test sleeps `delay`: one in build_subproblem and
        # one on the retracted point, so build_s and retract_s each hold at
        # least one, and what is left of elapsed_seconds (building the
        # record) holds none.
        delay = 0.05
        constraint_value = dir_sparse.core.constraint_value

        def slow(loss, y):
            time.sleep(delay)
            return constraint_value(loss, y)

        monkeypatch.setattr(dir_sparse.core, "constraint_value", slow)
        inst, _ = desk_instance
        res = run_dir(inst, DirConfig(engine=engine, max_outer=3, outer_tol=0.0))
        assert len(res.history) == 3
        for rec in res.history:
            assert rec["build_s"] >= delay and rec["retract_s"] >= delay
            assert rec["engine_s"] >= 0.0
            rest = rec["elapsed_seconds"] - (
                rec["build_s"] + rec["engine_s"] + rec["retract_s"])
            assert 0.0 <= rest < delay

    @pytest.mark.parametrize("engine, keys", [
        ("admm", {"best_kkt", "best_kkt_iter", "exact_checks",
                  "penalty_changes", "beta_scale", "face_accepted",
                  "face_checks", "face_s"}),
        ("spg", {"newton_steps", "escalations", "root_gap",
                 "lasso_unconverged", "pareto_stops", "face_s",
                 "face_accepted", "face_checks"}),
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

    def test_products_counted_per_iteration(self, desk_instance):
        # Each face try, at warm entry or between sweeps, spends one
        # product pair per check.  When the sweeps run, ADMM spends one
        # matvec per sweep plus the first, and one rmatvec per sweep plus
        # the first gradient, each exact check and, on a warm start, the
        # seed of A_k^T lam / beta; run_dir spends none.
        inst, _ = desk_instance
        res = run_dir(inst, DirConfig(engine="admm"))
        assert res.status is RunStatus.CONVERGED
        for rec in res.history:
            ran = rec["inner_iterations"] > 0
            assert rec["matvec_calls"] == rec["face_checks"] \
                + ran * (rec["inner_iterations"] + 1)
            extra = rec["rmatvec_calls"] - rec["face_checks"] \
                - rec["inner_iterations"] - rec["exact_checks"]
            assert extra == ran * (1 if rec["k"] == 0 else 2)

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


class TestMetamorphic:
    @pytest.mark.parametrize("engine", ["admm", "spg", "spg-blackbox"])
    @pytest.mark.parametrize("seed", range(4))
    def test_signed_column_permutation(self, seed, engine):
        # Replacing A by A[:, perm] * signs maps every feasible x to
        # signs * x[perm] with the same residual and the same objective, so
        # the solve must map the same way, up to rounding.
        inst, _ = generate_instance(InstanceSpec(m=54, n=256, s=8, seed=seed))
        rng = np.random.default_rng(100 + seed)
        perm = rng.permutation(256)
        signs = rng.choice([-1.0, 1.0], size=256)
        moved = ProblemInstance.build(inst.A[:, perm] * signs, inst.b,
                                      inst.sigma, inst.loss, inst.penalty)
        config = DirConfig(engine=engine)
        res = run_dir(inst, config)
        res_moved = run_dir(moved, config)
        want = signs * res.x_final[perm]
        assert res_moved.status is res.status
        assert len(res_moved.history) == len(res.history)
        np.testing.assert_array_equal(res_moved.x_final != 0.0, want != 0.0)
        scale = max(1.0, float(np.abs(want).max()))
        assert float(np.abs(res_moved.x_final - want).max()) / scale <= 1e-9
