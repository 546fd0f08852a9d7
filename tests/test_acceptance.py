"""Acceptance suite: one test per criterion, each printing a verdict line.

The desk-scale fixture runs (m, n, s) = (54, 256, 8) over 20 seeds for both
certified engines; the full-scale fixture runs (540, 2560, 80) over 10
seeds for the certified ADMM engine and the blackbox SPG engine.  Several
criteria share those runs, so both fixtures are session scoped.
"""

import math
import warnings
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from dir_sparse import (DirConfig, InstanceSpec, LossKind, LossSpec,
                        PenaltySpec, admm_solve, build_subproblem,
                        compute_metrics, constraint_grad,
                        constraint_value, generate_instance, pareto_newton,
                        project_weighted_l1_ball, run_dir)
from dir_sparse.core import ProblemInstance, SubproblemData

DESK = dict(m=54, n=256, s=8, delta=0.05, epsilon=0.1)
FULL = dict(m=540, n=2560, s=80, delta=0.05, epsilon=0.1)
DESK_SEEDS = range(20)
FULL_SEEDS = range(10)
CERTIFIED_ENGINES = ("admm", "spg")
FULL_ENGINES = ("admm", "spg-blackbox")


def _verdict(num, ok, text):
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} - {text}")
    assert ok, f"criterion {num}: {text}"


def _desk_run(args):
    seed, engine = args
    instance, x_orig = generate_instance(InstanceSpec(seed=seed, **DESK))
    result = run_dir(instance, DirConfig(engine=engine))
    metrics = compute_metrics(result, instance, x_orig)
    weights = instance.penalty.dplus(np.abs(result.x_final))
    return {
        "seed": seed,
        "engine": engine,
        "status": result.status.value,
        "sigma": instance.sigma,
        "history": result.history,
        "residual": metrics.residual,
        "recovery_error": metrics.recovery_error,
        "dual_residual": result.stationarity.dual_residual,
        "complementarity": result.stationarity.complementarity,
        "weight_norm": float(np.linalg.norm(weights)),
    }


@pytest.fixture(scope="session")
def desk_runs():
    tasks = [(seed, engine) for seed in DESK_SEEDS
             for engine in CERTIFIED_ENGINES]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        runs = [_desk_run(task) for task in tasks]
    clamp_warnings = [w for w in caught if "sigma_k" in str(w.message)]
    return runs, clamp_warnings


def _full_trial(args):
    seed, engine = args
    instance, x_orig = generate_instance(InstanceSpec(seed=seed, **FULL))
    result = run_dir(instance, DirConfig(engine=engine))
    metrics = compute_metrics(result, instance, x_orig)
    return {
        "seed": seed,
        "engine": engine,
        "status": result.status.value,
        "history": result.history,
        "success": metrics.success,
        "recovery_error": metrics.recovery_error,
        "residual": metrics.residual,
    }


@pytest.fixture(scope="session")
def full_runs():
    tasks = [(seed, engine) for seed in FULL_SEEDS for engine in FULL_ENGINES]
    with ProcessPoolExecutor(max_workers=2) as pool:
        return list(pool.map(_full_trial, tasks))


def test_criterion_1_feasibility(desk_runs):
    runs, _ = desk_runs
    worst = -math.inf
    for run in runs:
        for h in run["history"]:
            worst = max(worst, h["constraint"] - run["sigma"],
                        h["constraint_next"] - run["sigma"])
    _verdict(1, worst <= 1e-10,
             f"every outer iterate feasible; worst constraint excess "
             f"{worst:.3e} <= 1e-10 over {len(runs)} desk runs")


def test_criterion_2_sigma_nesting(desk_runs):
    runs, clamp_warnings = desk_runs
    ok = all(0.0 < h["sigma_k"] <= run["sigma"]
             for run in runs for h in run["history"])
    ok = ok and not clamp_warnings
    _verdict(2, ok,
             f"sigma_k in (0, sigma] everywhere and no clamp warnings "
             f"({len(clamp_warnings)} fired)")


def test_criterion_3_approximate_descent(desk_runs):
    runs, _ = desk_runs
    worst = -math.inf
    for run in runs:
        for h in run["history"]:
            worst = max(worst,
                        h["objective_next"] - h["objective"] - h["mu_k"])
    _verdict(3, worst <= 1e-8,
             f"objective increase <= mu_k at every step, both certified "
             f"engines; worst slack {worst:.3e} <= 1e-8")


def test_criterion_4_constraint_activity(desk_runs):
    runs, _ = desk_runs
    summary = []
    ok = True
    for engine in CERTIFIED_ENGINES:
        sel = [r for r in runs if r["engine"] == engine]
        hit = sum(1 for r in sel if abs(r["residual"]) <= 5e-3)
        frac = hit / len(sel)
        summary.append(f"{engine} {hit}/{len(sel)}")
        ok = ok and frac >= 0.9
    _verdict(4, ok,
             f"terminal |residual| <= 5e-3 on >= 90% of runs ({', '.join(summary)})")


def test_criterion_5_scaled_table_reproduction(full_runs):
    ok = True
    parts = []
    for engine in FULL_ENGINES:
        sel = [r for r in full_runs if r["engine"] == engine]
        successes = [r for r in sel if r["success"]]
        rate = len(successes) / len(sel)
        mean_err = float(np.mean([r["recovery_error"] for r in successes])) \
            if successes else math.inf
        res_lo = min(r["residual"] for r in sel)
        res_hi = max(r["residual"] for r in sel)
        ok = ok and rate >= 0.9 and mean_err <= 5e-3 \
            and -5e-3 <= res_lo and res_hi <= 5e-3
        parts.append(f"{engine}: success {100 * rate:.0f}%, "
                     f"recerr {mean_err:.2e}, res [{res_lo:.1e}, {res_hi:.1e}]")
    _verdict(5, ok, f"(540,2560,80) x 10 seeds - {'; '.join(parts)}")


def _tiny_subproblem(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 4))
    n = int(rng.integers(m, 4))
    A = rng.standard_normal((m, n))
    x_true = rng.standard_normal(n) * (rng.random(n) < 0.7)
    noise = 0.05 * rng.standard_normal(m)
    b = A @ x_true + noise
    loss = LossSpec(LossKind.CAUCHY, 0.5)
    # keep sigma strictly inside (0, sum phi(b^2)) even when x_true is 0
    cap = float(np.sum(loss.value(b * b)))
    sigma = min(1.5 * float(np.sum(loss.value(noise * noise))) + 0.05, 0.9 * cap)
    instance = ProblemInstance.build(A, b, sigma, loss, PenaltySpec(0.2))
    sub = build_subproblem(instance, instance.least_norm, 0)
    sub.eps_k = 1e-9
    return sub


def _grid_oracle_objective(sub):
    """Brute-force optimum of min ||w o x||_1 s.t. ||A_k x - b_w||^2 <= sigma_k.

    Two independent stages.  A dense shrinking grid over feasible points
    (infeasible grid points slide along the segment to the residual-zero
    interpolant, landing on the boundary) localizes the optimum coarsely.
    The refinement enumerates every support/sign pattern and solves the
    boundary KKT system in closed form, which is exact for these sizes;
    the winner must verify the full KKT conditions and agree with the grid
    stage at that stage's native resolution.
    """
    Ak = sub.v[:, None] * sub.instance.A
    if float(sub.b_w @ sub.b_w) <= sub.sigma_k:
        return 0.0

    x0 = sub.instance.least_norm       # strictly feasible (residual 0)
    sigma_bar = math.sqrt(sub.sigma_k)
    n = sub.w.shape[0]

    def evaluate(pts):
        resid = pts @ Ak.T - sub.b_w
        nrm = np.sqrt(np.einsum("ij,ij->i", resid, resid))
        t = np.minimum(1.0, sigma_bar / np.maximum(nrm, 1e-300))
        blended = (1.0 - t)[:, None] * x0 + t[:, None] * pts
        return blended, np.abs(blended) @ sub.w

    radius = float(np.abs(sub.w * x0).sum() / sub.w.min()) + 1.0
    center = x0.copy()
    half = radius
    grid_val = float(np.abs(sub.w * x0).sum())
    for _ in range(40):
        axes = [np.linspace(c - half, c + half, 17) for c in center]
        grids = np.meshgrid(*axes, indexing="ij")
        blended, vals = evaluate(np.stack([g.ravel() for g in grids], axis=1))
        j = int(np.argmin(vals))
        if vals[j] < grid_val:
            grid_val = float(vals[j])
            center = blended[j]
        half *= 0.75

    # Exact stage: the optimum lies on the boundary with some support S and
    # sign pattern s; stationarity gives x = x_ls - G^+ c / (2 lambda) with
    # G = A_S'A_S, c = (w s)_S, and the boundary equation fixes lambda.
    best_val = math.inf
    best_x = None
    best_lam = 0.0
    for mask in range(1, 2 ** n):
        support = [i for i in range(n) if mask >> i & 1]
        As = Ak[:, support]
        G = As.T @ As
        Gp = np.linalg.pinv(G)
        x_ls = Gp @ (As.T @ sub.b_w)
        r_ls = As @ x_ls - sub.b_w
        gap = sub.sigma_k - float(r_ls @ r_ls)
        if gap < 0.0:
            continue   # this support cannot reach the boundary
        for signs in np.ndindex(*(2,) * len(support)):
            s = 2.0 * np.asarray(signs, dtype=float) - 1.0
            c = sub.w[support] * s
            if float(np.linalg.norm(G @ (Gp @ c) - c)) > 1e-10 * np.linalg.norm(c):
                continue   # objective unbounded along null(A_S): wrong pattern
            drop = Gp @ c
            scale = float(np.linalg.norm(As @ drop))
            if scale <= 1e-300:
                continue
            step = math.sqrt(gap) / scale
            xs = x_ls - step * drop
            if np.any(s * xs < -1e-12):
                continue   # sign-inconsistent stationary point
            lam = 1.0 / (2.0 * step) if step > 0 else math.inf
            val = float(np.abs(sub.w[support] * xs).sum())
            if val < best_val:
                best_val = val
                best_x = np.zeros(n)
                best_x[support] = xs
                best_lam = lam

    assert best_x is not None, "no stationary pattern found"
    # KKT verification of the winner on the full problem.
    res = Ak @ best_x - sub.b_w
    assert float(res @ res) == pytest.approx(sub.sigma_k, rel=1e-9)
    q = 2.0 * best_lam * (Ak.T @ res)
    wtol = 1e-8 * max(1.0, float(np.abs(sub.w).max()))
    for i in range(n):
        if best_x[i] != 0.0:
            assert abs(sub.w[i] * np.sign(best_x[i]) + q[i]) <= wtol
        else:
            assert abs(q[i]) <= sub.w[i] + wtol
    # Cross-check against the independent grid stage at its resolution.
    assert grid_val >= best_val - 1e-9
    assert grid_val - best_val <= 1e-3 * max(1.0, best_val)
    return best_val


def test_criterion_6_admm_oracle_equivalence():
    worst = 0.0
    for seed in range(20):
        sub = _tiny_subproblem(100 + seed)
        cert, state, info = admm_solve(sub, None)
        assert cert.criteria_met, f"tiny ADMM solve {seed} did not certify"
        got = float(np.abs(sub.w * cert.x_tilde).sum())
        want = _grid_oracle_objective(sub)
        worst = max(worst, abs(got - want) / max(1.0, abs(want)))
    _verdict(6, worst <= 1e-6,
             f"ADMM objective matches grid oracle on 20 tiny subproblems; "
             f"worst relative gap {worst:.3e} <= 1e-6")


def test_criterion_7_projection_oracle():
    # independent oracle: bisection on the exact piecewise-linear equation
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(200):
        n = int(rng.integers(1, 7))
        y = rng.standard_normal(n) * rng.uniform(0.1, 10)
        w = rng.uniform(0.05, 5.0, n)
        tau = float(rng.uniform(0, 1.2) * (w @ np.abs(y)))
        got = project_weighted_l1_ball(y, w, tau)

        a = np.abs(y)
        if float(w @ a) <= tau:
            want = y.copy()
        else:
            lo, hi = 0.0, float(np.max(a / w)) if tau > 0 else 0.0
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                if float(w @ np.maximum(a - mid * w, 0.0)) > tau:
                    lo = mid
                else:
                    hi = mid
            theta = 0.5 * (lo + hi)
            want = np.sign(y) * np.maximum(a - theta * w, 0.0)
        worst = max(worst, float(np.linalg.norm(got - want)))
    _verdict(7, worst <= 1e-8,
             f"200 weighted-l1 projections match the KKT bisection oracle; "
             f"worst distance {worst:.3e} <= 1e-8")


def test_criterion_8_pareto_newton_analytic():
    loss = LossSpec(LossKind.CAUCHY, 1.0)
    instance = ProblemInstance(A=np.array([[1.0]]), b=np.array([2.0]),
                               sigma=1.0, loss=loss, penalty=PenaltySpec(0.1),
                               least_norm=np.array([2.0]), gram_lmax=1.0)
    sub = SubproblemData(instance=instance, x_k=np.array([1.5]),
                         w=np.array([1.0]), v=np.array([1.0]),
                         b_w=np.array([2.0]), sigma_k=1.0, eps_k=1e-6,
                         mu_k=0.5, tau_k=1e-6)
    cert, state, info = pareto_newton(sub, None, "certified")
    ok = info["newton_steps"] <= 2 and abs(state.tau - 1.0) <= 1e-12 \
        and cert.criteria_met
    _verdict(8, ok,
             f"analytic Pareto case: tau={state.tau!r} after "
             f"{info['newton_steps']} Newton steps (target 1 within 1e-12, "
             f"<= 2 steps)")


def test_criterion_9_gradient_check():
    rng = np.random.default_rng(77)
    worst = 0.0
    for kind in LossKind:
        loss = LossSpec(kind, 0.5)
        A = rng.standard_normal((6, 10))
        b = rng.standard_normal(6)
        checked = 0
        while checked < 50:
            x = rng.standard_normal(10)
            r = b - A @ x
            if np.any(np.abs(np.abs(r) - loss.delta) < 1e-3):
                continue   # keep clear of the Huber/Tukey kinks
            checked += 1
            g = constraint_grad(loss, A, r)
            fd = np.empty(10)
            for i in range(10):
                h = 1e-6 * (1.0 + abs(x[i]))
                e = np.zeros(10)
                e[i] = h
                fd[i] = (constraint_value(loss, b - A @ (x + e))
                         - constraint_value(loss, b - A @ (x - e))) / (2 * h)
            rel = float(np.linalg.norm(g - fd) / max(np.linalg.norm(fd), 1.0))
            worst = max(worst, rel)
    _verdict(9, worst <= 1e-5,
             f"constraint gradient vs central differences, six losses x 50 "
             f"points; worst relative error {worst:.3e} <= 1e-5")


def test_criterion_10_stationarity_certificate(desk_runs):
    runs, _ = desk_runs
    ok = True
    worst_dual = worst_compl = 0.0
    for run in runs:
        if run["status"] != "converged":
            continue
        dual_bound = 1e-2 * (1.0 + run["weight_norm"])
        compl_bound = 1e-2 * run["sigma"]
        worst_dual = max(worst_dual, run["dual_residual"] / dual_bound)
        worst_compl = max(worst_compl, abs(run["complementarity"]) / compl_bound)
        ok = ok and run["dual_residual"] <= dual_bound \
            and abs(run["complementarity"]) <= compl_bound
    _verdict(10, ok,
             f"stationarity certificates at lambda/2: dual residual and "
             f"complementarity within bounds (worst fractions "
             f"{worst_dual:.2f}, {worst_compl:.2e})")


def test_criterion_11_certificate_contract(desk_runs, full_runs):
    runs, _ = desk_runs
    certified_records = [
        h for run in runs for h in run["history"]]
    certified_records += [
        h for run in full_runs if run["engine"] == "admm"
        for h in run["history"]]
    enforced = [h for h in certified_records if h["criteria_enforced"]]
    ok = all(h["kkt_residual"] <= h["eps_k"]
             and h["coupling_residual"] <= h["eps_k"]
             and h["descent_ok"] for h in enforced)
    ok = ok and len(enforced) == len(certified_records)
    _verdict(11, ok,
             f"all {len(enforced)} accepted certificates in certified modes "
             f"satisfy kkt <= eps_k, coupling <= eps_k, descent")
