"""Experiment harness: seeded instance generation, metrics, batch runs.

Instances follow the heavy-tailed sparse-recovery protocol: Gaussian
measurement matrix, Gaussian values on a uniformly drawn support, and
standard Cauchy measurement noise, with the constraint level set to a
fixed multiple of the Cauchy loss of the pure noise.  The random stream
order is fixed (matrix row-major, then support, then signal values, then
noise uniforms) so records are bit-reproducible from the seed.
"""

import csv
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, asdict, replace
from typing import Optional

import numpy as np

from .core import DirConfig, ProblemInstance, RunResult, run_dir
from .losses import LossKind, LossSpec, PenaltySpec

SUCCESS_RECOVERY_ERROR = 0.01
# noise = NOISE_SCALE * standard Cauchy; sigma = SIGMA_FACTOR * loss(noise).
NOISE_SCALE = 0.01
SIGMA_FACTOR = 1.2

AGGREGATE_COLUMNS = ("i", "engine", "success_pct", "iter_s", "iter_f",
                     "cpu_s", "cpu_f", "recerr_s", "recerr_f",
                     "res_min", "res_max")


@dataclass(frozen=True)
class InstanceSpec:
    """Shape and scales of one random instance family."""

    m: int
    n: int
    s: int
    delta: float = 0.05
    epsilon: float = PenaltySpec.epsilon
    seed: int = 0

    def __post_init__(self):
        # bool is an int, but not a seed.
        if isinstance(self.seed, bool) \
                or not isinstance(self.seed, (int, np.integer)) or self.seed < 0:
            raise ValueError(
                f"seed must be a non-negative integer, got {self.seed!r}")
        if not (0 < self.s <= self.n):
            raise ValueError("need 0 < s <= n")
        if not (0 < self.m < self.n):
            raise ValueError("need 0 < m < n")
        # The loss and the penalty own their scale checks.
        LossSpec(LossKind.CAUCHY, self.delta)
        PenaltySpec(self.epsilon)


@dataclass(frozen=True)
class TrialRecord:
    """Per-trial measurements; the aggregate table is a pure fold of these."""

    seed: int
    engine: str
    success: bool
    recovery_error: float
    residual: float
    outer_iterations: int
    total_inner_iterations: int
    wall_seconds: float
    L_value: float
    setup_seconds: float         # ProblemInstance.build: QR, checks, caches
    operator_passes: int         # matvec_calls + rmatvec_calls over the run
    status: str
    error: Optional[str] = None


@dataclass(frozen=True)
class Metrics:
    recovery_error: float
    residual: float
    success: bool


def _draw_instance_data(spec: InstanceSpec):
    """Raw draws in the documented stream order."""
    rng = np.random.default_rng(spec.seed)
    A = rng.standard_normal((spec.m, spec.n))
    support = rng.choice(spec.n, size=spec.s, replace=False)
    values = rng.standard_normal(spec.s)
    u = rng.random(spec.m)
    eta = np.tan(np.pi * (u - 0.5))     # standard Cauchy via inverse CDF
    x_orig = np.zeros(spec.n)
    x_orig[support] = values
    return A, x_orig, eta


def _problem_data(spec: InstanceSpec):
    """Arguments of ProblemInstance.build for ``spec``, and x_orig."""
    A, x_orig, eta = _draw_instance_data(spec)
    noise = NOISE_SCALE * eta
    b = A @ x_orig + noise
    loss = LossSpec(LossKind.CAUCHY, spec.delta)
    sigma = SIGMA_FACTOR * float(np.sum(loss.value(noise * noise)))
    return (A, b, sigma, loss, PenaltySpec(spec.epsilon)), x_orig


def generate_instance(spec: InstanceSpec):
    """Deterministically generate (instance, x_orig) for the given spec."""
    data, x_orig = _problem_data(spec)
    return ProblemInstance.build(*data), x_orig


def compute_metrics(result: RunResult, instance: ProblemInstance,
                    x_orig: np.ndarray) -> Metrics:
    """Recovery error, relative constraint residual, and the success flag."""
    rec = float(np.linalg.norm(result.x_final - x_orig)
                / max(float(np.linalg.norm(x_orig)), 1.0))
    res = result.stationarity.primal_feasibility / instance.sigma
    return Metrics(recovery_error=rec, residual=res,
                   success=rec <= SUCCESS_RECOVERY_ERROR)


def run_trial(spec: InstanceSpec, config: DirConfig) -> TrialRecord:
    """Generate the instance for ``spec``, solve it with ``config``, record."""
    data, x_orig = _problem_data(spec)
    tic = time.perf_counter()
    instance = ProblemInstance.build(*data)
    setup = time.perf_counter() - tic
    tic = time.perf_counter()
    result = run_dir(instance, config)
    wall = time.perf_counter() - tic
    metrics = compute_metrics(result, instance, x_orig)
    return TrialRecord(
        seed=spec.seed, engine=config.engine, success=metrics.success,
        recovery_error=metrics.recovery_error, residual=metrics.residual,
        outer_iterations=len(result.history),
        total_inner_iterations=sum(h["inner_iterations"] for h in result.history),
        wall_seconds=wall, L_value=instance.gram_lmax, setup_seconds=setup,
        operator_passes=sum(h["matvec_calls"] + h["rmatvec_calls"]
                            for h in result.history),
        status=result.status.value, error=result.error)


def _trial_task(args):
    spec, config = args
    try:
        return run_trial(spec, config)
    except Exception as exc:  # record, never abort the batch
        return TrialRecord(
            seed=spec.seed, engine=config.engine, success=False,
            recovery_error=float("nan"), residual=float("nan"),
            outer_iterations=0, total_inner_iterations=0, wall_seconds=0.0,
            L_value=float("nan"), setup_seconds=0.0, operator_passes=0,
            status="error", error=f"{type(exc).__name__}: {exc}")


def run_batch(spec: InstanceSpec, engines, trials_per_spec: int,
              config: Optional[DirConfig] = None, max_workers: int = 1):
    """Run ``trials_per_spec`` seeded trials of ``spec`` with each engine.

    Trial t uses seed ``spec.seed + t`` and ``config`` (default
    ``DirConfig()``) with its engine replaced.  Trials are independent;
    with ``max_workers > 1`` they are dispatched to worker processes and
    merged back in task order.  Returns ``(records, aggregate_rows)``
    where the aggregate rows follow AGGREGATE_COLUMNS, one per engine.
    """
    config = config or DirConfig()
    tasks = [(replace(spec, seed=spec.seed + t), replace(config, engine=engine))
             for engine in engines for t in range(trials_per_spec)]

    if max_workers > 1:
        with ProcessPoolExecutor(max_workers=max_workers) as pool:
            records = list(pool.map(_trial_task, tasks))
    else:
        records = [_trial_task(task) for task in tasks]

    aggregates = aggregate_records(spec, engines, records, trials_per_spec)
    return records, aggregates


def _mean(vals):
    return float(np.mean(vals)) if vals else None


def aggregate_records(spec, engines, records, trials_per_spec):
    """Fold trial records into one row per engine.

    Column ``i`` is the scale index of the (540 i, 2560 i) family and 1
    for any other shape.
    """
    family = spec.m % 540 == 0 and spec.n == (spec.m // 540) * 2560
    rows = []
    for pos, engine in enumerate(engines):
        chunk = records[pos * trials_per_spec:(pos + 1) * trials_per_spec]
        succ = [r for r in chunk if r.success]
        fail = [r for r in chunk if not r.success]
        valid = [r for r in chunk if r.status != "error"]
        rows.append({
            "i": spec.m // 540 if family else 1,
            "engine": engine,
            "success_pct": 100.0 * len(succ) / max(len(chunk), 1),
            "iter_s": _mean([r.total_inner_iterations for r in succ]),
            "iter_f": _mean([r.total_inner_iterations for r in fail]),
            "cpu_s": _mean([r.wall_seconds for r in succ]),
            "cpu_f": _mean([r.wall_seconds for r in fail]),
            "recerr_s": _mean([r.recovery_error for r in succ]),
            "recerr_f": _mean([r.recovery_error for r in fail]),
            "res_min": min((r.residual for r in valid), default=None),
            "res_max": max((r.residual for r in valid), default=None),
        })
    return rows


def write_aggregate_csv(rows, path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=AGGREGATE_COLUMNS)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: ("" if row[k] is None else row[k])
                             for k in AGGREGATE_COLUMNS})


def write_trials_json(records, path) -> None:
    import json
    with open(path, "w") as fh:
        json.dump([asdict(rec) for rec in records], fh, indent=2)
        fh.write("\n")
