"""The four workloads, their measured loop and their metrics.

A workload is a fixed panel of base instances (harness seeds below), each
seen through the symmetry the run seed draws (see ``instances.py``).  A
run makes whole rounds over its panel, at least one and as many as fit in
``--seconds``; every round attempts the same solves, so counts and the
share of failed solves do not depend on how many rounds fit.

Metrics come from every round, so that the timings sample the whole
run.  Rounds repeat identical solves, so ``solve_s`` is the median over
the panel of each solve's median repeat; the run's first solve, which
warms the interpreter and numpy, is left out when it is repeated later.
``setup_s`` is the median of every timed setup; API workloads build each
instance ``SETUP_REPEATS`` times per round so that even a one-instance,
one-round run sets up several times.  A workload may solve some panel
members several times per round (``Workload.repeats``), so that its
cheap solves get enough timed repeats beside an expensive one.
"""

import io
import json
import os
import resource
import statistics
from collections import defaultdict
from contextlib import redirect_stdout
from dataclasses import dataclass, field

import numpy as np

import dir_sparse
from dir_sparse import admm, cli, core, fileio, spg

import checks
from instances import DELTA, PENALTY_EPS, make_instance, write_binary, write_csv
from tracer import ProductCounter, Tracer, perf_counter

PAPER = (540, 2560, 80)
DESK = (54, 256, 8)
ROBUST_LOSSES = ("geman-mcclure", "welsh", "pseudo-huber", "huber",
                 "tukey-biweight")


@dataclass(frozen=True)
class Workload:
    shape: tuple
    base_seeds: tuple
    engines: tuple = ()         # run_dir engines; empty means the CLI
    paper_scale: bool = False
    repeats: tuple = ()         # solves of each member per round; default 1


# paper-spg solves harness seed 0 under two symmetries per run: its
# operator passes move by up to 12% with the rounding a symmetry brings,
# while the ADMM passes of paper-admm do not move at all.  robust-cli
# solves its four cheap members 24 times per round and the Tukey member,
# which costs more than the other four together, once.  Its median solve
# is a cheap one; with one repeat per round it got only three or four
# timed repeats in a run, and now a round of about 25 s fills a run and
# gives it 23.
WORKLOADS = {
    "paper-admm": Workload(PAPER, (0,), ("admm",), paper_scale=True),
    "paper-spg": Workload(PAPER, (0, 0), ("spg-blackbox",), paper_scale=True),
    "desk-certified": Workload(DESK, tuple(range(20)), ("admm", "spg")),
    "robust-cli": Workload(DESK, tuple(range(5)), repeats=(24, 24, 24, 24, 1)),
}

SETUP_REPEATS = 2

END_TO_END_UNITS = {
    "setup_s": "s", "solve_s": "s", "solves_per_s": "1/s",
    "operator_passes": "count", "recovery_error": "1", "peak_rss_mb": "MB",
}


@dataclass
class Solve:
    instance: int
    engine: str
    setups: list = field(default_factory=list)  # on the instance's first solve
    solve_s: float = 0.0
    products: int = 0
    recovery_error: float = float("nan")
    traced: bool = False
    failures: list = field(default_factory=list)


def _loss(kind):
    return dir_sparse.LossSpec(dir_sparse.LossKind(kind), DELTA)


class Runner:
    """Runs one workload; holds the instances and the per-solve records."""

    def __init__(self, name, seed, out_dir, tracer=None):
        self.wl = WORKLOADS[name]
        self.out_dir = out_dir
        self.tracer = tracer
        self.solves = []
        self.rounds = 0
        losses = [ROBUST_LOSSES[i % len(ROBUST_LOSSES)] if not self.wl.engines
                  else "cauchy" for i in range(len(self.wl.base_seeds))]
        self.instances = [make_instance(self.wl.shape, base, seed, i, loss)
                          for i, (base, loss) in
                          enumerate(zip(self.wl.base_seeds, losses))]
        self.least_norm = [checks.least_norm_reference(inst.A, inst.b)
                           for inst in self.instances]
        self.instance_failures = {}
        self.files = [self._write_inputs(i) for i in range(len(self.instances))] \
            if not self.wl.engines else []
        self.products = ProductCounter(core.SubproblemData)

    def close(self):
        self.products.close()

    # -- inputs ---------------------------------------------------------
    def _write_inputs(self, i):
        """Alternate the two documented formats across the panel."""
        inst = self.instances[i]
        ext, writer = (".csv", write_csv) if i % 2 == 0 else (".bin", write_binary)
        a_path = os.path.join(self.out_dir, f"A{i}{ext}")
        b_path = os.path.join(self.out_dir, f"b{i}{ext}")
        writer(a_path, inst.A)
        writer(b_path, inst.b)
        return a_path, b_path

    # -- one round --------------------------------------------------------
    def round(self, traced=False):
        """One pass over the panel; ``traced`` marks its solves."""
        first = len(self.solves)
        repeats = self.wl.repeats or (1,) * len(self.instances)
        for rep in range(max(repeats)):
            for i in range(len(self.instances)):
                if rep >= repeats[i]:
                    continue
                if self.wl.engines:
                    self._api_instance(i)
                else:
                    self._cli_instance(i)
        for rec in self.solves[first:]:
            rec.traced = traced
        self.rounds += 1

    def _begin(self, i, engine):
        rec = Solve(instance=i, engine=engine)
        self.solves.append(rec)
        if self.tracer is not None:
            self.tracer.solve_id = len(self.solves) - 1
        return rec

    def _checked_instance(self, i, built):
        """Checks on the built instance, once per run, outside the timing."""
        if i not in self.instance_failures:
            self.instance_failures[i] = checks.check_instance(
                self.instances[i], built, self.least_norm[i])
        return list(self.instance_failures[i])

    def _api_instance(self, i):
        inst = self.instances[i]
        first = len(self.solves)
        recs = [self._begin(i, engine) for engine in self.wl.engines]
        for _ in range(SETUP_REPEATS):
            start = perf_counter()
            try:
                built = core.ProblemInstance.build(
                    inst.A, inst.b, inst.sigma, _loss(inst.loss),
                    dir_sparse.PenaltySpec(PENALTY_EPS))
            except Exception as exc:
                for rec in recs:
                    rec.failures.append(f"build raised {type(exc).__name__}: {exc}")
                return
            recs[0].setups.append(perf_counter() - start)
        inst_failures = self._checked_instance(i, built)
        for solve_id, rec in enumerate(recs, start=first):
            if self.tracer is not None:
                self.tracer.solve_id = solve_id
            before = self.products.count
            start = perf_counter()
            try:
                result = core.run_dir(built, core.DirConfig(engine=rec.engine))
            except Exception as exc:
                rec.failures.append(f"run_dir raised {type(exc).__name__}: {exc}")
                continue
            rec.solve_s = perf_counter() - start
            rec.products = self.products.count - before
            failures, rec.recovery_error = checks.check_answer(
                inst, DELTA, PENALTY_EPS, result.x_final, result.status.value,
                self.least_norm[i], x_retracted=result.x_retracted,
                paper_scale=self.wl.paper_scale)
            rec.failures += inst_failures + failures

    def _cli_instance(self, i):
        inst = self.instances[i]
        rec = self._begin(i, "admm")
        a_path, b_path = self.files[i]
        out_path = os.path.join(self.out_dir, f"result{i}.json")
        hist_path = os.path.join(self.out_dir, f"history{i}.jsonl")
        for path in (out_path, hist_path):
            if os.path.exists(path):
                os.remove(path)
        argv = ["solve", "--matrix", a_path, "--rhs", b_path,
                "--sigma", repr(inst.sigma), "--loss", inst.loss,
                "--delta", repr(DELTA), "--penalty-eps", repr(PENALTY_EPS),
                "--out", out_path, "--history", hist_path]

        # The CLI builds its instance and calls run_dir itself; a stamp on
        # the name it looks up splits setup from solve and keeps the
        # instance for the checks.
        seen = {}
        original = cli.run_dir

        def stamped(instance, *args, **kwargs):
            seen["instance"] = instance
            seen["enter"] = perf_counter()
            return original(instance, *args, **kwargs)

        cli.run_dir = stamped
        before = self.products.count
        start = perf_counter()
        try:
            with redirect_stdout(io.StringIO()):
                code = cli.main(argv)
        except SystemExit as exc:       # argparse rejects its arguments
            code = exc.code
        except Exception as exc:
            rec.failures.append(f"cli raised {type(exc).__name__}: {exc}")
            return
        finally:
            end = perf_counter()
            cli.run_dir = original
        if "enter" not in seen:
            rec.failures.append("cli never reached run_dir")
            return
        rec.setups.append(seen["enter"] - start)
        rec.solve_s = end - seen["enter"]
        rec.products = self.products.count - before
        if code != 0:
            rec.failures.append(f"cli exit code {code}")
            return

        built = seen["instance"]
        failures = self._checked_instance(i, built)
        if not (np.array_equal(built.A, inst.A) and np.array_equal(built.b, inst.b)):
            failures.append("arrays read back differ from the files written")
        try:
            with open(out_path) as fh:
                result = json.load(fh)
            with open(hist_path) as fh:
                lines = [json.loads(line) for line in fh if line.strip()]
            if len(lines) != len(result["history"]) or not lines:
                failures.append("history file does not match the result history")
            more, rec.recovery_error = checks.check_answer(
                inst, DELTA, PENALTY_EPS, np.asarray(result["x"], dtype=float),
                result["status"], self.least_norm[i])
        except (OSError, ValueError, KeyError) as exc:
            more = [f"unreadable CLI output: {type(exc).__name__}: {exc}"]
        rec.failures += failures + more

    # -- metrics ----------------------------------------------------------
    def attempted(self):
        return len(self.solves)

    def failed(self):
        return sum(1 for rec in self.solves if rec.failures)

    def runs(self, traced=False):
        """Records of the untraced (or traced) rounds."""
        return [rec for rec in self.solves if rec.traced == traced]

    def end_to_end(self):
        recs = self.runs()
        done = [rec for rec in recs if not rec.failures]
        setups = [t for rec in recs for t in rec.setups]
        # One setup per instance and round: the build the solves used.
        busy = sum((rec.setups[-1] if rec.setups else 0.0) + rec.solve_s
                   for rec in recs)
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

        def med(values):
            return statistics.median(values) if values else 0.0

        return {
            "setup_s": med(setups),
            "solve_s": med(solve_medians(recs)),
            "solves_per_s": len(done) / busy if busy > 0 else 0.0,
            # Mean per solve, so it equals core.matvec_calls +
            # core.rmatvec_calls of the traced run exactly.
            "operator_passes": (sum(rec.products for rec in done) / len(done)
                                if done else 0.0),
            "recovery_error": med([rec.recovery_error for rec in done]),
            "peak_rss_mb": rss_kb / 1024.0,
        }


def solve_medians(recs):
    """Median repeat of each (instance, engine) solve, over its completed
    repeats.

    The first of ``recs`` is the warm-up and counts only when its solve
    has no other repeat.
    """
    repeats = defaultdict(list)
    for rec in recs:
        repeats[(rec.instance, rec.engine)].append(rec)
    medians = []
    for group in repeats.values():
        if group[0] is recs[0] and len(group) > 1:
            group = group[1:]
        times = [rec.solve_s for rec in group if not rec.failures]
        if times:
            medians.append(statistics.median(times))
    return medians


# --------------------------------------------------------------------------
# Traced run

SPG_ENGINES = ("spg", "spg-blackbox")


def _count_admm(tracer, out):
    cert, _, info = out
    tracer.counts["admm.sweeps"] += info["iterations"]
    tracer.counts["admm.descent_accepted"] += int(bool(cert.descent_ok))


def _count_newton(tracer, out):
    info = out[2]
    tracer.counts["spg.newton_steps"] += info["newton_steps"]
    tracer.counts["spg.escalations"] += info["escalations"]


def _count_lasso(tracer, out):
    tracer.counts["spg.iterations"] += out[2]


def make_tracer() -> Tracer:
    """A tracer for every layer's public functions, on the caller's names.

    ``Tracer.start`` installs the wrappers registered here.
    """
    t = Tracer()
    t.wrap(core.ProblemInstance, "build", "setup.build")
    t.wrap(core, "validate_assumptions", "losses.validate_assumptions")
    t.wrap(core, "least_norm_solution", "linalg.least_norm_solution")
    t.wrap(core, "lambda_max_gram", "linalg.lambda_max_gram")
    t.wrap(np.linalg, "qr", "numpy.linalg.qr")
    t.wrap(core, "constraint_value", "losses.constraint_value")
    t.wrap(core, "constraint_grad", "losses.constraint_grad")
    t.wrap(core, "run_dir", "core.run_dir")
    t.wrap(cli, "run_dir", "core.run_dir")
    t.wrap(core, "build_subproblem", "core.build_subproblem")
    t.wrap(core, "retract", "core.retract")
    t.wrap(core, "stationarity_report", "core.stationarity_report")
    t.wrap(core.SubproblemData, "matvec", "core.matvec")
    t.wrap(core.SubproblemData, "rmatvec", "core.rmatvec")
    t.wrap(core.RunResult, "history_jsonl", "core.history_jsonl")
    t.wrap(admm, "admm_solve", "admm.solve", _count_admm)
    t.wrap(admm, "soft_threshold", "admm.soft_threshold")
    t.wrap(admm, "project_l2_ball", "admm.ball_projection")
    t.wrap(admm, "retract", "admm.descent_check")
    t.wrap(spg, "pareto_newton", "spg.solve", _count_newton)
    t.wrap(spg, "spg_lasso", "spg.lasso", _count_lasso)
    t.wrap(spg, "project_weighted_l1_ball", "spg.projection")
    t.wrap(spg, "retract", "spg.descent_check")
    t.wrap(fileio, "load_matrix", "fileio.load_matrix")
    t.wrap(fileio, "load_vector", "fileio.load_vector")
    t.wrap(fileio, "save_result_json", "fileio.save_result_json")
    t.wrap(cli, "main", "cli.main")
    return t


def layer_metrics(tracer: Tracer, runner: Runner):
    """Per-layer figures, each per solve that entered the layer.

    Times are seconds summed over the run and divided by the number of
    solves (or setups) that entered the layer; counts likewise; ratios
    are taken of run totals.  A layer a workload never enters reads 0.
    """
    calls, total, selft, ctx = tracer.summary({
        "engine": {"admm.solve", "spg.solve", "spg.lasso"},
        "setup": {"setup.build"},
    })
    counts = tracer.counts
    n_build = calls["setup.build"]
    n_solve = calls["core.run_dir"]
    n_cli = calls["cli.main"]
    traced = [rec for rec in runner.solves if rec.traced]
    engines = [rec.engine for rec in traced]
    n_admm = sum(1 for e in engines if e == "admm")
    n_spg = sum(1 for e in engines if e in SPG_ENGINES)

    def per(x, base):
        return x / base if base else 0.0

    def inside(label, parent, name):
        return ctx[(label, parent, name)]

    products = calls["core.matvec"] + calls["core.rmatvec"]
    admm_products = (inside("engine", "admm.solve", "core.matvec")
                     + inside("engine", "admm.solve", "core.rmatvec"))
    traced_solve = statistics.median(solve_medians(runner.runs(True)) or [0.0])
    untraced_solve = statistics.median(solve_medians(runner.runs(False)) or [0.0])
    m = {
        "losses.validate_assumptions_s": per(total["losses.validate_assumptions"], n_build),
        "linalg.least_norm_solution_s": per(total["linalg.least_norm_solution"], n_build),
        "linalg.lambda_max_gram_s": per(total["linalg.lambda_max_gram"], n_build),
        "setup.qr_calls": per(inside("setup", "setup.build", "numpy.linalg.qr"), n_build),
        "setup.build_self_s": per(selft["setup.build"], n_build),
        "fileio.load_s": per(total["fileio.load_matrix"] + total["fileio.load_vector"], n_cli),
        "fileio.save_s": per(total["fileio.save_result_json"], n_cli),
        "core.history_jsonl_s": per(total["core.history_jsonl"], n_cli),
        "cli.self_s": per(selft["cli.main"], n_cli),
        "core.outer_iterations": per(calls["core.build_subproblem"], n_solve),
        "core.build_subproblem_s": per(total["core.build_subproblem"], n_solve),
        "core.retract_s": per(total["core.retract"], n_solve),
        "core.stationarity_report_s": per(total["core.stationarity_report"], n_solve),
        "core.run_dir_self_s": per(selft["core.run_dir"], n_solve),
        "core.matvec_calls": per(calls["core.matvec"], n_solve),
        "core.rmatvec_calls": per(calls["core.rmatvec"], n_solve),
        "core.matvec_s": per(total["core.matvec"], n_solve),
        "core.rmatvec_s": per(total["core.rmatvec"], n_solve),
        "core.passes_outside_engine": per(
            inside("engine", None, "core.matvec")
            + inside("engine", None, "core.rmatvec"), n_solve),
        "admm.solve_s": per(total["admm.solve"], n_admm),
        "admm.self_s": per(selft["admm.solve"], n_admm),
        "admm.sweeps": per(counts["admm.sweeps"], n_admm),
        "admm.passes_per_sweep": per(admm_products, counts["admm.sweeps"]),
        "admm.soft_threshold_s": per(total["admm.soft_threshold"], n_admm),
        "admm.ball_projection_s": per(total["admm.ball_projection"], n_admm),
        "admm.descent_checks": per(calls["admm.descent_check"], n_admm),
        "admm.descent_rejections": per(
            calls["admm.descent_check"] - counts["admm.descent_accepted"], n_admm),
        "spg.solve_s": per(total["spg.solve"], n_spg),
        "spg.newton_steps": per(counts["spg.newton_steps"], n_spg),
        "spg.escalations": per(counts["spg.escalations"], n_spg),
        "spg.lasso_calls": per(calls["spg.lasso"], n_spg),
        "spg.lasso_s": per(total["spg.lasso"], n_spg),
        "spg.lasso_self_s": per(selft["spg.lasso"], n_spg),
        "spg.iterations": per(counts["spg.iterations"], n_spg),
        "spg.projection_calls": per(calls["spg.projection"], n_spg),
        "spg.projection_s": per(total["spg.projection"], n_spg),
        "spg.projections_per_iteration": per(
            inside("engine", "spg.lasso", "spg.projection"), counts["spg.iterations"]),
        "spg.matvec_per_iteration": per(
            inside("engine", "spg.lasso", "core.matvec"), counts["spg.iterations"]),
        "spg.newton_self_s": per(selft["spg.solve"], n_spg),
        "trace.solve_s": traced_solve,
        "trace.overhead_s": traced_solve - untraced_solve,
    }
    # The spans must count the products the counter saw in traced rounds.
    consistent = products == sum(rec.products for rec in traced)
    return m, consistent
