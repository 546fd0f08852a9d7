"""Benchmark entry point.

    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmark/run.py --workload all --seed N --seconds S

One workload per process.  ``--trace 0`` prints the end-to-end metrics;
``--trace 1`` prints the per-layer metrics of a traced run, whose rounds
alternate untraced and traced.  ``--workload all`` runs every workload,
untraced and then traced, each in its own child process one after
another, and prints a table with the tracing overhead.
The last line of a single-workload run is one JSON object with the keys
correct, attempted, failed and metrics.
"""

import os

# One BLAS/OpenMP thread, fixed before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import shutil
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_ROOT = os.path.join(ROOT, ".benchmark_out")
NAMES = ("paper-admm", "paper-spg", "desk-certified", "robust-cli")


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=NAMES + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def environment():
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def _unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_per_sweep"):
        return "count/sweep"
    if name.endswith("_per_iteration"):
        return "count/iter"
    return "count"


def run_one(args) -> int:
    # Measure the checkout's own source, never an installed copy.
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "dir_sparse", "__init__.py")):
        print(f"no dir_sparse sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import workloads

    work = os.path.join(OUT_ROOT, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    print("env " + json.dumps(environment()), flush=True)

    # A traced run alternates untraced and traced rounds in this process,
    # so the tracing overhead is measured in the same machine state.
    tracer = workloads.make_tracer() if args.trace else None
    runner = workloads.Runner(args.workload, args.seed, work, tracer)
    try:
        start = perf_counter()
        while True:
            traced = tracer is not None and runner.rounds % 2 == 1
            began = perf_counter()
            if traced:
                tracer.start()
            try:
                runner.round(traced)
            finally:
                if traced:
                    tracer.stop()
            now = perf_counter()
            enough = tracer is None or runner.rounds >= 2
            if enough and (now - start) + (now - began) > args.seconds:
                break
    finally:
        runner.close()

    correct = True
    for rec in runner.solves:
        for msg in rec.failures:
            print(f"FAILED solve instance={rec.instance} engine={rec.engine}: {msg}",
                  file=sys.stderr)
            correct = False
    if tracer is None:
        values = runner.end_to_end()
        units = workloads.END_TO_END_UNITS
    else:
        values, consistent = workloads.layer_metrics(tracer, runner)
        units = {name: _unit(name) for name in values}
        if not consistent:
            print("traced product count differs from the product counter",
                  file=sys.stderr)
            correct = False
        trace_path = os.path.join(OUT_ROOT, f"trace-{args.workload}-seed{args.seed}.npz")
        tracer.write(trace_path)
        print(f"spans {len(tracer.codes)} -> {trace_path}")
    shutil.rmtree(work, ignore_errors=True)

    print(f"workload {args.workload} seed {args.seed} trace {args.trace} "
          f"rounds {runner.rounds}")
    for name, value in values.items():
        print(f"  {name:34s} {value:.6g} {units[name]}")
    print(f"  attempted {runner.attempted()} failed {runner.failed()}")
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted(),
        "failed": runner.failed(),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in values.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload, untraced then traced, one child process at a time."""
    status = 0
    rows = []
    for name in NAMES:
        results = {}
        for trace in (0, 1):
            cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace)]
            proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
            sys.stdout.write(proc.stdout)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} trace={trace}: exit code {proc.returncode}",
                      file=sys.stderr)
                status = 1
                break
            results[trace] = json.loads(lines[-1])
            if not results[trace]["correct"] or results[trace]["failed"]:
                status = 1
        if len(results) == 2:
            overhead = results[1]["metrics"]["trace.overhead_s"]["value"]
            base = results[1]["metrics"]["trace.solve_s"]["value"] - overhead
            rows.append((name, results[0], overhead, base))
    print("\nsummary (end-to-end metrics from the untraced run)")
    for name, res, overhead, base in rows:
        print(f"{name}: attempted {res['attempted']} failed {res['failed']} "
              f"correct {res['correct']}")
        for metric, v in res["metrics"].items():
            print(f"  {metric:16s} {v['value']:.6g} {v['unit']}")
        print(f"  tracing overhead on solve_s: {overhead:+.4g} s "
              f"({overhead / base:+.1%})" if base else "")
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
