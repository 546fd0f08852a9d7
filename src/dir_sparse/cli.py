"""Command-line front end: one-off solves and benchmark batches."""

import argparse
import sys

from . import fileio
from .core import DirConfig, ProblemInstance, RunStatus, available_engines, run_dir
from .harness import InstanceSpec, run_batch, write_aggregate_csv, write_trials_json
from .losses import LossKind, LossSpec, PenaltySpec


def _loss_kind(name: str) -> LossKind:
    try:
        return LossKind(name)
    except ValueError:
        choices = ", ".join(k.value for k in LossKind)
        raise argparse.ArgumentTypeError(f"unknown loss {name!r} (choose from {choices})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dir-sparse",
        description="Sparse recovery with concave losses via doubly "
                    "reweighted subproblems.")
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve one instance from files")
    solve.add_argument("--matrix", required=True, help="measurement matrix file")
    solve.add_argument("--rhs", required=True, help="measurement vector file")
    solve.add_argument("--sigma", type=float, required=True,
                       help="constraint level")
    solve.add_argument("--loss", type=_loss_kind, default=LossKind.CAUCHY,
                       help="loss kind (default cauchy)")
    solve.add_argument("--delta", type=float, default=0.05,
                       help="loss scale (default 0.05)")
    solve.add_argument("--penalty-eps", type=float, default=0.1,
                       help="log-penalty parameter (default 0.1)")
    solve.add_argument("--engine", default="admm",
                       help="subproblem engine: admm|spg|spg-blackbox")
    solve.add_argument("--tol", type=float, default=1e-4,
                       help="outer relative-step tolerance")
    solve.add_argument("--max-outer", type=int, default=1000)
    solve.add_argument("--out", required=True, help="result JSON path")
    solve.add_argument("--history", help="optional per-iteration JSONL path")

    bench = sub.add_parser("bench", help="run the random-instance benchmark")
    bench.add_argument("--m", type=int, default=540)
    bench.add_argument("--n", type=int, default=2560)
    bench.add_argument("--s", type=int, default=80)
    bench.add_argument("--scale", type=int,
                       help="use (540*i, 2560*i, 80*i) for this i")
    bench.add_argument("--trials", type=int, default=30)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--engines", default="admm,spg-blackbox",
                       help="comma-separated engine names")
    bench.add_argument("--delta", type=float, default=0.05)
    bench.add_argument("--penalty-eps", type=float, default=0.1)
    bench.add_argument("--tol", type=float, default=1e-4)
    bench.add_argument("--workers", type=int, default=1,
                       help="parallel worker processes for trials")
    bench.add_argument("--out", required=True, help="aggregate CSV path")
    bench.add_argument("--trials-json", help="optional per-trial JSON path")
    return parser


def _engines_known(names) -> bool:
    """Report the first unregistered engine name on stderr; False if any."""
    known = available_engines()
    for name in names:
        if name not in known:
            print(f"unknown engine {name!r}; available: {known}", file=sys.stderr)
            return False
    return True


def _cmd_solve(args) -> int:
    if not _engines_known([args.engine]):
        return 2
    A = fileio.load_matrix(args.matrix)
    b = fileio.load_vector(args.rhs)
    loss = LossSpec(args.loss, args.delta)
    penalty = PenaltySpec(args.penalty_eps)
    instance = ProblemInstance.build(A, b, args.sigma, loss, penalty)
    config = DirConfig(engine=args.engine, outer_tol=args.tol,
                       max_outer=args.max_outer)
    result = run_dir(instance, config)
    residual = (instance.constraint(result.x_final) - instance.sigma) / instance.sigma
    fileio.save_result_json(args.out, result, metrics={"residual": residual})
    if args.history:
        with open(args.history, "w") as fh:
            fh.write(result.history_jsonl() + "\n")
    print(f"status={result.status.value} iterations={len(result.history)} "
          f"residual={residual:.3e} -> {args.out}")
    failed = (RunStatus.SUBPROBLEM_FAILURE, RunStatus.CERTIFICATE_VIOLATION)
    return 1 if result.status in failed else 0


def _cmd_bench(args) -> int:
    if args.scale is not None:
        m, n, s = 540 * args.scale, 2560 * args.scale, 80 * args.scale
    else:
        m, n, s = args.m, args.n, args.s
    spec = InstanceSpec(m=m, n=n, s=s, delta=args.delta,
                        epsilon=args.penalty_eps, seed=args.seed)
    engines = [name.strip() for name in args.engines.split(",") if name.strip()]
    if not _engines_known(engines):
        return 2
    config = DirConfig(outer_tol=args.tol)
    records, aggregates = run_batch([spec], engines, args.trials,
                                    config=config, max_workers=args.workers)
    write_aggregate_csv(aggregates, args.out)
    if args.trials_json:
        write_trials_json(records, args.trials_json)
    for row in aggregates:
        print(f"engine={row['engine']} success={row['success_pct']:.0f}% "
              f"recerr_s={row['recerr_s']} res=[{row['res_min']}, {row['res_max']}]")
    print(f"-> {args.out}")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "solve":
        return _cmd_solve(args)
    return _cmd_bench(args)


if __name__ == "__main__":
    sys.exit(main())
