"""Command-line front end: one-off solves and benchmark batches."""

import argparse
import sys

from . import fileio
from .core import DirConfig, ProblemInstance, RunStatus, get_engine, run_dir
from .harness import InstanceSpec, run_batch, write_aggregate_csv, write_trials_json
from .losses import LossKind, LossSpec, PenaltySpec


def _loss_kind(name: str) -> LossKind:
    try:
        return LossKind(name)
    except ValueError:
        choices = ", ".join(k.value for k in LossKind)
        raise argparse.ArgumentTypeError(f"unknown loss {name!r} (choose from {choices})")


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _outer_tol(text: str) -> float:
    value = float(text)
    try:
        DirConfig(outer_tol=value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return value


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
    solve.add_argument("--delta", type=float, default=InstanceSpec.delta,
                       help="loss scale (default %(default)s)")
    solve.add_argument("--penalty-eps", type=float, default=InstanceSpec.epsilon,
                       help="log-penalty parameter (default %(default)s)")
    solve.add_argument("--engine", default=DirConfig.engine,
                       help="subproblem engine: admm|spg|spg-blackbox "
                            "(default %(default)s)")
    solve.add_argument("--tol", type=_outer_tol, default=DirConfig.outer_tol,
                       help="outer relative-step tolerance (default %(default)s)")
    solve.add_argument("--max-outer", type=_positive_int,
                       default=DirConfig.max_outer)
    solve.add_argument("--out", required=True, help="result JSON path")
    solve.add_argument("--history", help="optional per-iteration JSONL path")

    bench = sub.add_parser("bench", help="run the random-instance benchmark")
    bench.add_argument("--m", type=int, default=540)
    bench.add_argument("--n", type=int, default=2560)
    bench.add_argument("--s", type=int, default=80)
    bench.add_argument("--scale", type=_positive_int,
                       help="use (540*i, 2560*i, 80*i) for this i")
    bench.add_argument("--trials", type=_positive_int, default=30)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--engines", default="admm,spg-blackbox",
                       help="comma-separated engine names")
    bench.add_argument("--delta", type=float, default=InstanceSpec.delta)
    bench.add_argument("--penalty-eps", type=float, default=InstanceSpec.epsilon)
    bench.add_argument("--tol", type=_outer_tol, default=DirConfig.outer_tol)
    bench.add_argument("--workers", type=_positive_int, default=1,
                       help="parallel worker processes for trials")
    bench.add_argument("--out", required=True, help="aggregate CSV path")
    bench.add_argument("--trials-json", help="optional per-trial JSON path")
    return parser


def _solve_inputs(args):
    """The solve's loss and penalty; ValueError names a bad argument."""
    get_engine(args.engine)
    return LossSpec(args.loss, args.delta), PenaltySpec(args.penalty_eps)


def _bench_inputs(args):
    """The bench's instance spec and engines; ValueError names a bad one."""
    if args.scale is not None:
        m, n, s = 540 * args.scale, 2560 * args.scale, 80 * args.scale
    else:
        m, n, s = args.m, args.n, args.s
    spec = InstanceSpec(m=m, n=n, s=s, delta=args.delta,
                        epsilon=args.penalty_eps, seed=args.seed)
    engines = [name.strip() for name in args.engines.split(",") if name.strip()]
    if not engines:
        raise ValueError(f"--engines names no engine: {args.engines!r}")
    for name in engines:
        get_engine(name)
    return spec, engines


def _cmd_solve(args, loss, penalty) -> int:
    A = fileio.load_matrix(args.matrix)
    b = fileio.load_vector(args.rhs)
    instance = ProblemInstance.build(A, b, args.sigma, loss, penalty)
    config = DirConfig(engine=args.engine, outer_tol=args.tol,
                       max_outer=args.max_outer)
    result = run_dir(instance, config)
    residual = result.stationarity.primal_feasibility / instance.sigma
    fileio.save_result_json(args.out, result, metrics={"residual": residual})
    if args.history:
        with open(args.history, "w") as fh:
            fh.write(result.history_jsonl() + "\n")
    print(f"status={result.status.value} iterations={len(result.history)} "
          f"residual={residual:.3e} -> {args.out}")
    if result.error is not None:
        print(f"engine {args.engine} raised {result.error}", file=sys.stderr)
    failed = (RunStatus.SUBPROBLEM_FAILURE, RunStatus.CERTIFICATE_VIOLATION,
              RunStatus.ENGINE_ERROR)
    return 1 if result.status in failed else 0


def _cmd_bench(args, spec, engines) -> int:
    config = DirConfig(outer_tol=args.tol)
    records, aggregates = run_batch(spec, engines, args.trials,
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
    solve = args.command == "solve"
    # Bad arguments exit with 2 before any file is read or any trial runs.
    try:
        inputs = _solve_inputs(args) if solve else _bench_inputs(args)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    return (_cmd_solve if solve else _cmd_bench)(args, *inputs)


if __name__ == "__main__":
    sys.exit(main())
