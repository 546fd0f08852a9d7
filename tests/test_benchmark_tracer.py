"""The benchmark's tracer still fits the code it wraps.

``benchmark/workloads.py`` wraps functions by the names their callers look
up and reads fixed positions of what they return.  A renamed function
makes ``Tracer.start`` fail, and a reordered return value shows up in the
counts below.  The benchmark's files are only imported, never changed.
"""

import importlib
import os

import pytest

from dir_sparse import DirConfig, RunStatus, core

BENCHMARK_DIR = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "benchmark")
ENGINES = ("admm", "spg", "spg-blackbox")


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(BENCHMARK_DIR)
    return importlib.import_module("workloads")


def test_traced_desk_solves(workloads, desk_instance):
    inst, _ = desk_instance
    tracer = workloads.make_tracer()
    tracer.start()
    try:
        results = {engine: core.run_dir(inst, DirConfig(engine=engine))
                   for engine in ENGINES}
    finally:
        tracer.stop()
    assert all(res.status is RunStatus.CONVERGED for res in results.values())

    def total(engines, key):
        return sum(rec[key] for engine in engines
                   for rec in results[engine].history)

    counts = tracer.counts
    spg = ("spg", "spg-blackbox")
    assert counts["admm.sweeps"] == total(["admm"], "inner_iterations")
    assert counts["spg.iterations"] == total(spg, "inner_iterations")
    assert counts["spg.newton_steps"] == total(spg, "newton_steps")
    assert all(type(counts[key]) is int
               for key in ("admm.sweeps", "spg.iterations", "spg.newton_steps"))

    calls, _, _, ctx = tracer.summary({"engine": {"admm.solve", "spg.solve"}})
    assert calls["core.run_dir"] == len(ENGINES)
    assert calls["core.build_subproblem"] == sum(
        len(res.history) for res in results.values())
    assert calls["core.matvec"] == total(ENGINES, "matvec_calls")
    assert calls["core.rmatvec"] == total(ENGINES, "rmatvec_calls")
    # Every product is spent inside an engine.
    assert ctx[("engine", None, "core.matvec")] == 0
    assert ctx[("engine", None, "core.rmatvec")] == 0

    # core reads the constraint and its gradient through the losses
    # functions, and each certificate retracts through core.retract: one
    # constraint test per subproblem and per retracted point, one at the
    # start and one in each stationarity report.
    outer = [len(res.history) for res in results.values()]
    assert calls["losses.constraint_value"] == sum(2 * k + 2 for k in outer)
    assert calls["losses.constraint_grad"] == len(ENGINES)
    assert calls["core.retract"] >= sum(outer)
