import csv
import json
import math

import numpy as np
import pytest

from dir_sparse import (DirConfig, InstanceSpec, RunStatus, compute_metrics,
                        generate_instance, register_engine, run_batch, run_dir,
                        run_trial)
from dir_sparse import harness
from dir_sparse.harness import (AGGREGATE_COLUMNS, NOISE_SCALE, SIGMA_FACTOR,
                                _draw_instance_data,
                                aggregate_records, write_aggregate_csv,
                                write_trials_json)

TINY = dict(m=16, n=48, s=3)


class TestSpecValidation:
    def test_bad_shapes(self):
        with pytest.raises(ValueError):
            InstanceSpec(m=10, n=10, s=2)      # need m < n
        with pytest.raises(ValueError):
            InstanceSpec(m=5, n=10, s=11)      # s > n
        with pytest.raises(ValueError):
            InstanceSpec(m=5, n=10, s=0)

    def test_bad_scales(self):
        with pytest.raises(ValueError):
            InstanceSpec(m=5, n=10, s=2, delta=0.0)

    @pytest.mark.parametrize("seed", [-1, 1.5, True, "3", None])
    def test_bad_seed(self, seed):
        with pytest.raises(ValueError, match="seed must be a non-negative "
                                             "integer"):
            InstanceSpec(seed=seed, **TINY)

    def test_numpy_integer_seed(self):
        assert InstanceSpec(seed=np.int64(7), **TINY).seed == 7


class TestGeneration:
    def test_deterministic(self):
        spec = InstanceSpec(seed=42, **TINY)
        a1, x1 = generate_instance(spec)
        a2, x2 = generate_instance(spec)
        assert np.array_equal(a1.A, a2.A)
        assert np.array_equal(a1.b, a2.b)
        assert a1.sigma == a2.sigma
        assert np.array_equal(x1, x2)

    def test_different_seeds_differ(self):
        a1, _ = generate_instance(InstanceSpec(seed=0, **TINY))
        a2, _ = generate_instance(InstanceSpec(seed=1, **TINY))
        assert not np.array_equal(a1.A, a2.A)

    def test_zero_noise_rejected(self, monkeypatch):
        monkeypatch.setattr(harness, "NOISE_SCALE", 0.0)
        with pytest.raises(ValueError, match="assumptions"):
            generate_instance(InstanceSpec(seed=0, **TINY))

    def test_support_size_and_noise_identity(self):
        spec = InstanceSpec(seed=7, **TINY)
        inst, x_orig = generate_instance(spec)
        assert int(np.count_nonzero(x_orig)) == spec.s
        # the noise is reconstructible exactly by replaying the stream; the
        # difference b - A x_orig recovers it up to one add/subtract rounding
        A, x2, eta = _draw_instance_data(spec)
        assert np.array_equal(A, inst.A)
        assert np.array_equal(x2, x_orig)
        signal = inst.A @ x_orig
        atol = 64 * np.finfo(float).eps * float(np.abs(signal).max())
        np.testing.assert_allclose(inst.b - signal, NOISE_SCALE * eta,
                                   rtol=0, atol=atol)

    def test_sigma_formula(self):
        spec = InstanceSpec(seed=3, **TINY)
        inst, x_orig = generate_instance(spec)
        noise = inst.b - inst.A @ x_orig
        expected = SIGMA_FACTOR * float(
            np.sum(np.log1p((noise / spec.delta) ** 2)))
        assert inst.sigma == pytest.approx(expected, rel=1e-12)

    def test_instance_passes_assumptions(self):
        # construction validates; reaching here without raising is the check
        inst, _ = generate_instance(InstanceSpec(seed=11, m=54, n=256, s=8))
        assert inst.is_feasible(inst.least_norm)


class TestSamplers:
    def test_cauchy_median(self):
        # median of |standard Cauchy| is 1; same inverse-CDF recipe as the
        # generator's noise stream
        rng = np.random.default_rng(123)
        u = rng.random(100_000)
        eta = np.tan(np.pi * (u - 0.5))
        med = float(np.median(np.abs(eta)))
        assert 0.97 <= med <= 1.03

    def test_gaussian_moments(self):
        rng = np.random.default_rng(321)
        z = rng.standard_normal(100_000)
        assert abs(z.mean()) <= 4.0 / math.sqrt(100_000)
        assert 0.95 <= z.var() <= 1.05


class TestMetrics:
    def test_exact_recovery(self):
        spec = InstanceSpec(seed=5, **TINY)
        inst, x_orig = generate_instance(spec)
        result = run_dir(inst, DirConfig(engine="admm", max_outer=1,
                                         outer_tol=1e9))
        result.x_final = x_orig.copy()
        m = compute_metrics(result, inst, x_orig)
        assert m.recovery_error == 0.0
        assert m.success

    def test_residual_formula(self):
        spec = InstanceSpec(seed=6, **TINY)
        inst, x_orig = generate_instance(spec)
        result = run_dir(inst, DirConfig(engine="admm", max_outer=1,
                                         outer_tol=1e9))
        zeta = result.x_final
        m = compute_metrics(result, inst, x_orig)
        r = inst.b - inst.A @ zeta
        expected = (float(np.sum(np.log1p((r / spec.delta) ** 2)))
                    - inst.sigma) / inst.sigma
        assert m.residual == pytest.approx(expected, rel=1e-12)
        # a point with active constraint has residual 0 by definition
        assert compute_metrics(result, inst, x_orig).residual \
            == pytest.approx((inst.constraint(zeta) - inst.sigma) / inst.sigma)


class TestTrialsAndBatch:
    def test_single_trial_record(self):
        spec = InstanceSpec(seed=1, **TINY)
        rec = run_trial(spec, DirConfig(engine="admm"))
        assert rec.engine == "admm"
        assert rec.seed == 1
        assert rec.status == RunStatus.CONVERGED.value
        assert rec.recovery_error >= 0.0
        assert rec.outer_iterations >= 1
        assert rec.total_inner_iterations >= rec.outer_iterations
        assert rec.wall_seconds > 0
        assert rec.L_value > 0 and rec.setup_seconds > 0

    def test_operator_passes_sum_history(self):
        spec = InstanceSpec(seed=1, **TINY)
        rec = run_trial(spec, DirConfig(engine="spg"))
        result = run_dir(generate_instance(spec)[0], DirConfig(engine="spg"))
        assert rec.operator_passes == sum(
            h["matvec_calls"] + h["rmatvec_calls"] for h in result.history) > 0

    def test_batch_single_trial_aggregate_equals_record(self):
        spec = InstanceSpec(seed=2, **TINY)
        records, rows = run_batch(spec, ["admm"], trials_per_spec=1)
        assert len(records) == 1 and len(rows) == 1
        rec, row = records[0], rows[0]
        assert row["engine"] == "admm"
        assert row["success_pct"] == (100.0 if rec.success else 0.0)
        key = "iter_s" if rec.success else "iter_f"
        assert row[key] == rec.total_inner_iterations
        assert row["res_min"] == row["res_max"] == rec.residual

    def test_batch_seeds_increment(self):
        spec = InstanceSpec(seed=10, **TINY)
        records, _ = run_batch(spec, ["admm"], trials_per_spec=3)
        assert [r.seed for r in records] == [10, 11, 12]

    def test_batch_parallel_matches_serial(self):
        spec = InstanceSpec(seed=4, **TINY)
        serial, _ = run_batch(spec, ["admm"], trials_per_spec=2)
        parallel, _ = run_batch(spec, ["admm"], trials_per_spec=2,
                                  max_workers=2)
        for a, b in zip(serial, parallel):
            assert a.seed == b.seed
            assert a.recovery_error == b.recovery_error
            assert a.residual == b.residual

    def test_failures_recorded_not_raised(self):
        spec = InstanceSpec(seed=5, **TINY)
        records, rows = run_batch(spec, ["no-such-engine"], trials_per_spec=2)
        assert all(r.status == "error" for r in records)
        assert all(not r.success for r in records)
        assert all("unknown engine" in r.error for r in records)
        assert all(r.operator_passes == 0 for r in records)
        assert rows[0]["success_pct"] == 0.0
        assert rows[0]["res_min"] is None

    def test_engine_error_recorded(self):
        def raising_solve(sub, warm):
            raise RuntimeError("boom")

        register_engine("raise-trial-test", raising_solve, certified=False)
        rec = run_trial(InstanceSpec(seed=5, **TINY),
                        DirConfig(engine="raise-trial-test"))
        assert rec.status == "engine-error" and rec.error == "RuntimeError: boom"
        assert rec.outer_iterations == 0 and rec.operator_passes == 0

    def test_aggregation_is_pure_fold(self):
        spec = InstanceSpec(seed=6, **TINY)
        records, rows = run_batch(spec, ["admm"], trials_per_spec=2)
        again = aggregate_records(spec, ["admm"], records, 2)
        assert rows == again

    def test_csv_schema(self, tmp_path):
        spec = InstanceSpec(seed=7, **TINY)
        _, rows = run_batch(spec, ["admm"], trials_per_spec=1)
        out = tmp_path / "agg.csv"
        write_aggregate_csv(rows, out)
        with open(out, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            assert header == list(AGGREGATE_COLUMNS)
            assert header == ["i", "engine", "success_pct", "iter_s", "iter_f",
                              "cpu_s", "cpu_f", "recerr_s", "recerr_f",
                              "res_min", "res_max"]
            assert len(list(reader)) == 1

    def test_trials_json_roundtrip(self, tmp_path):
        spec = InstanceSpec(seed=8, **TINY)
        records, _ = run_batch(spec, ["admm"], trials_per_spec=1)
        out = tmp_path / "trials.json"
        write_trials_json(records, out)
        loaded = json.loads(out.read_text())
        assert loaded[0]["seed"] == records[0].seed
        assert loaded[0]["recovery_error"] == records[0].recovery_error
        assert set(loaded[0]) == {
            "seed", "engine", "success", "recovery_error", "residual",
            "outer_iterations", "total_inner_iterations", "wall_seconds",
            "L_value", "setup_seconds", "operator_passes", "status", "error"}

    def test_scale_index_family(self):
        spec = InstanceSpec(m=540, n=2560, s=80, seed=0)
        records = [run_trial(InstanceSpec(seed=0, **TINY),
                             DirConfig(engine="admm"))]
        rows = aggregate_records(spec, ["admm"], records, 1)
        assert rows[0]["i"] == 1
        double = InstanceSpec(m=1080, n=5120, s=160, seed=0)
        assert aggregate_records(double, ["admm"], records, 1)[0]["i"] == 2
        other = InstanceSpec(seed=0, **TINY)
        rows = aggregate_records(other, ["admm"], records, 1)
        assert rows[0]["i"] == 1  # any shape outside the family
