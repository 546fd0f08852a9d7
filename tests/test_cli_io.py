import json
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from dir_sparse import InstanceSpec, generate_instance
from dir_sparse import fileio
from dir_sparse.cli import main


class TestArrayFormats:
    def test_csv_roundtrip_matrix(self, tmp_path):
        M = np.array([[1.5, -2.25, 3.125], [0.0, 1e-17, -4.75]])
        path = tmp_path / "m.csv"
        fileio.write_array_csv(path, M)
        np.testing.assert_array_equal(fileio.read_array_csv(path), M)
        first = path.read_text().splitlines()[0]
        assert first == "2,3"

    def test_csv_roundtrip_vector(self, tmp_path):
        v = np.array([1.0, -2.0, 3.5])
        path = tmp_path / "v.csv"
        fileio.write_array_csv(path, v.reshape(-1, 1))
        np.testing.assert_array_equal(fileio.load_vector(path), v)

    def test_binary_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        M = rng.standard_normal((7, 4))
        path = tmp_path / "m.bin"
        fileio.write_array_binary(path, M)
        np.testing.assert_array_equal(fileio.read_array_binary(path), M)

    def test_sniffing(self, tmp_path):
        M = np.array([[2.0, 3.0]])
        csv_path = tmp_path / "a.dat"
        bin_path = tmp_path / "b.dat"
        fileio.write_array_csv(csv_path, M)
        fileio.write_array_binary(bin_path, M)
        np.testing.assert_array_equal(fileio.load_array(csv_path), M)
        np.testing.assert_array_equal(fileio.load_array(bin_path), M)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.bin"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 24)
        with pytest.raises(ValueError, match="magic"):
            fileio.read_array_binary(path)

    def test_binary_short_header(self, tmp_path):
        path = tmp_path / "short.bin"
        path.write_bytes(fileio.MAGIC + b"\x03\x00\x00\x00\x00")
        with pytest.raises(ValueError, match=re.escape(str(path)) + ".*header"):
            fileio.read_array_binary(path)

    def test_binary_absurd_dimensions(self, tmp_path):
        path = tmp_path / "huge.bin"
        dims = (2 ** 32).to_bytes(8, "little") * 2
        path.write_bytes(fileio.MAGIC + dims + b"\x00" * 16)
        with pytest.raises(ValueError, match=re.escape(str(path))):
            fileio.read_array_binary(path)

    def test_binary_short_payload(self, tmp_path):
        path = tmp_path / "cut.bin"
        fileio.write_array_binary(path, np.ones((3, 2)))
        path.write_bytes(path.read_bytes()[:-8])
        with pytest.raises(ValueError, match=re.escape(str(path))):
            fileio.read_array_binary(path)

    def test_header_mismatch(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("2,2\n1.0,2.0\n")
        with pytest.raises(ValueError):
            fileio.read_array_csv(path)

    def test_not_a_vector(self, tmp_path):
        path = tmp_path / "m.csv"
        fileio.write_array_csv(path, np.ones((3, 3)))
        with pytest.raises(ValueError, match="vector"):
            fileio.load_vector(path)


@pytest.fixture(scope="module")
def roundtrip_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("roundtrip")


@settings(max_examples=60, deadline=None)
@given(arr=hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2,
                                                   max_side=6)),
       binary=st.booleans())
def test_array_file_roundtrip(roundtrip_dir, arr, binary):
    path = roundtrip_dir / ("a.bin" if binary else "a.csv")
    write = fileio.write_array_binary if binary else fileio.write_array_csv
    write(path, arr)
    got = fileio.load_array(path)
    assert got.shape == arr.shape
    np.testing.assert_array_equal(got, arr)
    # CSV writes every NaN as "nan", so only the signs of numbers must survive.
    num = ~np.isnan(arr)
    np.testing.assert_array_equal(np.signbit(got[num]), np.signbit(arr[num]))


@pytest.fixture(scope="module")
def instance_files(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli")
    inst, x_orig = generate_instance(InstanceSpec(m=16, n=48, s=3, seed=0))
    a_path = tmp / "A.csv"
    b_path = tmp / "b.bin"
    fileio.write_array_csv(a_path, inst.A)
    fileio.write_array_binary(b_path, inst.b.reshape(-1, 1))
    return tmp, inst, a_path, b_path


class TestSolveCli:
    def test_solve_writes_result_json(self, instance_files):
        tmp, inst, a_path, b_path = instance_files
        out = tmp / "result.json"
        hist = tmp / "history.jsonl"
        rc = main(["solve", "--matrix", str(a_path), "--rhs", str(b_path),
                   "--sigma", str(inst.sigma), "--loss", "cauchy",
                   "--delta", "0.05", "--penalty-eps", "0.1",
                   "--engine", "admm", "--tol", "1e-4",
                   "--out", str(out), "--history", str(hist)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert set(payload) == {"x", "status", "history", "stationarity",
                                "metrics"}
        assert payload["status"] == "converged"
        assert len(payload["x"]) == 48
        assert "residual" in payload["metrics"]
        assert abs(payload["metrics"]["residual"]) < 1.0
        assert {"lambda", "primal_feasibility", "complementarity",
                "dual_residual"} == set(payload["stationarity"])
        lines = hist.read_text().strip().splitlines()
        assert len(lines) == len(payload["history"])
        assert json.loads(lines[0])["k"] == 0

    def test_solve_spg_engine(self, instance_files):
        tmp, inst, a_path, b_path = instance_files
        out = tmp / "result_spg.json"
        rc = main(["solve", "--matrix", str(a_path), "--rhs", str(b_path),
                   "--sigma", str(inst.sigma), "--engine", "spg-blackbox",
                   "--out", str(out)])
        assert rc == 0
        assert json.loads(out.read_text())["status"] == "converged"

    def test_solve_names_non_finite_matrix(self, instance_files):
        tmp, inst, a_path, b_path = instance_files
        A = inst.A.copy()
        A[0, 0] = np.nan
        nan_path = tmp / "A_nan.csv"
        fileio.write_array_csv(nan_path, A)
        assert "nan" in nan_path.read_text()
        with pytest.raises(ValueError, match=r"non-finite .* in A$"):
            main(["solve", "--matrix", str(nan_path), "--rhs", str(b_path),
                  "--sigma", str(inst.sigma), "--out", str(tmp / "nan.json")])

    def test_solve_rejects_unknown_engine_before_reading(self, tmp_path, capsys):
        # The files do not exist: reading either would raise, not return 2.
        rc = main(["solve", "--matrix", str(tmp_path / "missing_A.csv"),
                   "--rhs", str(tmp_path / "missing_b.csv"), "--sigma", "1.0",
                   "--engine", "nope", "--out", str(tmp_path / "r.json")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "unknown engine 'nope'; available: ['admm'," in err
        assert not (tmp_path / "r.json").exists()

    def test_solve_rejects_bad_loss(self, instance_files, capsys):
        tmp, inst, a_path, b_path = instance_files
        with pytest.raises(SystemExit):
            main(["solve", "--matrix", str(a_path), "--rhs", str(b_path),
                  "--sigma", "1.0", "--loss", "quadratic",
                  "--out", str(tmp / "x.json")])


class TestBenchCli:
    def test_bench_writes_aggregate_csv(self, tmp_path):
        out = tmp_path / "table.csv"
        trials = tmp_path / "trials.json"
        rc = main(["bench", "--m", "16", "--n", "48", "--s", "3",
                   "--trials", "2", "--seed", "0", "--engines", "admm",
                   "--out", str(out), "--trials-json", str(trials)])
        assert rc == 0
        header = out.read_text().splitlines()[0]
        assert header == "i,engine,success_pct,iter_s,iter_f,cpu_s,cpu_f," \
                         "recerr_s,recerr_f,res_min,res_max"
        assert len(json.loads(trials.read_text())) == 2

    def test_bench_rejects_unknown_engine(self, tmp_path, capsys):
        rc = main(["bench", "--m", "16", "--n", "48", "--s", "3",
                   "--trials", "1", "--engines", "warp-drive",
                   "--out", str(tmp_path / "t.csv")])
        assert rc == 2
        assert "unknown engine" in capsys.readouterr().err

    def test_scale_flag(self, tmp_path, monkeypatch):
        import dir_sparse.cli as cli
        captured = {}

        def fake_run_batch(specs, engines, trials, config=None, max_workers=1):
            captured["spec"] = specs[0]
            return [], []

        monkeypatch.setattr(cli, "run_batch", fake_run_batch)
        rc = main(["bench", "--scale", "2", "--trials", "1",
                   "--engines", "admm", "--out", str(tmp_path / "t.csv")])
        assert rc == 0
        assert (captured["spec"].m, captured["spec"].n, captured["spec"].s) \
            == (1080, 5120, 160)
