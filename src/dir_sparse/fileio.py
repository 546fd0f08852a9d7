"""Matrix/vector file formats and the result JSON schema.

Two array formats are supported and sniffed automatically on read:

* CSV: a ``rows,cols`` header line followed by one comma-separated line
  per row.  Vectors are single-column matrices.
* Binary: an 8-byte magic, two little-endian uint64 dimensions, then
  row-major little-endian float64 payload.
"""

import json
import os

import numpy as np

MAGIC = b"DSPARSE1"


def write_array_csv(path, arr) -> None:
    arr = np.atleast_2d(np.asarray(arr, dtype=float))
    with open(path, "w") as fh:
        fh.write(f"{arr.shape[0]},{arr.shape[1]}\n")
        for row in arr:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


def read_array_csv(path) -> np.ndarray:
    with open(path) as fh:
        header = fh.readline().strip()
        try:
            rows, cols = (int(tok) for tok in header.split(","))
        except ValueError:
            raise ValueError(f"{path}: expected 'rows,cols' header, got {header!r}")
        data = np.loadtxt(fh, delimiter=",", ndmin=2)
    if data.shape != (rows, cols):
        raise ValueError(f"{path}: header says {(rows, cols)}, data is {data.shape}")
    return data


def write_array_binary(path, arr) -> None:
    arr = np.atleast_2d(np.asarray(arr, dtype=float))
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(np.asarray(arr.shape, dtype="<u8").tobytes())
        fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def read_array_binary(path) -> np.ndarray:
    with open(path, "rb") as fh:
        magic = fh.read(8)
        if magic != MAGIC:
            raise ValueError(f"{path}: bad magic {magic!r}")
        header = fh.read(16)
        if len(header) != 16:
            raise ValueError(f"{path}: truncated header, {len(header)} of 16 "
                             f"dimension bytes")
        rows = int.from_bytes(header[:8], "little")
        cols = int.from_bytes(header[8:], "little")
        # Python ints: absurd dimensions cannot overflow, and nothing is
        # allocated before the file is known to hold that many bytes.
        expected = rows * cols * 8
        present = os.fstat(fh.fileno()).st_size - fh.tell()
        if present != expected:
            raise ValueError(f"{path}: header says {rows}x{cols} float64 "
                             f"({expected} bytes), file holds {present}")
        payload = fh.read(expected)
    return np.frombuffer(payload, dtype="<f8").reshape(rows, cols).copy()


def load_array(path) -> np.ndarray:
    """Read either format, sniffing the binary magic first."""
    with open(path, "rb") as fh:
        magic = fh.read(8)
    if magic == MAGIC:
        return read_array_binary(path)
    return read_array_csv(path)


def load_matrix(path) -> np.ndarray:
    return load_array(path)


def load_vector(path) -> np.ndarray:
    arr = load_array(path)
    if 1 not in arr.shape:
        raise ValueError(f"{path}: expected a vector, got shape {arr.shape}")
    return arr.ravel()


def result_to_dict(result, metrics=None) -> dict:
    """Flatten a RunResult (and optional metrics mapping) for JSON output."""
    stat = result.stationarity
    return {
        "x": [float(v) for v in result.x_final],
        "status": result.status.value,
        "history": result.history,
        "stationarity": {
            "lambda": stat.lam,
            "primal_feasibility": stat.primal_feasibility,
            "complementarity": stat.complementarity,
            "dual_residual": stat.dual_residual,
        },
        "metrics": dict(metrics) if metrics is not None else {},
    }


def save_result_json(path, result, metrics=None) -> None:
    with open(path, "w") as fh:
        json.dump(result_to_dict(result, metrics), fh, indent=2)
        fh.write("\n")
