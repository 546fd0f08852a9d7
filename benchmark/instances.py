"""Benchmark inputs, drawn without calling the program.

Base instances follow the sparse-recovery protocol of ``harness.py`` and
its documented stream order (matrix row-major, then support, then signal
values, then noise uniforms), so harness seed ``s`` gives bit-identical
arrays to ``dir_sparse.generate_instance`` at seed ``s``.

The ``--seed`` of a run draws one symmetry of each base instance: a row
permutation, a column permutation and column sign flips.  The transformed
problem has the same solution set (mapped through the same symmetry) and
the same difficulty in exact arithmetic, while every array the program
receives is different and its floating-point order changes.  Seed 0 is
the identity, so ``--seed 0`` hands the program the harness arrays as
drawn.
"""

from dataclasses import dataclass

import numpy as np

from checks import loss_value

NOISE_SCALE = 0.01
SIGMA_FACTOR = 1.2
DELTA = 0.05
PENALTY_EPS = 0.1


@dataclass(frozen=True)
class Instance:
    """Arrays as the user holds them, plus the truth the checks use."""

    A: np.ndarray
    b: np.ndarray
    x_true: np.ndarray
    sigma: float
    loss: str


def draw_base(m: int, n: int, s: int, seed: int):
    """(A, x_true, noise) in the harness stream order for one seed."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, n))
    support = rng.choice(n, size=s, replace=False)
    values = rng.standard_normal(s)
    u = rng.random(m)
    eta = np.tan(np.pi * (u - 0.5))     # standard Cauchy by inverse CDF
    x_true = np.zeros(n)
    x_true[support] = values
    return A, x_true, NOISE_SCALE * eta


def make_instance(shape, base_seed: int, run_seed: int, index: int,
                  loss: str = "cauchy") -> Instance:
    """Base instance ``base_seed`` under the symmetry drawn for this run.

    ``index`` is the instance's position in its workload panel, so each
    panel member gets its own symmetry from the same run seed.
    """
    m, n, s = shape
    A, x_true, noise = draw_base(m, n, s, base_seed)
    b = A @ x_true + noise
    sigma = SIGMA_FACTOR * float(np.sum(loss_value(loss, DELTA, noise * noise)))
    if run_seed != 0:
        rng = np.random.default_rng([run_seed, index])
        rows = rng.permutation(m)
        cols = rng.permutation(n)
        signs = rng.choice([-1.0, 1.0], size=n)
        A = A[rows][:, cols] * signs
        b = b[rows]
        x_true = x_true[cols] * signs
    return Instance(A=np.ascontiguousarray(A), b=b, x_true=x_true,
                    sigma=sigma, loss=loss)


MAGIC = b"DSPARSE1"


def write_csv(path, arr) -> None:
    """CSV array file: a ``rows,cols`` header, then one line per row."""
    arr = np.asarray(arr, dtype=float).reshape(len(arr), -1)
    lines = [f"{arr.shape[0]},{arr.shape[1]}"]
    lines += [",".join(repr(float(v)) for v in row) for row in arr]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_binary(path, arr) -> None:
    """Binary array file: magic, two little-endian uint64 dims, float64 data."""
    arr = np.asarray(arr, dtype=float).reshape(len(arr), -1)
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(np.array(arr.shape, dtype="<u8").tobytes())
        fh.write(arr.astype("<f8").tobytes(order="C"))
