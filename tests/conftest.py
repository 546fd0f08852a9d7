import os

# One BLAS thread unless the caller chose otherwise.  Set before numpy is
# first imported, so OpenBLAS reads it; the criterion-5 worker processes
# inherit it.  The suite's products are small, and on two cores the
# default BLAS threads made the suite about twice as slow.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from dir_sparse import InstanceSpec, LossKind, LossSpec, PenaltySpec, generate_instance
from dir_sparse.core import ProblemInstance

ALL_KINDS = list(LossKind)


def make_instance(m, n, seed, kind=LossKind.CAUCHY, delta=0.05, epsilon=0.1,
                  sigma_factor=1.2, noise_scale=0.01):
    """Random instance with the harness recipe but an arbitrary loss kind."""
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((m, n))
    x_true = np.zeros(n)
    support = rng.choice(n, size=max(n // 8, 1), replace=False)
    x_true[support] = rng.standard_normal(support.size)
    noise = noise_scale * rng.standard_normal(m)
    b = A @ x_true + noise
    loss = LossSpec(kind, delta)
    sigma = sigma_factor * float(np.sum(loss.value(noise * noise)))
    return ProblemInstance.build(A, b, sigma, loss, PenaltySpec(epsilon))


@pytest.fixture(scope="session")
def desk_instance():
    """One deterministic (54, 256, 8) instance shared across tests."""
    instance, x_orig = generate_instance(InstanceSpec(m=54, n=256, s=8, seed=0))
    return instance, x_orig
