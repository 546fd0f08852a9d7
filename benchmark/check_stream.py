"""Check that the benchmark draws the harness's arrays.

    python3 benchmark/check_stream.py

For every base instance of every workload panel, the benchmark's own draw
at run seed 0 must equal ``dir_sparse.generate_instance`` at the same
harness seed bit for bit (A, b and x_true; sigma too for the Cauchy
panels).  Exits 1 on the first difference.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import numpy as np

from dir_sparse import InstanceSpec, generate_instance
from instances import make_instance
from workloads import WORKLOADS


def main() -> int:
    for name, wl in WORKLOADS.items():
        m, n, s = wl.shape
        for index, base in enumerate(wl.base_seeds):
            ours = make_instance(wl.shape, base, 0, index)
            theirs, x_orig = generate_instance(InstanceSpec(m=m, n=n, s=s, seed=base))
            same = (np.array_equal(ours.A, theirs.A) and np.array_equal(ours.b, theirs.b)
                    and np.array_equal(ours.x_true, x_orig) and ours.sigma == theirs.sigma)
            if not same:
                print(f"{name}: harness seed {base} differs")
                return 1
        print(f"{name}: {len(wl.base_seeds)} base instances match generate_instance")
    return 0


if __name__ == "__main__":
    sys.exit(main())
