"""Input generation, run as its own process by the benchmark's set-up.

    python3 perfbench/generate.py WORKDIR SEED

Reads the pickled workload object from WORKDIR/workload.pkl, runs its
``generate`` with a generator seeded by SEED, and pickles what that returns
to WORKDIR/inputs.pkl next to the files it wrote. The process that measures
only loads these, so its peak memory is the package's, not the generators'.
"""

from __future__ import annotations

import os
import pickle
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOAD_FILE = "workload.pkl"
INPUTS_FILE = "inputs.pkl"


def main(argv=None) -> int:
    workdir, seed = (argv or sys.argv[1:])
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    import numpy as np

    with open(os.path.join(workdir, WORKLOAD_FILE), "rb") as f:
        workload = pickle.load(f)
    inputs = workload.generate(np.random.default_rng(int(seed)), workdir)
    with open(os.path.join(workdir, INPUTS_FILE), "wb") as f:
        pickle.dump(inputs, f, protocol=pickle.HIGHEST_PROTOCOL)
    return 0


if __name__ == "__main__":
    sys.exit(main())
