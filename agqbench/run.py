"""Launcher for the agq benchmark.

Pins the BLAS/OpenMP thread count to at most the number of CPUs this
process may run on, through the process environment and before numpy is
imported, then runs the harness in this process.

    python3 agqbench/run.py --workload w4a4-long --seed 1 --seconds 30 --trace 0
"""

import os
import sys

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_threads() -> int:
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        current = os.environ.get(var, "")
        if not current.isdigit() or not 1 <= int(current) <= nproc:
            os.environ[var] = str(nproc)
    return nproc


if __name__ == "__main__":
    pin_threads()
    import harness

    sys.exit(harness.main())
