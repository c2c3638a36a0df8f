"""Measure one set-up in a fresh interpreter.

Prints the host wall seconds from before ``import repro`` until the
workload's first job is RUNNING (every rank past MPI_INIT)::

    python3 perfbench/setup_probe.py <workload> <seed> <index>

``run.py`` starts several of these and reports their median as
``setup_s``.
"""

import time

T0 = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402


def main() -> int:
    workload, seed, index = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    import workloads  # imports repro

    shape = workloads.SHAPES[workload]
    workloads.launch_until_running(
        shape, workloads.episode_seed(workload, seed, -1 - index)
    )
    print(repr(time.perf_counter() - T0))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
