"""Benchmark of the rcur decompositions: one workload per run, one process.

    python3 perfbench/run.py --workload pair-exp1 --seed 0 --seconds 12 --trace 0

Workloads: pair-exp1, pair-ksweep, triplet-exp4, cli-files (``workloads.py``);
``README.md`` in this directory describes them, the metrics and the checks.
The BLAS thread count is pinned to min(2, nproc) here, before NumPy loads.
The library is imported from the ``src`` directory of the checkout this file
sits in; without it the run exits with code 1 and prints no result.

The last line of standard output is the JSON result.  The lines before it
give the environment stamp and every metric by name and unit, including
``ops_failed_frac`` (failed / attempted ops, also in the result's
``failed`` and ``attempted``).
"""
from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD_NAMES = ("pair-exp1", "pair-ksweep", "triplet-exp4", "cli-files")
BLAS_THREADS_MAX = 2


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=12.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true",
                   help="small shapes for the self-check; no acceptance band")
    return p.parse_args(argv)


def import_library():
    """Import ``rcur`` from this checkout's ``src`` and nowhere else."""
    src = (ROOT / "src").resolve()
    if not (src / "rcur" / "__init__.py").is_file():
        sys.exit(f"error: no rcur sources under {src}")
    sys.path.insert(0, str(src))
    import rcur

    if Path(rcur.__file__).resolve().parent != src / "rcur":
        sys.exit(f"error: imported rcur from {rcur.__file__}, not {src}")


def main(argv=None):
    args = parse_args(argv)
    threads = min(BLAS_THREADS_MAX, len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(threads)
    import_library()
    import harness

    return harness.main(args, threads, ROOT)


if __name__ == "__main__":
    sys.exit(main())
