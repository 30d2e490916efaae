#!/usr/bin/env python3
"""minifp benchmark: pretrain, fingerprint and downstream workloads.

    python3 perfbench/run.py --workload pretrain --seed 1 --seconds 20 --trace 0

Run from anywhere inside a checkout of the repository; it imports ``minifp``
from the checkout's ``src`` directory.  The last line of standard output is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  ``BENCHMARK.json`` lists both sets; ``metrics.py``
says which end-to-end metric each layer metric should move.
"""

import argparse
import json
import os
import sys
from pathlib import Path

WORKLOAD_NAMES = ("pretrain", "fingerprint", "downstream")
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="time budget for the timed operations")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path(__file__).resolve().parent.parent
    src = root / "src"
    if not (src / "minifp" / "__init__.py").is_file():
        print(f"error: no minifp sources under {src}", file=sys.stderr)
        return 2
    # At most one BLAS thread per available core, set before numpy loads.
    cores = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:
        current = os.environ.get(var, "")
        if not (current.isdigit() and 0 < int(current) <= cores):
            os.environ[var] = str(cores)
    os.environ.pop("MINIFP_SEED", None)  # it would override the benchmark's seed
    sys.path.insert(0, str(src))

    import harness

    result = harness.measure(args.workload, args.seed, args.seconds, bool(args.trace), "paper", root)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
