"""Self-test: two traced rounds with one seed give identical per-layer counts.

Counts (calls, useful results, distribution triples tested, FiniteGroup.mul
lookups) must repeat exactly, or a later change could not rest a claim on
them. Self times are not compared: they are timings.

    python3 perfbench/selftest.py [--seed N] [workload ...]
"""

from __future__ import annotations

import argparse
import sys

import pool
import run


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("workloads", nargs="*", default=list(pool.WORKLOADS))
    args = parser.parse_args()
    run.RUN_DIR.mkdir(exist_ok=True)
    differ = 0
    for workload in args.workloads:
        ns = argparse.Namespace(workload=workload, seed=args.seed)
        first, second = (run.counts(run.run_round(ns, True, 0)["trace"]) for _ in range(2))
        print(f"{workload}: seed {args.seed}: traced counts "
              f"{'identical' if first == second else 'DIFFER'}")
        differ += first != second
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
