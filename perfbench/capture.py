"""Capture the reference report of every canonical query of every pool.

Runs each query once on its canonical instance (no relabelling), stores
the exit code and the --json report in `reference/<workload>.json`, and
cross-checks each answer against the brute-force oracles. Rerun it only
when the expected output of the engine changes on purpose.

    python3 perfbench/capture.py [workload ...]
"""

from __future__ import annotations

import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from multigroup import cli
    import check
    import corpus
    import pool
    from worker import ask

    os.chdir(ROOT)
    work = ROOT / ".perfbench_run" / "capture"
    check.REFERENCE_DIR.mkdir(exist_ok=True)
    work.mkdir(parents=True, exist_ok=True)
    oracle = check.Oracle()
    bad = 0
    try:
        for workload in sys.argv[1:] or pool.WORKLOADS:
            reference = {}
            for n, query in enumerate(pool.canonical_queries(workload)):
                path = f"{work.relative_to(ROOT)}/c{n:03d}.mgs"
                (ROOT / path).write_text(corpus.serialize(pool.space(query.space)),
                                         encoding="utf-8")
                code, output = ask(cli, pool.argv(query, {}, path))
                report = output.replace(path, check.INSTANCE_PLACEHOLDER)
                problems = ([f"crashed: {output}"] if code is None
                            else oracle.problems(query, code, report))
                for problem in problems:
                    print(f"{workload}: {query.id}: {problem}", file=sys.stderr)
                bad += len(problems)
                reference[query.id] = {"exit": code, "report": report}
            check.reference_path(workload).write_text(
                json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")
            exits = sorted({r["exit"] for r in reference.values()})
            print(f"{workload}: {len(reference)} queries, exit codes {exits}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
