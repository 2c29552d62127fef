"""Trace a single mgs query on a canonical instance of the corpus.

Prints, per public engine function, its calls, inclusive time and self
time, plus the count-only leaves. Use it to read one query's numbers,
such as the lattice scan of S4 or the interposition search on GF(11):

    PYTHONHASHSEED=0 python3 perfbench/probe.py S4 series
    PYTHONHASHSEED=0 python3 perfbench/probe.py gf11 maximal-series --exhaustive-bound 24

The first argument is a space key of pool.space(); the rest is the mgs
command line without the instance path.
"""

from __future__ import annotations

import shutil
import sys
from collections import defaultdict

import corpus
import pool
import tracing
from worker import ROOT, ask


def main() -> int:
    if len(sys.argv) < 3:
        print(__doc__, file=sys.stderr)
        return 2
    key, argv = sys.argv[1], sys.argv[2:]
    sys.path.insert(0, str(ROOT / "src"))
    from multigroup import cli

    work = ROOT / ".perfbench_run" / "probe"
    work.mkdir(parents=True, exist_ok=True)
    path = work / "probe.mgs"
    path.write_text(corpus.serialize(pool.space(key)), encoding="utf-8")
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        code, _ = ask(cli, [argv[0], str(path), *argv[1:], "--json"])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    inclusive = defaultdict(int)
    for _, _, _, name, start, end in tracer.spans:
        inclusive[name] += end - start
    print(f"{key} {' '.join(argv)}: exit {code}")
    print(f"{'function':44s} {'calls':>10s} {'useful':>8s} {'incl_s':>9s} {'self_s':>9s}")
    for name in sorted(tracer.calls):
        if not tracer.calls[name]:
            continue
        useful = tracer.useful.get(name)
        print(f"{name:44s} {tracer.calls[name]:10d} {'' if useful is None else useful:>8} "
              f"{inclusive[name] / 1e9:9.4f} {tracer.self_ns.get(name, 0) / 1e9:9.4f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
