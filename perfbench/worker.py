"""One round of a workload in a fresh interpreter.

Imports the engine from the checkout's `src`, draws the round's query
list from the seed and the round, writes one freshly relabelled .mgs file
per query, then asks every query through `multigroup.cli.main(argv)` in
turn, one at a time, with stdout captured. Each query is timed alone; the answers
are checked only after the last query has been timed. An untraced round
samples the machine's speed throughout (speed.py) and reports each time
both as measured and scaled to the reference speed. Prints one JSON
object with the round's timings, checks and, when traced, its per-layer
counts and self times.

    python3 perfbench/worker.py --workload lattice --seed 1 --round 1 --trace 0 --work DIR
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def ask(cli, argv) -> tuple[int | None, str]:
    """One mgs invocation in process: (exit code, stdout); None on a crash."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
    except SystemExit as exc:            # argparse rejected the argv
        return None, f"SystemExit({exc.code})"
    except Exception as exc:             # an uncaught engine error fails the query
        return None, f"{type(exc).__name__}: {exc}"
    return code, out.getvalue()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--round", type=int, default=0, help="picks the element names")
    parser.add_argument("--work", required=True, help="directory for the instance files")
    parser.add_argument("--spans", help="file the traced round writes its spans to")
    parser.add_argument("--setup-only", action="store_true",
                        help="stop after set-up; times set-up alone")
    args = parser.parse_args()

    sampler = None if args.trace else speed.Sampler()
    if sampler:
        sampler.start()
    began = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    from multigroup import cli
    import corpus
    import pool

    drawn = pool.draw(args.workload, args.seed, args.round)
    work = Path(args.work)
    work.mkdir(parents=True, exist_ok=True)
    jobs = []
    for i, d in enumerate(drawn):
        path = f"{args.work}/q{i:03d}.mgs"
        text = corpus.serialize(corpus.relabel(pool.space(d.query.space), d.names))
        (work / f"q{i:03d}.mgs").write_text(text, encoding="utf-8")
        jobs.append((d, path, pool.argv(d.query, d.names, path)))
    setup_done = time.monotonic()
    ended = time.perf_counter()
    setup = {"setup_done": setup_done,
             "setup_sampling_s": ended - began - sampler.busy(began, ended) if sampler else 0.0}
    if args.setup_only:
        if sampler:
            sampler.stop()
            setup["speed_factor"] = sampler.factor()
        print(json.dumps(setup))
        return 0

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)

    answers, asked = [], []
    for i, (_, _, argv) in enumerate(jobs):
        if tracer:
            tracer.query = i
        t0 = time.perf_counter()
        answers.append(ask(cli, argv))
        asked.append((t0, time.perf_counter()))
    if sampler:
        sampler.stop()
        busy = [sampler.busy(*span) for span in asked]
        latencies = [sampler.scaled(*span) for span in asked]
    else:
        busy = latencies = [end - start for start, end in asked]
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    import check
    reference = check.load_reference(args.workload)
    ok, exits = [], []
    for (d, path, _), (code, output) in zip(jobs, answers):
        ref = reference.get(d.query.id)
        exits.append(code)
        ok.append(ref is not None and code == ref["exit"]
                  and check.canonical_report(output, d.names, path) == ref["report"])

    result = {**setup, "wall_s": sum(busy), "latencies_s": latencies,
              "ids": [d.query.id for d, _, _ in jobs], "ok": ok, "exits": exits,
              "peak_rss_kb": peak_rss_kb, "trace": None}
    if tracer:
        result["trace"] = tracing.summary(tracer)
        if args.spans:
            with open(args.spans, "w", encoding="utf-8") as fh:
                for span in tracer.spans:
                    fh.write(json.dumps(span) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
