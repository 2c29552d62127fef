"""Outside-in benchmark of the `mgs` engine.

One client, one query at a time, no threads: a closed loop. A run asks
the seed's query list in rounds, as many as pool.ROUNDS sets for a run of
--seconds. Each round is a fresh interpreter (worker.py) that imports the
engine, writes the round's relabelled instance files and asks the list
once, so the engine's module-level caches and the round's peak memory
start from zero every time. Every query of every round reads its own
element names, drawn from the seed and the round, so no ask is answered
from another's cached result.

The engine's cost depends on the element names and on PYTHONHASHSEED:
together they set the iteration order of sets (the S4 subgroup scan takes
3.2 s to 10.6 s across name sets) and the layout of every string-keyed
dict, which moved whole rounds by 20 % between two hash seeds. A real
`mgs` invocation gets a random hash seed, so the rounds of a run use
different ones: round k of every run uses hash seed k, and the number of
rounds depends on --seconds alone, so two runs, or two commits, average
over the same hash seeds and over as many name sets.

Untraced rounds sample the machine's speed while they run (speed.py) and
report every time scaled to a fixed reference speed, which takes out the
speed a shared host gives the core. A query's latency is the low median
of its scaled asks across the rounds (the lower middle one of an even
count), which drops up to two name sets in four that make a scan cost
2.3x the usual; wall_s is the sum of those latencies over the list.

Traced runs (--trace 1) fix PYTHONHASHSEED from the seed, which makes
the per-layer counts exact, alternate untraced and traced rounds and
report the per-layer metrics; tracing overhead is the difference of the
two rounds' median wall times.

    python3 perfbench/run.py --workload lattice --seed 1 --seconds 30 --trace 0

The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pool
import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_DIR = ROOT / ".perfbench_run"

MIN_ROUNDS = 3               # untraced rounds in a --trace 0 run, at least
SETUP_PROBES = 12            # set-up-only rounds per run, spread between the rounds
OVERRUN = 2.0                # a run this many times --seconds long asks no more rounds
MIN_TRACED_PAIRS = 1         # (untraced, traced) round pairs in a --trace 1 run
ROUND_TIMEOUT_S = 150
TAIL_BEYOND = 10             # the tail percentile leaves this many queries above it

# <function>.<field> read from the traced round
FUNCTION_METRICS = (
    "groups.subgroups.self_s", "groups.is_subgroup.calls",
    "subspaces.subspace_decomposition.self_s", "subspaces.is_subspace.calls",
    "series.enumerate_maximal_series.self_s", "series.length_invariance_check.self_s",
    "groups.mul.calls", "spaces.validate_multigroup.self_s",
    "instances.parse_instance.self_s", "cli.render_report.self_s",
    "generation.span_closure.calls", "generation.is_finitely_generated.self_s",
    "series.is_normal_subspace.calls", "subspaces.induced_space.calls",
    "groups.maximal_proper_normal_subgroups.self_s",
)


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def run_round(args, trace: bool, round_: int, setup_only: bool = False) -> dict:
    """Start one worker, wait for it, and return its parsed result. Round k >= 1
    runs at hash seed k; round 0 at a hash seed fixed by the workload seed."""
    work = RUN_DIR / f"work-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--round", str(round_), "--trace", str(int(trace)),
           "--work", str(work.relative_to(ROOT))]
    if trace:
        cmd += ["--spans", str(RUN_DIR / f"spans-{args.workload}-{args.seed}.jsonl")]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, PYTHONHASHSEED=str(round_ or args.seed % 2**32))
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=ROUND_TIMEOUT_S)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = result["setup_done"] - spawned - result["setup_sampling_s"]
    result["round_s"] = time.monotonic() - spawned
    return result


def rounds(args) -> tuple[list, list, list]:
    """The untraced rounds with set-up probes between them, or (untraced,
    traced) pairs while the next fits in --seconds."""
    probes, plain, traced = [], [], []
    began = time.monotonic()
    if not args.trace:
        count = max(MIN_ROUNDS,
                    round(pool.ROUNDS[args.workload] * args.seconds / pool.RUN_S))
        for k in range(1, count + 1):
            late = time.monotonic() - began + (plain[-1]["round_s"] if plain else 0)
            if len(plain) >= MIN_ROUNDS and late > OVERRUN * args.seconds:
                break
            probes += [run_round(args, False, k, setup_only=True)
                       for _ in range(max(1, SETUP_PROBES // count))]
            plain.append(run_round(args, False, k))
        return probes, plain, traced
    while True:
        plain.append(run_round(args, False, 0))
        traced.append(run_round(args, True, 0))
        step = statistics.median(r["round_s"] for r in plain) + \
            statistics.median(r["round_s"] for r in traced)
        if len(traced) >= MIN_TRACED_PAIRS and time.monotonic() - began + step > args.seconds:
            return probes, plain, traced


def tail(values: list) -> float:
    return sorted(values)[len(values) - TAIL_BEYOND - 1]


def end_to_end(probes: list, plain: list) -> dict:
    per_query = [statistics.median_low(asks)
                 for asks in zip(*(r["latencies_s"] for r in plain))]
    return {
        # process start and file reads wait on the machine more than the speed
        # samples show; the lower quartile drops the probes that waited most
        "setup_s": (statistics.quantiles([r["setup_s"] * r["speed_factor"] for r in probes],
                                         n=4)[0], "s"),
        "wall_s": (sum(per_query), "s"),
        "query_p50_ms": (statistics.median(per_query) * 1e3, "ms"),
        "query_tail_ms": (tail(per_query) * 1e3, "ms"),
        "peak_rss_mb": (statistics.median(r["peak_rss_kb"] for r in plain) / 1024, "MB"),
    }


def per_layer(plain: list, traced: list, failed: int, attempted: int) -> dict:
    summaries = [r["trace"] for r in traced]
    first = summaries[0]

    def self_s(pick) -> float:
        return statistics.median(pick(s) for s in summaries)

    out = {}
    for layer in tracing.LAYERS:
        out[f"{layer}.calls"] = (first["layers"][layer]["calls"], "count")
        out[f"{layer}.self_s"] = (self_s(lambda s: s["layers"][layer]["self_s"]), "s")
    for metric in FUNCTION_METRICS:
        fn, field = metric.rsplit(".", 1)
        if field == "calls":
            out[metric] = (first["functions"][fn]["calls"], "count")
        else:
            out[metric] = (self_s(lambda s: s["functions"][fn]["self_s"]), "s")
    for fn in tracing.USEFUL:
        f = first["functions"][fn]
        out[f"{fn}.useful_ratio"] = (f["useful"] / f["calls"] if f["calls"] else 0.0, "ratio")
    out["spaces.distribution_tested"] = (first["distribution_tested"], "count")
    exits = traced[0]["exits"]
    out["cli.refusals"] = (sum(1 for c in exits if c == 3), "count")
    out["cli.input_errors"] = (sum(1 for c in exits if c == 2), "count")
    out["trace.overhead_s"] = (statistics.median(r["wall_s"] for r in traced)
                               - statistics.median(r["wall_s"] for r in plain), "s")
    out["failed_ratio"] = (failed / attempted, "ratio")
    return out


def counts(summary: dict) -> dict:
    calls = {n: (f["calls"], f["useful"]) for n, f in summary["functions"].items()}
    return {"functions": calls, "distribution_tested": summary["distribution_tested"]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=pool.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    for needed in (ROOT / "src" / "multigroup" / "cli.py", ROOT / "tests" / "oracles.py"):
        if not needed.is_file():
            return fail(f"{needed.relative_to(ROOT)} not found; run from a checkout of the repo")
    sys.path.insert(0, str(ROOT / "src"))
    import multigroup.cli  # noqa: F401  compiles the package once before any round
    import check

    RUN_DIR.mkdir(exist_ok=True)
    try:
        probes, plain, traced = rounds(args)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        return fail(str(exc))

    everything = plain + traced
    attempted = sum(len(r["ok"]) for r in everything)
    failed = sum(not ok for r in everything for ok in r["ok"])
    problems = []
    reference = check.load_reference(args.workload)
    oracle = check.Oracle()
    queries = {q.id: q for q in (d.query for d in pool.draw(args.workload, args.seed))}
    for qid, query in queries.items():
        ref = reference.get(qid)
        if ref is None:
            problems.append(f"{qid}: no reference report")
            continue
        problems += [f"{qid}: {p}" for p in oracle.problems(query, ref["exit"], ref["report"])]
    if traced and any(counts(r["trace"]) != counts(traced[0]["trace"]) for r in traced):
        problems.append("traced rounds of one seed disagree on per-layer counts")
    for r in everything:
        problems += [f"wrong answer: {qid}" for qid, ok in zip(r["ids"], r["ok"]) if not ok]
    for p in problems[:20]:
        print(f"perfbench: {p}", file=sys.stderr)

    metrics = per_layer(plain, traced, failed, attempted) if args.trace else end_to_end(probes, plain)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:14s} {name:46s} {value:16.6f} {unit}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
