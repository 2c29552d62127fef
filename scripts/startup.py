#!/usr/bin/env python3
"""Time what one `mgs` invocation pays before its query: the interpreter's
start and `import multigroup.cli`, cold and warm.

Every `mgs` command is a fresh interpreter, so this is a fixed cost of each
command. Each run is a child interpreter, and the three kinds of run take
turns:

* interpreter: the wall time of `python -c pass`;
* cold import: the import, timed inside the child, with no bytecode of
  `src/` (as in a checkout without `__pycache__` under
  PYTHONDONTWRITEBYTECODE=1, the state the benchmark driver runs in); the
  standard library loads from bytecode;
* warm import: the same with the bytecode of `src/` present.

The bytecode lives in temporary PYTHONPYCACHEPREFIX directories, so the
checkout gets no `__pycache__` and a `__pycache__` it holds is not read.
The script prints the median and quartiles of the runs, in milliseconds,
and the ten modules with the most self time in one cold import under
`-X importtime`. The times depend on the machine and move between runs;
compare two checkouts by interleaving their runs.

    python scripts/startup.py [--runs N]
"""

import argparse
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
TIMED_IMPORT = ("import time; t = time.perf_counter(); import multigroup.cli; "
                "print(time.perf_counter() - t)")


def _child(args, prefix: str, write: bool = True) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONPYCACHEPREFIX": prefix}
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    if not write:
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    return subprocess.run([sys.executable, *args], env=env, check=True,
                          capture_output=True, text=True)


def _quartiles(times: list[float]) -> tuple[float, float, float]:
    if len(times) < 2:
        return times[0], times[0], times[0]
    q1, median, q3 = statistics.quantiles(times, n=4, method="inclusive")
    return median, q1, q3


def _self_times(stderr: str) -> dict[str, int]:
    """The self time (us) of each module in `-X importtime` lines,
    `import time: self | cumulative | name`; the header line is skipped."""
    rows = {}
    for line in stderr.splitlines():
        fields = line.removeprefix("import time:").split("|")
        if line.startswith("import time:") and fields[0].strip().isdigit():
            rows[fields[2].strip()] = int(fields[0])
    return rows


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=21, metavar="N",
                        help="runs of each kind (default 21)")
    runs = parser.parse_args().runs
    if runs < 1:
        parser.error("--runs must be at least 1")

    with tempfile.TemporaryDirectory(prefix="mgs-startup-") as tmp:
        warm, cold = os.path.join(tmp, "warm"), os.path.join(tmp, "cold")
        for prefix in (warm, cold):  # write the bytecode of what the import loads
            _child(["-c", "import multigroup.cli"], prefix)
        # the prefix mirrors absolute source paths: drop the cold one's src/
        shutil.rmtree(os.path.join(cold, *SRC.parts[1:]))
        times: dict[str, list[float]] = {"interpreter": [], "cold import": [],
                                         "warm import": []}
        for _ in range(runs):
            started = time.perf_counter()
            _child(["-c", "pass"], warm)
            times["interpreter"].append(time.perf_counter() - started)
            times["cold import"].append(
                float(_child(["-c", TIMED_IMPORT], cold, write=False).stdout))
            times["warm import"].append(float(_child(["-c", TIMED_IMPORT], warm).stdout))
        profile = _self_times(_child(["-X", "importtime", "-c", "import multigroup.cli"],
                                     cold, write=False).stderr)
        for name in _self_times(_child(["-X", "importtime", "-c", "pass"], cold,
                                       write=False).stderr):
            profile.pop(name, None)  # imported at start-up, by site

    print(f"start-up of one mgs invocation, {runs} run(s) of each kind, "
          f"Python {sys.version.split()[0]}")
    print(f"{'ms':<12} {'median':>8} {'q1':>8} {'q3':>8}")
    for kind, values in times.items():
        median, q1, q3 = _quartiles([1000 * v for v in values])
        print(f"{kind:<12} {median:>8.1f} {q1:>8.1f} {q3:>8.1f}")
    print("most self time in a cold import (-X importtime, us):")
    for name in sorted(profile, key=profile.get, reverse=True)[:10]:
        print(f"{profile[name]:>8}  {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
