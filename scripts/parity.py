#!/usr/bin/env python3
"""Check the golden reports under every supported Python this machine can
start.

The supported versions are those of the CI matrix, 3.10 to 3.13. For each
one the script starts `python3.X`; where that command is a pyenv shim that
serves another version, it tries each pyenv version 3.X.* in turn, newest
first, through PYENV_VERSION. Under each interpreter it starts, it runs
`tests/test_golden.py --check`, which renders every golden file, compares
it byte for byte and writes nothing; no bytecode is written either. It
prints one line per version: the interpreter and the check's verdict, or
that no interpreter of that version could be started, and exits 1 if a
check fails. What it can start depends on the machine, so the script is
not part of the test suite.

    python scripts/parity.py
"""

import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
VERSIONS = ("3.10", "3.11", "3.12", "3.13")
VERSION = "import platform; print(platform.python_version())"


def _pyenv_versions(version: str) -> list[str]:
    """pyenv's installed versions of one minor version, newest first."""
    if shutil.which("pyenv") is None:
        return []
    bare = subprocess.run(["pyenv", "versions", "--bare"], capture_output=True,
                          text=True).stdout.split()
    found = [v for v in bare if v.startswith(f"{version}.") and v[len(version) + 1:].isdigit()]
    return sorted(found, key=lambda v: int(v.rsplit(".", 1)[1]), reverse=True)


def _start(version: str) -> tuple[dict, str, str] | None:
    """(environment, full version, how it was started) of the first way
    python3.X starts, or None."""
    for pyenv in [None, *_pyenv_versions(version)]:
        env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
        if pyenv is not None:
            env["PYENV_VERSION"] = pyenv
        try:
            run = subprocess.run([f"python{version}", "-c", VERSION], env=env,
                                 capture_output=True, text=True)
        except OSError:  # no such command at all
            return None
        full = run.stdout.strip()
        if run.returncode == 0 and full.startswith(f"{version}."):
            how = f"python{version}" + (f" with PYENV_VERSION={pyenv}" if pyenv else "")
            return env, full, how
    return None


def main() -> int:
    failed = False
    for version in VERSIONS:
        started = _start(version)
        if started is None:
            print(f"{version}: could not start python{version}")
            continue
        env, full, how = started
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
        run = subprocess.run([f"python{version}", str(ROOT / "tests" / "test_golden.py"),
                              "--check"], env=env, capture_output=True, text=True)
        lines = (run.stdout + run.stderr).strip().splitlines() or ["no output"]
        if run.returncode == 0:
            print(f"{version}: Python {full} ({how}): byte-identical, {lines[-1]}")
        else:
            failed = True
            print(f"{version}: Python {full} ({how}): FAILED, exit {run.returncode}")
            for line in lines[-20:]:
                print(f"    {line}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
