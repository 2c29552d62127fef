"""Golden CLI reports: every shipped instance under every command.

Each tests/golden/<instance>.txt holds the text and --json reports of the
COMMAND_MATRIX invocations, plus --set equal to the whole universe and to
the first carrier for subspace, cosets and normal, each headed by its
command line and exit code. Each tests/golden/above_bound/<instance>.txt
holds the maximal-series reports of an instance whose universe exceeds the
default bound, run with --exhaustive-bound 24, so the interposition search
meets gaps larger than any shipped instance has. The instance path is
printed as <instance>, so the files do not depend on where the repository
lives. Each tests/golden/scripts/<script>.txt holds what
scripts/<script>.py prints on the shipped instances with its default
arguments. The tests compare byte for byte; after a deliberate change to a
report, rewrite the files with

    PYTHONPATH=src python tests/test_golden.py
"""

import io
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from multigroup import cli  # noqa: E402
from multigroup.instances import parse_instance  # noqa: E402

from test_acceptance import COMMAND_MATRIX, _fill  # noqa: E402

GOLDEN_DIR = HERE / "golden"
INSTANCES = sorted((HERE.parent / "instances").glob("*.mgs")) + \
    sorted(GOLDEN_DIR.glob("*.mgs"))
SET_COMMANDS = ("cosets", "normal", "subspace")
ABOVE_BOUND = sorted((GOLDEN_DIR / "above_bound").glob("*.mgs"))
SCRIPTS = ("subspace_census", "survey_series")


def _invocations(ms):
    for command, template in sorted(COMMAND_MATRIX.items()):
        yield [command, *_fill(template, ms)]
        if command in SET_COMMANDS:
            yield [command, "--set", ",".join(ms.universe)]
            yield [command, "--set", ",".join(ms.groups[0].carrier)]


def _above_bound_invocations(ms):
    yield ["maximal-series", "--exhaustive-bound", "24"]


def render_golden(path: Path, invocations=_invocations) -> str:
    ms = parse_instance(path.read_text(encoding="utf-8"))
    out = []
    for command, *rest in invocations(ms):
        for fmt in ([], ["--json"]):
            buffer = io.StringIO()
            with redirect_stdout(buffer):
                code = cli.main([command, str(path), *rest, *fmt])
            shown = " ".join([command, "<instance>", *rest, *fmt])
            out.append(f"$ mgs {shown}\nexit {code}\n")
            out.append(buffer.getvalue().replace(str(path), "<instance>"))
    return "".join(out)


def _golden_file(path: Path) -> Path:
    folder = path.parent if path in ABOVE_BOUND else GOLDEN_DIR
    return folder / f"{path.stem}.txt"


@pytest.mark.parametrize("path", INSTANCES, ids=lambda p: p.stem)
def test_cli_reports_match_golden_files(path):
    expected = _golden_file(path).read_text(encoding="utf-8")
    assert render_golden(path) == expected


@pytest.mark.parametrize("path", ABOVE_BOUND, ids=lambda p: p.stem)
def test_above_bound_reports_match_golden_files(path):
    expected = _golden_file(path).read_text(encoding="utf-8")
    assert render_golden(path, _above_bound_invocations) == expected


def render_script(name: str) -> str:
    script = HERE.parent / "scripts" / f"{name}.py"
    return subprocess.run([sys.executable, str(script)], capture_output=True,
                          text=True, check=True).stdout


@pytest.mark.parametrize("name", SCRIPTS)
def test_survey_scripts_match_golden_files(name):
    expected = (GOLDEN_DIR / "scripts" / f"{name}.txt").read_text(encoding="utf-8")
    assert render_script(name) == expected


if __name__ == "__main__":
    for instance in INSTANCES + ABOVE_BOUND:
        invocations = (_above_bound_invocations if instance in ABOVE_BOUND
                       else _invocations)
        _golden_file(instance).write_text(render_golden(instance, invocations),
                                          encoding="utf-8")
        print(f"wrote {_golden_file(instance).relative_to(HERE.parent)}")
    for name in SCRIPTS:
        target = GOLDEN_DIR / "scripts" / f"{name}.txt"
        target.write_text(render_script(name), encoding="utf-8")
        print(f"wrote {target.relative_to(HERE.parent)}")
