"""Golden CLI reports: every shipped instance under every command.

Each tests/golden/<instance>.txt holds the text and --json reports of the
COMMAND_MATRIX invocations, plus --set equal to the whole universe and to
the first carrier for subspace, cosets and normal and the EXTRA invocations
of that instance, each headed by its command line and exit code. Each tests/golden/above_bound/<instance>.txt
holds the maximal-series reports of an instance whose universe exceeds the
default bound, run with --exhaustive-bound 24, so the interposition search
meets gaps larger than any shipped instance has. Each
tests/golden/above_bound/hashed/<instance>.sha256 holds the sha256 of the
--json report of such a run whose report is too large to keep (hundreds of
series). The instance path is printed as <instance>, so the files do not
depend on where the repository lives. Each tests/golden/scripts/<script>.txt holds what
scripts/<script>.py prints on the shipped instances with its default
arguments. The tests compare byte for byte; after a deliberate change to a
report, rewrite the files with

    PYTHONPATH=src python tests/test_golden.py

With --check the same run compares each file instead and writes nothing;
it needs neither pytest nor hypothesis, so scripts/parity.py runs it under
every Python it can start.
"""

import hashlib
import io
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

try:
    from pytest import mark
    parametrize = mark.parametrize
except ModuleNotFoundError:  # the --check run on a Python without pytest
    def parametrize(*_, **__):
        return lambda test: test

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from multigroup import cli  # noqa: E402
from multigroup.instances import parse_instance  # noqa: E402

from command_matrix import COMMAND_MATRIX, _fill  # noqa: E402

GOLDEN_DIR = HERE / "golden"
INSTANCES = sorted((HERE.parent / "instances").glob("*.mgs")) + \
    sorted(GOLDEN_DIR.glob("*.mgs"))
SET_COMMANDS = ("cosets", "normal", "subspace")
ABOVE_BOUND = sorted((GOLDEN_DIR / "above_bound").glob("*.mgs"))
HASHED = sorted((GOLDEN_DIR / "above_bound" / "hashed").glob("*.mgs"))
SCRIPTS = ("subspace_census", "survey_series")
# tri: under q,p,r the p stage strips r's identity; the link keeps r among
# its ops, as SubsetRef.of retains every operation whose carrier meets it
EXTRA = {"tri": [["maximal-series", "--order", "q,p,r"]]}


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
    for command, *rest in [*invocations(ms), *EXTRA.get(path.stem, [])]:
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


@parametrize("path", INSTANCES, ids=lambda p: p.stem)
def test_cli_reports_match_golden_files(path):
    expected = _golden_file(path).read_text(encoding="utf-8")
    assert render_golden(path) == expected


@parametrize("path", ABOVE_BOUND, ids=lambda p: p.stem)
def test_above_bound_reports_match_golden_files(path):
    expected = _golden_file(path).read_text(encoding="utf-8")
    assert render_golden(path, _above_bound_invocations) == expected


def report_digest(path: Path) -> str:
    """The sha256 of the exit code and --json report of the above-bound run."""
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = cli.main(["maximal-series", str(path), "--exhaustive-bound", "24",
                         "--json"])
    report = f"exit {code}\n" + buffer.getvalue().replace(str(path), "<instance>")
    return hashlib.sha256(report.encode("utf-8")).hexdigest()


@parametrize("path", HASHED, ids=lambda p: p.stem)
def test_large_above_bound_reports_match_their_digests(path):
    expected = path.with_suffix(".sha256").read_text(encoding="utf-8").strip()
    assert report_digest(path) == expected


def render_script(name: str) -> str:
    script = HERE.parent / "scripts" / f"{name}.py"
    return subprocess.run([sys.executable, str(script)], capture_output=True,
                          text=True, check=True).stdout


@parametrize("name", SCRIPTS)
def test_survey_scripts_match_golden_files(name):
    expected = (GOLDEN_DIR / "scripts" / f"{name}.txt").read_text(encoding="utf-8")
    assert render_script(name) == expected


def golden_files():
    """(golden file, the text it should hold) for every file the tests read."""
    for instance in INSTANCES + ABOVE_BOUND:
        invocations = (_above_bound_invocations if instance in ABOVE_BOUND
                       else _invocations)
        yield _golden_file(instance), render_golden(instance, invocations)
    for instance in HASHED:
        yield instance.with_suffix(".sha256"), report_digest(instance) + "\n"
    for name in SCRIPTS:
        yield GOLDEN_DIR / "scripts" / f"{name}.txt", render_script(name)


def main(argv: list[str]) -> int:
    if argv not in ([], ["--check"]):
        print("usage: python tests/test_golden.py [--check]", file=sys.stderr)
        return 2
    files = differ = 0
    for target, text in golden_files():
        name = target.relative_to(HERE.parent)
        files += 1
        if not argv:
            target.write_text(text, encoding="utf-8")
            print(f"wrote {name}")
        elif target.read_text(encoding="utf-8") != text:
            differ += 1
            print(f"differs: {name}")
    if argv:
        print(f"{differ} of {files} golden files differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
