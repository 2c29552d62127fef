"""scripts/code_lines.py, the size of the package that ROADMAP.md and
CHANGES.md cite: the code lines of each module and their total."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", SCRIPT)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

# seven code lines: a docstring, a comment and a blank line count for none,
# and an expression or a string that is no docstring for each line it spans
FIXTURE = '''\
"""A module docstring
over two lines."""

# a comment
import os


def f(x):
    """A function docstring."""
    return (x +   # a trailing comment
            1)


class C:
    """A class docstring."""
    y = """a string that is
    not a docstring"""
'''


def test_the_script_counts_only_code_lines(tmp_path):
    assert code_lines.code_lines(FIXTURE) == 7
    (tmp_path / "comment.py").write_text("# nothing but a comment\n\n", encoding="utf-8")
    (tmp_path / "notes.txt").write_text("not a module\n", encoding="utf-8")
    assert code_lines.count(tmp_path) == {"comment.py": 0}


def test_the_script_prints_each_module_and_the_total():
    out = subprocess.run([sys.executable, str(SCRIPT)], check=True,
                         capture_output=True, text=True).stdout.splitlines()
    rows = {name: int(lines) for name, lines in map(str.split, out)}
    total = rows.pop("total")
    assert out[-1].startswith("total")
    assert rows == code_lines.count(ROOT / "src" / "multigroup")
    assert total == sum(rows.values()) > 0
