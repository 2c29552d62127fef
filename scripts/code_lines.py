#!/usr/bin/env python3
"""Count the code lines of each module of `src/multigroup`.

A code line holds a token that is not a comment, a newline or the
docstring of a module, class or function; so blank lines, comment lines
and docstrings do not count, and a line of an expression that spans
several lines does. The script prints each module's count and the total,
which is the size of `src/multigroup` that ROADMAP.md and CHANGES.md cite.

    python scripts/code_lines.py
"""

import ast
import io
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "multigroup"
# tokens that hold no code of their own
_SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set[int]:
    """The lines of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in the source of one module."""
    docstrings = _docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _SKIPPED:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstrings)


def count(directory: Path) -> dict[str, int]:
    """The code lines of each module in the directory, by file name."""
    return {path.name: code_lines(path.read_text(encoding="utf-8"))
            for path in sorted(directory.glob("*.py"))}


def main() -> int:
    rows = count(SRC)
    width = max(map(len, rows), default=0)
    for name, lines in rows.items():
        print(f"{name:<{width}}  {lines:>5}")
    print(f"{'total':<{width}}  {sum(rows.values()):>5}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
