"""The .mgs instance format: line-oriented, hand-authorable, diff-friendly.

    elements: 0 1 2
    group +:
      carrier: 0 1 2
      identity: 0
      table:
        0: 0 1 2
        1: 1 2 0
        2: 2 0 1

Row labels are left operands; columns follow the carrier line. '#' starts
a comment anywhere on a line. Indentation is ignored on input; the
serializer emits the canonical two/four-space layout, so parse-serialize
round trips are byte stable on canonical files.
"""

from __future__ import annotations

from collections.abc import Iterator

from .errors import ParseError
from .groups import FiniteGroup
from .spaces import MultiGroupSpace

_RESERVED = set(":#,")


def _tokens(line: str) -> list[str]:
    return line.split("#", 1)[0].split()


def _check_token(token: str, lineno: int) -> str:
    if not _RESERVED.isdisjoint(token):
        raise ParseError(f"invalid element token {token!r} "
                         f"(':', ',' and '#' are reserved)", lineno)
    return token


def _lines(text: str) -> Iterator[tuple[int, list[str]]]:
    """(line number, tokens) of each line that holds a token."""
    for lineno, raw in enumerate(text.splitlines(), 1):
        if tokens := _tokens(raw):
            yield lineno, tokens


def _keyword_line(tokens: list[str], keyword: str) -> list[str] | None:
    if tokens and tokens[0] == f"{keyword}:":
        return tokens[1:]
    return None


def parse_instance(text: str) -> MultiGroupSpace:
    """Parse instance text, enforcing structural invariants with line numbers."""
    lines = _lines(text)

    first = next(lines, None)
    if first is None:
        raise ParseError("no universe declared")
    lineno, tokens = first
    universe_tokens = _keyword_line(tokens, "elements")
    if universe_tokens is None:
        raise ParseError("expected 'elements:' declaration", lineno)
    if not universe_tokens:
        raise ParseError("universe is empty", lineno)
    known: set[str] = set()
    for tok in universe_tokens:
        _check_token(tok, lineno)
        if tok in known:
            raise ParseError(f"duplicate element {tok!r} in universe", lineno)
        known.add(tok)

    groups = []
    while True:
        item = next(lines, None)
        if item is None:
            break
        lineno, tokens = item
        if len(tokens) != 2 or tokens[0] != "group" or not tokens[1].endswith(":"):
            raise ParseError("expected 'group <op>:'", lineno)
        op_id = tokens[1][:-1]
        if not op_id:
            raise ParseError("empty operation id", lineno)
        groups.append(_parse_group(lines, op_id, known, lineno))

    return MultiGroupSpace(tuple(universe_tokens), tuple(groups))


def _parse_group(lines: Iterator[tuple[int, list[str]]], op_id: str,
                 universe: set[str], header_line: int) -> FiniteGroup:
    item = next(lines, None)
    carrier_tokens = item and _keyword_line(item[1], "carrier")
    if not carrier_tokens:
        raise ParseError(f"group {op_id!r} missing 'carrier:' line",
                         item[0] if item else header_line)
    lineno = item[0]
    members: set[str] = set()
    for tok in carrier_tokens:
        _check_token(tok, lineno)
        if tok not in universe:
            raise ParseError(f"carrier element {tok!r} not in universe", lineno)
        if tok in members:
            raise ParseError(f"duplicate element {tok!r} in carrier", lineno)
        members.add(tok)
    carrier = tuple(carrier_tokens)

    item = next(lines, None)
    identity_tokens = item and _keyword_line(item[1], "identity")
    if identity_tokens is None:
        raise ParseError(f"group {op_id!r} missing 'identity:' line",
                         item[0] if item else lineno)
    if len(identity_tokens) != 1:
        raise ParseError("identity line must name exactly one element", item[0])
    identity = identity_tokens[0]
    if identity not in members:
        raise ParseError(f"identity {identity!r} not in carrier", item[0])

    item = next(lines, None)
    if item is None or _keyword_line(item[1], "table") is None:
        raise ParseError(f"group {op_id!r} missing 'table:' line",
                         item[0] if item else lineno)
    if _keyword_line(item[1], "table"):
        raise ParseError("'table:' line takes no inline entries", item[0])

    rows: dict[str, tuple[str, ...]] = {}
    for _ in carrier:
        item = next(lines, None)
        if item is None:
            raise ParseError(
                f"table of {op_id!r} has {len(rows)} rows, expected {len(carrier)}")
        lineno, tokens = item
        if not tokens[0].endswith(":"):
            raise ParseError("expected a table row '<element>: <entries>'", lineno)
        label = tokens[0][:-1]
        if label not in members:
            raise ParseError(f"row label {label!r} not in carrier", lineno)
        if label in rows:
            raise ParseError(f"duplicate table row for {label!r}", lineno)
        entries = tokens[1:]
        if len(entries) != len(carrier):
            raise ParseError(
                f"row {label!r} has {len(entries)} entries, expected {len(carrier)}",
                lineno)
        if not universe.issuperset(entries):
            unknown = next(tok for tok in entries if tok not in universe)
            raise ParseError(f"unknown element {unknown!r} in table", lineno)
        rows[label] = tuple(entries)

    table = tuple(rows[label] for label in carrier)
    return FiniteGroup(op_id, carrier, table, identity)


def serialize_instance(ms: MultiGroupSpace) -> str:
    """Canonical text form: deterministic, parse(serialize(x)) == x."""
    out = [f"elements: {' '.join(ms.universe)}"]
    for g in ms.groups:
        out.append(f"group {g.op_id}:")
        out.append(f"  carrier: {' '.join(g.carrier)}")
        out.append(f"  identity: {g.identity}")
        out.append("  table:")
        for label, row in zip(g.carrier, g.table):
            out.append(f"    {label}: {' '.join(row)}")
    return "\n".join(out) + "\n"
