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

The text is read once. Each table entry is mapped to its carrier index as
its row is read. The records build their own indices when constructed, so
the rows are the only state handed over: when no product leaves the
carrier, they are the group's int table (FiniteGroup._ints), from which the
space's universe-index tables (MultiGroupSpace._tables) are built when
first read, so no later step reads a string table to build them. Only a
row with a product outside the carrier checks its tokens against the
universe.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import islice

from .errors import ParseError
from .groups import Element, FiniteGroup
from .spaces import MultiGroupSpace

_RESERVED = set(":#,")


def _lines(text: str) -> list[tuple[int, list[str]]]:
    """(line number, tokens) of each line that holds a token."""
    return [(lineno, tokens) for lineno, raw in enumerate(text.splitlines(), 1)
            if (tokens := raw.split("#", 1)[0].split())]


def _keyword_line(tokens: list[str], keyword: str) -> list[str] | None:
    if tokens and tokens[0] == f"{keyword}:":
        return tokens[1:]
    return None


def _element_line(tokens: list[str], lineno: int, what: str,
                  universe: dict[Element, int] | None = None) -> dict[Element, int]:
    """The position of each token of an element line. Raises on a line
    with no token ("universe is empty", "carrier is empty"), and on the
    first token, in line order, that holds a reserved character, lies
    outside the universe (when given) or repeats an earlier one."""
    if not tokens:
        raise ParseError(f"{what} is empty", lineno)
    out = dict(zip(tokens, range(len(tokens))))
    if len(out) < len(tokens) or not _RESERVED.isdisjoint("".join(tokens)) or \
            universe is not None and not out.keys() <= universe.keys():
        seen = set()
        for tok in tokens:
            if not _RESERVED.isdisjoint(tok):
                raise ParseError(f"invalid element token {tok!r} "
                                 f"(':', ',' and '#' are reserved)", lineno)
            if universe is not None and tok not in universe:
                raise ParseError(f"carrier element {tok!r} not in universe", lineno)
            if tok in seen:
                raise ParseError(f"duplicate element {tok!r} in {what}", lineno)
            seen.add(tok)
    return out


def parse_instance(text: str) -> MultiGroupSpace:
    """Parse instance text, enforcing structural invariants with line numbers.
    A leading byte-order mark is ignored."""
    lines = iter(_lines(text.removeprefix("\ufeff")))

    first = next(lines, None)
    if first is None:
        raise ParseError("no universe declared")
    lineno, tokens = first
    universe_tokens = _keyword_line(tokens, "elements")
    if universe_tokens is None:
        raise ParseError("expected 'elements:' declaration", lineno)
    index = _element_line(universe_tokens, lineno, "universe")

    groups = []
    for lineno, tokens in lines:
        if len(tokens) != 2 or tokens[0] != "group" or not tokens[1].endswith(":"):
            raise ParseError("expected 'group <op>:'", lineno)
        op_id = tokens[1][:-1]
        if not op_id:
            raise ParseError("empty operation id", lineno)
        if any(g.op_id == op_id for g in groups):
            raise ParseError(f"operation id {op_id!r} declared twice", lineno)
        groups.append(_parse_group(lines, op_id, index, lineno))

    return MultiGroupSpace(tuple(universe_tokens), tuple(groups))


def _parse_group(lines: Iterator[tuple[int, list[str]]], op_id: str,
                 universe: dict[Element, int], header_line: int) -> FiniteGroup:
    item = next(lines, None)
    carrier_tokens = item and _keyword_line(item[1], "carrier")
    if carrier_tokens is None:
        raise ParseError(f"group {op_id!r} missing 'carrier:' line",
                         item[0] if item else header_line)
    lineno = item[0]
    members = _element_line(carrier_tokens, lineno, "carrier", universe)
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

    size, escaped = len(carrier), False
    labels = {f"{e}:": i for e, i in members.items()}
    table: list = [None] * size   # each row's tokens, at its label's carrier index
    rows: list = [None] * size    # the same row over carrier indices
    at_carrier = members.__getitem__
    for lineno, tokens in islice(lines, size):
        i = labels.get(tokens[0])
        if i is None or table[i] is not None or len(tokens) != size + 1:
            label = tokens[0][:-1]
            if not tokens[0].endswith(":"):
                raise ParseError("expected a table row '<element>: <entries>'", lineno)
            if i is None:
                raise ParseError(f"row label {label!r} not in carrier", lineno)
            if table[i] is not None:
                raise ParseError(f"duplicate table row for {label!r}", lineno)
            raise ParseError(f"row {label!r} has {len(tokens) - 1} entries, "
                             f"expected {size}", lineno)
        entries = tokens[1:]
        try:
            rows[i] = list(map(at_carrier, entries))
        except KeyError:  # a product outside the carrier, or no element at all
            unknown = next((tok for tok in entries if tok not in universe), None)
            if unknown is not None:
                raise ParseError(f"unknown element {unknown!r} in table", lineno) from None
            escaped = True
        table[i] = tuple(entries)
    if None in table:
        raise ParseError(
            f"table of {op_id!r} has {size - table.count(None)} rows, expected {size}")

    g = FiniteGroup(op_id, carrier, tuple(table), identity)
    if not escaped:  # else _ints numbers the products outside the carrier itself
        g.__dict__["_ints"] = rows, ()
    return g


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
