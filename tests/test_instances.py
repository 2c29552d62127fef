from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from multigroup import FiniteGroup, MultiGroupSpace
from multigroup.errors import ParseError
from multigroup.instances import parse_instance, serialize_instance

import catalog
from conftest import INSTANCE_DIR, overlapping_pair_family, small_space_catalog
from oracles import scan_ints, scan_parse_instance, scan_tables

GOLDEN_DIR = Path(__file__).parent / "golden"
FIXTURES = ("gf3", "gf3_corrupt", "gf5", "z6units", "z2link", "z2z3", "z2z2",
            "z4z4", "s3", "z6", "z12", "klein", "trivial")

GF3_TEXT = """\
elements: 0 1 2
group +:
  carrier: 0 1 2
  identity: 0
  table:
    0: 0 1 2
    1: 1 2 0
    2: 2 0 1
group *:
  carrier: 1 2
  identity: 1
  table:
    1: 1 2
    2: 2 1
"""


def test_gf3_parses_to_the_catalog_space():
    assert parse_instance(GF3_TEXT) == catalog.prime_field(3)


@pytest.mark.parametrize("name", FIXTURES)
def test_fixture_files_round_trip(instance_dir, name):
    text = (instance_dir / f"{name}.mgs").read_text()
    ms = parse_instance(text)
    assert serialize_instance(ms) == text
    assert parse_instance(serialize_instance(ms)) == ms


def test_comments_and_blank_lines_are_ignored():
    noisy = "# header\n\nelements: 0 1 2  # the universe\n" + GF3_TEXT.split("\n", 1)[1]
    assert parse_instance(noisy) == catalog.prime_field(3)


def test_indentation_is_free_on_input():
    flat = GF3_TEXT.replace("    ", "").replace("  ", "")
    assert parse_instance(flat) == catalog.prime_field(3)


def test_a_leading_byte_order_mark_is_ignored():
    """A UTF-8 file may open with a byte-order mark, decoded as U+FEFF
    before the first token; only a leading one is dropped."""
    assert parse_instance("\ufeff" + GF3_TEXT) == catalog.prime_field(3)
    assert parse_instance("\ufeff# GF(3)\n" + GF3_TEXT) == catalog.prime_field(3)
    with pytest.raises(ParseError, match="expected 'elements:'") as err:
        parse_instance("\ufeff\ufeff" + GF3_TEXT)
    assert err.value.line == 1


def test_empty_file_rejected():
    with pytest.raises(ParseError, match="no universe declared"):
        parse_instance("")
    with pytest.raises(ParseError, match="no universe declared"):
        parse_instance("# only a comment\n")


def test_first_line_must_declare_elements():
    with pytest.raises(ParseError, match="expected 'elements:'"):
        parse_instance("group +:\n")


def test_duplicate_universe_element():
    with pytest.raises(ParseError, match="duplicate element '1'"):
        parse_instance("elements: 0 1 1\n")


def test_row_arity_error_carries_line_number():
    bad = GF3_TEXT.replace("    1: 1 2 0", "    1: 1 2")
    with pytest.raises(ParseError) as err:
        parse_instance(bad)
    assert "expected 3" in str(err.value)
    assert err.value.line == 7


def test_unknown_element_in_table():
    bad = GF3_TEXT.replace("    2: 2 0 1", "    2: 2 0 9")
    with pytest.raises(ParseError, match="unknown element '9' in table"):
        parse_instance(bad)


def test_entry_outside_carrier_still_parses():
    # 0 is in the universe but not the * carrier: a closure violation, not a
    # parse error
    bad = GF3_TEXT.replace("    2: 2 1", "    2: 2 0")
    ms = parse_instance(bad)
    from multigroup.spaces import validate_multigroup
    report = validate_multigroup(ms)
    assert "closure" in {v.kind for v in report.violations}


def test_duplicate_carrier_element():
    bad = GF3_TEXT.replace("carrier: 0 1 2", "carrier: 0 1 1")
    with pytest.raises(ParseError, match="duplicate element '1' in carrier"):
        parse_instance(bad)


def test_carrier_element_not_in_universe():
    bad = GF3_TEXT.replace("carrier: 1 2", "carrier: 1 9")
    with pytest.raises(ParseError, match="carrier element '9'"):
        parse_instance(bad)


def test_identity_must_be_in_carrier():
    bad = GF3_TEXT.replace("identity: 1", "identity: 0")
    with pytest.raises(ParseError, match="identity '0' not in carrier"):
        parse_instance(bad)


def test_missing_table_row():
    truncated = GF3_TEXT.rstrip("\n").rsplit("\n", 1)[0] + "\n"
    with pytest.raises(ParseError, match="has 1 rows, expected 2"):
        parse_instance(truncated)


def test_duplicate_table_row():
    bad = GF3_TEXT.replace("    2: 2 1", "    1: 1 2")
    with pytest.raises(ParseError, match="duplicate table row"):
        parse_instance(bad)


def test_unknown_row_label():
    bad = GF3_TEXT.replace("    2: 2 1", "    9: 2 1")
    with pytest.raises(ParseError, match="row label '9'"):
        parse_instance(bad)


def test_reserved_characters_rejected():
    with pytest.raises(ParseError, match="reserved"):
        parse_instance("elements: a:b c\n")


def test_group_header_shape():
    with pytest.raises(ParseError, match="expected 'group <op>:'"):
        parse_instance("elements: 0\nwhatever:\n")


def test_missing_group_sections():
    with pytest.raises(ParseError, match="missing 'carrier:'"):
        parse_instance("elements: 0\ngroup +:\n  identity: 0\n")
    with pytest.raises(ParseError, match="missing 'identity:'"):
        parse_instance("elements: 0\ngroup +:\n  carrier: 0\n  table:\n    0: 0\n")
    with pytest.raises(ParseError, match="missing 'table:'"):
        parse_instance("elements: 0\ngroup +:\n  carrier: 0\n  identity: 0\n")


def test_identity_line_arity():
    with pytest.raises(ParseError, match="exactly one element"):
        parse_instance("elements: 0 1\ngroup +:\n  carrier: 0 1\n"
                       "  identity: 0 1\n  table:\n    0: 0 1\n    1: 1 0\n")


def test_table_line_takes_no_inline_entries():
    with pytest.raises(ParseError, match="no inline entries"):
        parse_instance("elements: 0\ngroup +:\n  carrier: 0\n  identity: 0\n"
                       "  table: 0\n")


def test_table_row_requires_label_colon():
    with pytest.raises(ParseError, match="expected a table row"):
        parse_instance("elements: 0\ngroup +:\n  carrier: 0\n  identity: 0\n"
                       "  table:\n    0 0\n")


def test_rows_in_any_order():
    shuffled = GF3_TEXT.replace(
        "    0: 0 1 2\n    1: 1 2 0\n    2: 2 0 1",
        "    2: 2 0 1\n    0: 0 1 2\n    1: 1 2 0")
    assert parse_instance(shuffled) == catalog.prime_field(3)


_GROUP_HEAD = "elements: 0 1\ngroup +:\n  carrier: 0 1\n  identity: 0\n  table:\n"

# every ParseError the parser raises: the text, its exact message and line
PARSE_ERRORS = {
    "empty": ("", "no universe declared", None),
    "no-elements-line": ("group +:\n", "expected 'elements:' declaration", 1),
    "empty-universe": ("# c\nelements:\n", "universe is empty", 2),
    "reserved-in-universe": (
        "elements: a b a:b c,d # e#f\n",
        "invalid element token 'a:b' (':', ',' and '#' are reserved)", 1),
    "duplicate-in-universe": ("elements: 0 1 2 1 0\n", "duplicate element '1' in universe", 1),
    "group-header": ("elements: 0\nwhatever:\n", "expected 'group <op>:'", 2),
    "empty-op-id": ("elements: 0\ngroup :\n", "empty operation id", 2),
    "missing-carrier-at-end": ("elements: 0\n\ngroup +:\n",
                               "group '+' missing 'carrier:' line", 3),
    "missing-carrier": ("elements: 0\ngroup +:\n  identity: 0\n",
                        "group '+' missing 'carrier:' line", 3),
    "empty-carrier": ("elements: 0\ngroup +:\n  carrier:\n",
                      "group '+' missing 'carrier:' line", 3),
    "reserved-in-carrier": ("elements: 0\ngroup +:\n  carrier: 0 a,b\n",
                            "invalid element token 'a,b' (':', ',' and '#' are reserved)", 3),
    "carrier-outside-universe": ("elements: 0 1\ngroup +:\n  carrier: 1 9 8 1\n",
                                 "carrier element '9' not in universe", 3),
    "duplicate-in-carrier": ("elements: 0 1 2\ngroup +:\n  carrier: 0 1 0 1 9\n",
                             "duplicate element '0' in carrier", 3),
    "missing-identity-at-end": ("elements: 0\ngroup +:\n  carrier: 0\n",
                                "group '+' missing 'identity:' line", 3),
    "missing-identity": ("elements: 0\ngroup +:\n  carrier: 0\n  table:\n",
                         "group '+' missing 'identity:' line", 4),
    "identity-arity": ("elements: 0 1\ngroup +:\n  carrier: 0 1\n  identity: 0 1\n",
                       "identity line must name exactly one element", 4),
    "empty-identity": ("elements: 0 1\ngroup +:\n  carrier: 0 1\n  identity:\n",
                       "identity line must name exactly one element", 4),
    "identity-outside-carrier": ("elements: 0 1\ngroup +:\n  carrier: 1\n  identity: 0\n",
                                 "identity '0' not in carrier", 4),
    "missing-table-at-end": ("elements: 0\ngroup +:\n  carrier: 0\n  identity: 0\n",
                             "group '+' missing 'table:' line", 3),
    "missing-table": ("elements: 0\ngroup +:\n  carrier: 0\n  identity: 0\n  0: 0\n",
                      "group '+' missing 'table:' line", 5),
    "inline-table": ("elements: 0\ngroup +:\n  carrier: 0\n  identity: 0\n  table: 0\n",
                     "'table:' line takes no inline entries", 5),
    "too-few-rows": (_GROUP_HEAD + "    0: 0 1\n", "table of '+' has 1 rows, expected 2", None),
    "row-without-label": (_GROUP_HEAD + "    0: 0 1\n    1 1 0\n",
                          "expected a table row '<element>: <entries>'", 7),
    "unknown-row-label": (_GROUP_HEAD + "    0: 0 1\n    9: 1 0\n",
                          "row label '9' not in carrier", 7),
    "duplicate-row": (_GROUP_HEAD + "    0: 0 1\n    0: 1 0\n",
                      "duplicate table row for '0'", 7),
    "row-arity": (_GROUP_HEAD + "    0: 0 1 0\n", "row '0' has 3 entries, expected 2", 6),
    "unknown-entry": (_GROUP_HEAD + "    0: 0 1\n    1: 1 9 # 8\n",
                      "unknown element '9' in table", 7),
    "first-unknown-entry": (_GROUP_HEAD + "    0: 8 9\n",
                            "unknown element '8' in table", 6),
    "second-group": (_GROUP_HEAD + "    0: 0 1\n    1: 1 0\ngroup *:\n  carrier: 1 1\n",
                     "duplicate element '1' in carrier", 9),
    "repeated-op-id": (_GROUP_HEAD + "    0: 0 1\n    1: 1 0\ngroup +:\n  carrier: 0 0\n",
                       "operation id '+' declared twice", 8),
}


@pytest.mark.parametrize("case", sorted(PARSE_ERRORS))
def test_each_parse_error_names_its_line_and_first_culprit(case):
    """The message and line of every error path, and the first offending
    token in input order where a line holds several."""
    text, message, line = PARSE_ERRORS[case]
    with pytest.raises(ParseError) as err:
        parse_instance(text)
    assert (str(err.value), err.value.line) == \
        (message if line is None else f"line {line}: {message}", line)


# lines built from the format's own keywords, so that drawn texts get deep
# into the parser instead of failing on the first line
_NAMES = ["0", "1", "2", "e", "a"]
_KEYWORD_LINES = st.one_of(
    st.sampled_from(["", "# comment", "table:", "group +:", "group *:",
                     "group :", "group + :", "elements:", "carrier:",
                     "identity:", "elements: 0 1", "carrier: 0 1",
                     "identity: 0", "0: 0 1", "1: 1 0", "1: 1 2"]),
    st.builds(lambda head, toks: " ".join([head, *toks]),
              st.sampled_from(["elements:", "carrier:", "identity:", "table:",
                               "group", "0:", "1:", "e:", "x:", "  "]),
              st.lists(st.sampled_from(_NAMES + ["x", "+", "*", "::", "#c"]),
                       max_size=4)))


@st.composite
def _near_instances(draw):
    """A well-formed instance with up to two lines deleted or inserted."""
    universe = draw(st.lists(st.sampled_from(_NAMES), min_size=1, max_size=4,
                             unique=True))
    lines = ["elements: " + " ".join(universe)]
    for op in draw(st.lists(st.sampled_from(["+", "*", "o"]), max_size=2)):
        carrier = draw(st.lists(st.sampled_from(universe), min_size=1, unique=True))
        lines += [f"group {op}:", "  carrier: " + " ".join(carrier),
                  "  identity: " + draw(st.sampled_from(carrier)), "  table:"]
        for label in carrier:
            row = draw(st.lists(st.sampled_from(universe), min_size=len(carrier),
                                max_size=len(carrier)))
            lines.append(f"    {label}: " + " ".join(row))
    for _ in range(draw(st.integers(0, 2))):
        at = draw(st.integers(0, len(lines)))
        if draw(st.booleans()):
            lines.insert(at, draw(_KEYWORD_LINES))
        else:
            del lines[at:at + 1]
    return lines


def _parses_and_round_trips_or_rejects(text):
    try:
        ms = parse_instance(text)
    except ParseError:
        return
    assert parse_instance(serialize_instance(ms)) == ms


@settings(max_examples=300)
@given(st.text())
def test_arbitrary_text_parses_or_raises_parse_error(text):
    _parses_and_round_trips_or_rejects(text)


@settings(max_examples=300)
@given(st.one_of(st.lists(_KEYWORD_LINES, max_size=14), _near_instances()))
def test_keyword_line_soup_parses_or_raises_parse_error(lines):
    _parses_and_round_trips_or_rejects("\n".join(lines))


def _reader_corpus():
    """The lines of every catalog space, every corpus group alone, every
    space of the pair family and a space whose products leave a carrier,
    in canonical form."""
    spaces = [*small_space_catalog().values(), catalog.shipped("gf3_corrupt"),
              catalog.shipped("z4z4"), catalog.prime_field(7),
              *map(catalog.single, catalog.corpus_groups().values()),
              *overlapping_pair_family(6),
              parse_instance((GOLDEN_DIR / "escape.mgs").read_text(encoding="utf-8"))]
    return [serialize_instance(ms).splitlines() for ms in spaces]


_READER_LINES = _reader_corpus()
# tokens a mutation may put in place of another
_SWAPS = ["zz", "a:b", "x,y", "#", ":", "table:", "group", "carrier:", "0:"]


@st.composite
def _reshaped_texts(draw):
    """A corpus text with each table's rows in a drawn order, lines indented
    with tabs and spaces, comments at line ends and on lines of their own,
    blank lines, LF or CRLF ends, and perhaps one token or line deleted or
    doubled, or one token replaced."""
    lines = list(draw(st.sampled_from(_READER_LINES)))
    blocks: list[list[int]] = []  # the line numbers of each table's rows
    for i, line in enumerate(lines):
        if line.startswith("    "):
            if blocks and blocks[-1][-1] == i - 1:
                blocks[-1].append(i)
            else:
                blocks.append([i])
    for block in blocks:
        for i, line in zip(block, draw(st.permutations([lines[i] for i in block]))):
            lines[i] = line
    mutation = draw(st.sampled_from(["none", "replace", "delete", "double",
                                     "delete line", "double line"]))
    i = draw(st.integers(0, len(lines) - 1))
    if mutation.endswith("line"):
        lines[i:i + 1] = [] if mutation == "delete line" else [lines[i]] * 2
    elif mutation != "none":
        toks = lines[i].split()
        j = draw(st.integers(0, len(toks) - 1))
        universe = lines[0].split()[1:]
        if mutation == "replace":
            toks[j] = draw(st.sampled_from(universe) | st.sampled_from(_SWAPS))
        else:
            toks[j:j + 1] = [] if mutation == "delete" else [toks[j]] * 2
        lines[i] = " ".join(toks)
    out = []
    for line in lines:
        if draw(st.integers(0, 4)) == 0:
            out.append(draw(st.sampled_from(["", "  ", "\t", "# note: a, b", " \t# x"])))
        indent = draw(st.sampled_from(["", "  ", "\t", " \t "]))
        comment = draw(st.sampled_from(["", "", " # c", "\t#: x,y", "# 0 1"]))
        out.append(indent + line + comment)
    return draw(st.sampled_from(["\n", "\r\n"])).join(out) + \
        draw(st.sampled_from(["", "\n", "\r\n"]))


def _reads_alike(text):
    """The reader and the row-at-a-time oracle give the same space, or the
    same ParseError text and line. Each group holds its int table as the
    oracle's space builds it entry by entry, handed over by the parser or
    built by the space's constructor, and the space's tables built from
    them match too."""
    try:
        expected = scan_parse_instance(text)
    except ParseError as exc:
        with pytest.raises(ParseError) as err:
            parse_instance(text)
        assert (str(err.value), err.value.line) == (str(exc), exc.line)
        return
    ms = parse_instance(text)
    assert ms == expected and ms._index == expected._index
    for g, h in zip(ms.groups, expected.groups):
        assert g._index == h._index and "_ints" in g.__dict__
        assert g._ints == scan_ints(h)
    assert ms._tables == scan_tables(expected)


@settings(max_examples=300)
@given(_reshaped_texts())
def test_the_reader_matches_the_row_at_a_time_parser(text):
    _reads_alike(text)


@pytest.mark.parametrize("case", sorted(PARSE_ERRORS))
def test_the_reader_matches_the_row_at_a_time_parser_on_every_error(case):
    _reads_alike(PARSE_ERRORS[case][0])


@pytest.mark.parametrize("path", [*sorted(INSTANCE_DIR.glob("*.mgs")),
                                  *sorted(GOLDEN_DIR.glob("*.mgs"))],
                         ids=lambda path: path.stem)
def test_the_reader_matches_the_row_at_a_time_parser_on_every_file(path):
    # golden/escape.mgs has a product outside its carrier
    _reads_alike(path.read_text(encoding="utf-8"))


@pytest.mark.parametrize("path", [*sorted(INSTANCE_DIR.glob("*.mgs")),
                                  *sorted(GOLDEN_DIR.glob("*.mgs"))],
                         ids=lambda path: path.stem)
def test_the_parser_hands_each_group_only_its_int_rows(path):
    """Before any query a parsed space holds its fields and what its
    constructor builds, each carrier's universe positions among it, and
    each group the same plus its int rows: the parser hands them over when
    no product leaves the carrier, and the space's constructor builds the
    rest as it checks the products outside each carrier. The records
    rebuilt from their fields alone derive equal state, int rows
    included."""
    ms = parse_instance(path.read_text(encoding="utf-8"))
    assert set(vars(ms)) == {"universe", "groups", "op_set", "_positions", "_index",
                             "_at", "_carriers"}
    assert ms._at == tuple(tuple(map(ms.index, g.carrier)) for g in ms.groups)
    for g in ms.groups:
        assert set(vars(g)) == {"op_id", "carrier", "table", "identity", "order", "_index",
                                "_ints"}
    rebuilt = MultiGroupSpace(ms.universe, tuple(
        FiniteGroup(g.op_id, g.carrier, g.table, g.identity) for g in ms.groups))
    assert vars(rebuilt) == vars(ms)
    for g, h in zip(ms.groups, rebuilt.groups):
        assert vars(h) == vars(g)
