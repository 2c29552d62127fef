import json
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from multigroup import cli
from multigroup.groups import FiniteGroup
from multigroup.instances import parse_instance
from multigroup.spaces import MultiGroupSpace

from conftest import INSTANCE_DIR, run_cli
from test_golden import EXTRA, INSTANCES, _invocations


def path(name):
    return str(INSTANCE_DIR / f"{name}.mgs")


def test_validate_gf3_passes_and_classifies_field():
    out, code = run_cli(["validate", path("gf3")])
    assert code == 0
    assert "verdict: valid" in out
    assert "classification: field" in out


def test_validate_corrupt_gf3_fails_with_inverse_witness():
    out, code = run_cli(["validate", path("gf3_corrupt")])
    assert code == 1
    assert "kind: inverse" in out and "- 2" in out


def test_validate_z4z4_fails_on_distribution():
    out, code = run_cli(["validate", path("z4z4")])
    assert code == 1
    assert "kind: distribution" in out


def test_classify_commands():
    out, code = run_cli(["classify", path("s3")])
    assert code == 0 and "classification: group" in out
    out, code = run_cli(["classify", path("z2z3")])
    assert code == 0 and "classification: general" in out
    # classification precondition fails on an invalid instance
    out, code = run_cli(["classify", path("gf3_corrupt")])
    assert code == 2 and "error" in out


def test_subspace_prints_both_readings_and_flags_disagreement():
    out, code = run_cli(["subspace", path("gf3"), "--set", "0,1", "--ops", "+,*"])
    assert code == 0
    assert "routes_agree: true" in out
    assert "raw_union_reading: false" in out
    assert "raw_reading_disagrees: true" in out


@pytest.mark.parametrize("argv", [["--set", "0", "--ops", ","], ["--set", ","]],
                         ids=["no-operation", "no-element"])
def test_a_subset_retaining_no_operation_is_no_subspace_by_any_reading(argv):
    out, code = run_cli(["subspace", path("gf3"), *argv])
    assert code == 1
    assert {"retained_ops: []", "completeness_route: false", "raw_union_reading: false",
            "raw_reading_disagrees: false"} <= set(out.splitlines()), out


def test_subspace_failure_exits_one():
    out, code = run_cli(["subspace", path("gf3"), "--set", "0,2", "--ops", "+"])
    assert code == 1


def test_subspace_structural_errors_exit_two():
    _, code = run_cli(["subspace", path("gf3"), "--set", "0,9", "--ops", "+"])
    assert code == 2
    _, code = run_cli(["subspace", path("gf3"), "--set", "0", "--ops", "nope"])
    assert code == 2
    _, code = run_cli(["subspace", path("gf3")])  # --set missing
    assert code == 2


def test_cosets_partition_and_precondition():
    out, code = run_cli(["cosets", path("gf3"), "--set", "0,1", "--ops", "+,*"])
    assert code == 0 and "verdict: partition" in out
    _, code = run_cli(["cosets", path("gf3"), "--set", "0,2", "--ops", "+"])
    assert code == 2  # not a subspace


def test_cosets_report_genuine_partition_failure():
    out, code = run_cli(["cosets", path("z2link"), "--set", "0,1,2"])
    assert code == 1
    assert "verdict: not a partition" in out
    assert "overlap: {1}" in out


def test_normal_command_shows_both_routes():
    out, code = run_cli(["normal", path("s3"), "--set", "e,(123),(132)"])
    assert code == 0
    assert "conjugation_route: true" in out and "criterion_route: true" in out
    out, code = run_cli(["normal", path("s3"), "--set", "e,(12)"])
    assert code == 1 and "witness" in out


def test_series_command_reports_anomalies():
    out, code = run_cli(["series", path("gf3"), "--order", "+,*"])
    assert code == 0
    assert "CARRIER_LOST:*" in out and "TERMINAL_MISMATCH" in out


def test_maximal_series_constant_reported():
    out, code = run_cli(["maximal-series", path("z2z3"), "--order", "a,b"])
    assert code == 0
    assert "constant_length: 2" in out
    assert "cross_sequence_constant: true" in out


def test_maximal_series_bound_exceeded_exits_three():
    _, code = run_cli(["maximal-series", path("z12"),
                       "--exhaustive-bound", "8"])
    assert code == 3


REPEATED_OP = """elements: 0 1 2 3
group +:
  carrier: 0 1
  identity: 0
  table:
    0: 0 1
    1: 1 0
group +:
  carrier: 2 3
  identity: 2
  table:
    2: 2 3
    3: 3 2
"""


def test_a_repeated_operation_id_is_a_parse_error_for_every_command(tmp_path):
    """The second '+' is refused at its header, so no command reads one
    '+' table and misses the other, as subspace on {2, 3}, the second
    group, would."""
    fp = tmp_path / "space.mgs"
    fp.write_text(REPEATED_OP, encoding="utf-8")
    for command, (_, selection) in cli._COMMANDS.items():
        out, code = run_cli([command, str(fp), *["--set", "2,3"] * ("set" in selection),
                             "--json"])
        report = json.loads(out)
        assert code == 2 and report["error_kind"] == "parse", command
        assert report["error"] == "line 8: operation id '+' declared twice"


def test_span_and_generators():
    out, code = run_cli(["span", path("gf3"), "--set", "1"])
    assert code == 0
    assert "span_once: {1, 2}" in out
    assert "span_closure: {0, 1, 2}" in out
    out, code = run_cli(["generators", path("z2z3")])
    assert code == 0
    assert "witness: {a1, b1}" in out and "minimal: true" in out


def test_generator_budget_refusal_exits_three(monkeypatch):
    from multigroup.config import Limits
    monkeypatch.setattr(cli, "DEFAULT_LIMITS", Limits(max_generator_candidates=1))
    out, code = run_cli(["generators", path("gf5"), "--json"])
    report = json.loads(out)
    assert code == 3 and report["error_kind"] == "bound-exceeded"
    assert "examined 1 candidate sets" in report["error"]
    assert "max_generator_candidates = 1" in report["error"]


def test_missing_file_and_parse_errors_exit_two(tmp_path):
    _, code = run_cli(["validate", str(tmp_path / "nope.mgs")])
    assert code == 2
    bad = tmp_path / "bad.mgs"
    bad.write_text("elements: 0 0\n")
    out, code = run_cli(["validate", str(bad)])
    assert code == 2 and "line 1" in out


@pytest.mark.parametrize("kind", ["directory", "undecodable"])
def test_unreadable_instance_path_exits_two(tmp_path, kind):
    target = tmp_path
    if kind == "undecodable":
        target = tmp_path / "bad.mgs"
        target.write_bytes(b"\xff\xfeelements: a\n")  # a UTF-16 byte order mark
    out, code = run_cli(["validate", str(target), "--json"])
    assert code == 2
    data = json.loads(out)
    assert data["error_kind"] == "parse"
    assert data["error"].startswith(f"cannot read {target}:")


@pytest.mark.parametrize("end", ["\r\n", "\r"], ids=["crlf", "cr"])
def test_a_file_with_comments_and_other_line_ends_reads_as_the_plain_one(tmp_path, end):
    """The file is read as bytes and decoded once; its line ends are the
    reader's to split, so every report matches the plain file's."""
    plain = INSTANCE_DIR / "gf5.mgs"
    lines = [f"\t{line} # {i}: a, b" for i, line in enumerate(plain.read_text().splitlines())]
    target = tmp_path / "gf5.mgs"
    target.write_bytes(end.join(["# GF(5)", "", *lines, ""]).encode("utf-8"))
    for command in ("validate", "classify", "series"):
        out, code = run_cli([command, str(target), "--json"])
        expected, expected_code = run_cli([command, str(plain), "--json"])
        assert (out.replace(str(target), str(plain)), code) == (expected, expected_code)


def test_a_file_with_a_byte_order_mark_classifies_as_the_plain_one(tmp_path):
    """Some editors open a UTF-8 file with a byte-order mark; the reader
    drops it, so the first line still declares the elements."""
    plain = INSTANCE_DIR / "gf5.mgs"
    target = tmp_path / "gf5.mgs"
    target.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    for flags in ([], ["--json"]):
        out, code = run_cli(["classify", str(target), *flags])
        expected, expected_code = run_cli(["classify", str(plain), *flags])
        assert (out.replace(str(target), str(plain)), code) == (expected, expected_code)
        assert code == 0 and "field" in out


@pytest.mark.parametrize("instance, expected", [
    ("missing.mgs", (2, "parse", "no such file: missing.mgs")),
    (".", (2, "parse", "cannot read .: Is a directory")),
    ("", (2, "parse", "cannot read : Is a directory")),
    ("plain.mgs/x", (2, "parse", "no such file: plain.mgs/x")),
    ("dangling.mgs", (2, "parse", "no such file: dangling.mgs")),
    ("loop.mgs", (2, "parse", "no such file: loop.mgs")),
    ("a\0b", (2, "parse", "no such file: a\0b")),
    ("bad.mgs", (2, "parse", "cannot read bad.mgs: 'utf-8' codec can't decode "
                             "byte 0xff in position 0: invalid start byte")),
    ("/", (2, "parse", "cannot read /: Is a directory")),
    ("plain.mgs/", (0, None, None)),
    (".//plain.mgs", (0, None, None)),
    ("plain.mgs/.", (0, None, None)),
    ("./plain.mgs", (0, None, None)),
], ids=["missing", "dot", "empty", "under-a-file", "dangling", "loop", "nul",
        "undecodable", "root", "trailing-slash", "double-slash", "trailing-dot",
        "leading-dot"])
def test_instance_read_errors_follow_path_semantics(tmp_path, monkeypatch,
                                                     instance, expected):
    """A path answers 'no such file' exactly where Path.exists() is false
    (ENOENT, ENOTDIR, ELOOP, a NUL) and 'cannot read' on every other
    failure; Path's normalisation of '', '.' parts and a trailing '/' is
    kept."""
    (tmp_path / "plain.mgs").write_text((INSTANCE_DIR / "gf5.mgs").read_text())
    (tmp_path / "bad.mgs").write_bytes(b"\xffelements: a\n")
    (tmp_path / "dangling.mgs").symlink_to("nowhere")
    (tmp_path / "loop.mgs").symlink_to("loop.mgs")
    monkeypatch.chdir(tmp_path)
    out, code = run_cli(["validate", instance, "--json"])
    data = json.loads(out)
    assert (code, data.get("error_kind"), data.get("error")) == expected


@pytest.mark.parametrize("bound", ["0", "-1"])
def test_exhaustive_bound_below_one_exits_two(bound):
    out, code = run_cli(["maximal-series", path("z12"),
                         "--exhaustive-bound", bound, "--json"])
    assert code == 2
    data = json.loads(out)
    assert data["error_kind"] == "input"
    assert data["error"] == f"--exhaustive-bound must be at least 1, got {bound}"


def test_subspace_on_corrupt_multiplication_names_the_missing_inverse():
    out, code = run_cli(["subspace", path("gf3_corrupt"), "--set", "0,2", "--json"])
    assert code == 2
    assert json.loads(out)["error"] == "'2' has no inverse under '*'"


def test_the_parser_is_built_once_and_survives_its_errors(monkeypatch):
    """main builds the parser on its first call and keeps it; an argparse
    error still exits 2, and the next call in the process still answers."""
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    cli._parser.cache_clear()
    try:
        for argv in (["validate"], ["nope", path("gf5")],
                     ["validate", path("gf5"), "--exhaustive-bound", "x"]):
            with pytest.raises(SystemExit) as exc:
                cli.main(argv)
            assert exc.value.code == 2, argv
        out, code = run_cli(["validate", path("gf5"), "--json"])
        assert code == 0 and json.loads(out)["verdict"] == "valid"
        out, code = run_cli(["generators", path("z2z3")])
        assert code == 0 and "witness: {a1, b1}" in out
        assert built == [1]
    finally:
        cli._parser.cache_clear()


def test_json_reports_are_valid_json():
    out, code = run_cli(["validate", path("gf3"), "--json"])
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "valid"
    assert data["classification"] == "field"
    assert data["exit_code"] == 0


def test_json_and_text_agree_on_verdict():
    text, _ = run_cli(["subspace", path("gf3"), "--set", "0,1"])
    blob, _ = run_cli(["subspace", path("gf3"), "--set", "0,1", "--json"])
    data = json.loads(blob)
    assert ("completeness_route: true" in text) == data["completeness_route"]


def test_in_process_matches_subprocess():
    argv = ["validate", path("gf3")]
    inproc, code = run_cli(argv)
    proc = subprocess.run([sys.executable, "-m", "multigroup.cli", *argv],
                          capture_output=True, text=True)
    assert proc.returncode == code
    assert proc.stdout == inproc


def test_timing_flag_adds_the_field():
    out, _ = run_cli(["validate", path("gf3"), "--timing"])
    assert "timing_ms:" in out
    out, _ = run_cli(["validate", path("gf3")])
    assert "timing_ms" not in out


MULTI_ESCAPE = """elements: e a d b c
group *:
  carrier: e a d
  identity: e
  table:
    e: e a d
    a: a d b
    d: d c e
group +:
  carrier: b c
  identity: b
  table:
    b: b c
    c: c b
"""

MISSING_INVERSES = """elements: e a b
group *:
  carrier: e a b
  identity: e
  table:
    e: e a b
    a: a a a
    b: b b b
"""


ONE_ELEMENT_TWO_OPS = """elements: e
group +:
  carrier: e
  identity: e
  table:
    e: e
group *:
  carrier: e
  identity: e
  table:
    e: e
"""

ORPHAN = """elements: e a x
group *:
  carrier: e a
  identity: e
  table:
    e: e a
    a: a e
"""


@pytest.mark.parametrize("text, argv, code, lines", [
    (ONE_ELEMENT_TWO_OPS, ["validate"], 0,
     ["verdict: valid", "classification: field", "carrier_convention: exact"]),
    (ONE_ELEMENT_TWO_OPS, ["classify"], 0,
     ["classification: field", "carrier_convention: exact"]),
    ((INSTANCE_DIR / "gf5.mgs").read_text(encoding="utf-8"), ["span"], 2,
     ["error: --set is required for this command", "error_kind: input"]),
    (ORPHAN, ["subspace", "--set", "x"], 1,
     ["retained_ops: []", "  intersections: {}", "  parts: none"]),
], ids=["exact-field-validate", "exact-field-classify", "span-without-set",
        "orphan-subset"])
def test_reports_no_golden_file_holds(tmp_path, text, argv, code, lines):
    """Both carriers fill a one-element universe exactly; span needs --set;
    an element in no carrier gives a subset that retains no operation, so
    the intersection route has no intersections to print."""
    fp = tmp_path / "space.mgs"
    fp.write_text(text, encoding="utf-8")
    out, got = run_cli([argv[0], str(fp), *argv[1:]])
    assert got == code and set(lines) <= set(out.splitlines()), out


@pytest.mark.parametrize("text, argv, message", [
    (MULTI_ESCAPE, ["--set", "e,a"], "error: 'b' is not in the carrier of '*'"),
    (MISSING_INVERSES, ["--set", "e,a", "--ops", "*"],
     "error: 'a' has no inverse under '*'"),
    (MISSING_INVERSES, ["--set", "xx,yy,zz"], "error: 'xx' is not in the universe"),
], ids=["escape", "inverse", "unknown"])
def test_error_reports_do_not_depend_on_the_hash_seed(tmp_path, text, argv, message):
    fp = tmp_path / "space.mgs"
    fp.write_text(text)
    outputs = set()
    for seed in range(4):
        env = dict(os.environ, PYTHONHASHSEED=str(seed))
        run = subprocess.run(
            [sys.executable, "-m", "multigroup.cli", "subspace", str(fp), *argv],
            capture_output=True, text=True, env=env)
        assert run.returncode == 2, run.stderr
        outputs.add(run.stdout)
    assert len(outputs) == 1
    assert message in outputs.pop()


# ------------------------------------------------ the direct argv reader

OPTION_STRINGS = ["--set", "--ops", "--order", "--json", "--timing",
                  "--exhaustive-bound", "-h", "--help"]
VALUE_OPTIONS = ["--set", "--ops", "--order", "--exhaustive-bound"]
ORDINARY = ["", "0", "0,1", "a,b", "+,*", "3", " 7 ", "12", "x y", "validate",
            "gf5.mgs"]
TOKENS = OPTION_STRINGS + ORDINARY + [
    "--js", "--ti", "--exh", "--se", "--or", "--op", "--set=0,1",
    "--exhaustive-bound=3", "--json=1", "--nope", "--", "-", "-1", "-1,1"]
# any token alone, or a flag, or a value option with an ordinary value, as
# most argvs are
CHUNKS = st.one_of(
    st.sampled_from(TOKENS).map(lambda token: [token]),
    st.sampled_from(["--json", "--timing"]).map(lambda flag: [flag]),
    st.tuples(st.sampled_from(VALUE_OPTIONS), st.sampled_from(ORDINARY)).map(list))


@settings(max_examples=1000)
@given(st.sampled_from([*cli._COMMANDS, "nope", "--help"]),
       st.sampled_from(["gf5.mgs", "", "a b", "validate", "-1", "--json"]),
       st.lists(CHUNKS, max_size=4).map(lambda chunks: sum(chunks, [])),
       st.sampled_from([True, True, False]))
def test_the_direct_reader_agrees_with_argparse(command, instance, rest,
                                               instance_first):
    argv = [command, instance, *rest] if instance_first else [command, *rest, instance]
    args = cli._plain_args(argv)
    if args is not None:
        assert vars(args) == vars(cli._parser().parse_args(argv))


def golden_argvs():
    """The argv of every golden invocation, without --json."""
    for file in INSTANCES:
        ms = parse_instance(file.read_text(encoding="utf-8"))
        for command, *rest in [*_invocations(ms), *EXTRA.get(file.stem, [])]:
            yield [command, str(file), *rest]


def test_the_golden_invocations_are_read_directly():
    for golden in golden_argvs():
        for argv in (golden, [*golden, "--json", "--timing", "--exhaustive-bound",
                              "9", "--exhaustive-bound", "24"]):
            args = cli._plain_args(argv)
            assert args is not None, argv
            assert vars(args) == vars(cli._parser().parse_args(argv))


@pytest.mark.parametrize("file", INSTANCES, ids=lambda file: file.stem)
def test_no_command_without_a_set_looks_an_element_up_by_name(file, monkeypatch):
    """The constructors keep every carrier's, identity's and escaped
    product's position, so the commands that name no element read none of
    them by name: neither the group's nor the space's index is called."""
    calls = []
    for cls in (FiniteGroup, MultiGroupSpace):
        def index(self, element, original=cls.index):
            calls.append((type(self).__name__, element))
            return original(self, element)
        monkeypatch.setattr(cls, "index", index)
    for command in ("validate", "classify", "series", "maximal-series", "generators"):
        for fmt in ([], ["--json"]):
            run_cli([command, str(file), *fmt])
    assert calls == []


@pytest.mark.parametrize("argv, expected", [
    (["validate", "gf5.mgs", "--js"], {"json": True}),
    (["subspace", "gf3.mgs", "--set=0,1"], {"set": "0,1"}),
    (["validate", "--json", "gf5.mgs"], {"json": True}),
    (["maximal-series", "z12.mgs", "--exhaustive-bound", "-1"],
     {"exhaustive_bound": -1}),
    (["validate", "gf5.mgs", "--exh", "3"], {"exhaustive_bound": 3}),
], ids=["abbreviation", "equals", "option-first", "negative",
        "abbreviated-value"])
def test_argvs_outside_the_plain_form_go_to_argparse(argv, expected):
    assert cli._plain_args(argv) is None
    read = vars(cli._parser().parse_args(argv))
    assert read == {**read, **expected}


@pytest.mark.parametrize("argv, code", [
    (["--help"], 0),
    (["validate", "gf5.mgs", "-h"], 0),
    (["validate", "gf5.mgs", "--help"], 0),
    (["validate", "gf5.mgs", "--nope"], 2),
    (["validate", "gf5.mgs", "extra"], 2),
    (["validate", "gf5.mgs", "--set", "0"], 2),
    (["subspace", "gf3.mgs", "--set"], 2),
    (["subspace", "gf3.mgs", "--set", "--json"], 2),
    (["span", "gf3.mgs", "--set", "-1,1"], 2),
    (["span", "gf3.mgs", "--set", "1", "--ops", "nope"], 2),
    (["validate", "gf5.mgs", "--exhaustive-bound", "x"], 2),
    (["validate", "gf5.mgs", "--exhaustive-bound", "x",
      "--exhaustive-bound", "3"], 2),
], ids=["top-help", "short-help", "help", "unknown", "extra-positional",
        "foreign-option", "missing-value", "option-as-value", "dash-value",
        "span-ops", "not-an-int", "not-an-int-then-an-int"])
def test_argparse_answers_help_and_usage_errors(argv, code, capsys):
    assert cli._plain_args(argv) is None
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == code
    out, err = capsys.readouterr()
    assert ("usage: mgs" in out) if code == 0 else ("usage: mgs" in err)


@pytest.mark.parametrize("argv", [["validate", path("gf5"), "--json"],
                                  ["validate", path("gf5"), "--js"]],
                         ids=["plain", "abbreviated"])
def test_main_reads_sys_argv_when_given_none(monkeypatch, argv):
    monkeypatch.setattr(sys, "argv", ["mgs", *argv])
    out, code = run_cli(None)
    assert code == 0 and json.loads(out)["verdict"] == "valid"


# ------------------------------------------------------ the JSON writer

TEXT = st.text(st.one_of(st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\u2028é€𝄞'),
                         st.characters()), max_size=8)
SCALARS = st.one_of(TEXT, st.integers(), st.integers(-2 ** 100, 2 ** 100),
                    st.booleans(), st.none(),
                    st.floats(allow_nan=False, allow_infinity=False))
VALUES = st.recursive(
    SCALARS, lambda inner: st.one_of(st.lists(inner, max_size=4),
                                     st.lists(inner, max_size=4).map(tuple),
                                     st.dictionaries(TEXT, inner, max_size=4)),
    max_leaves=20)


@settings(max_examples=200)
@given(st.dictionaries(TEXT, VALUES, max_size=5))
def test_the_json_writer_matches_json_dumps(payload):
    assert cli.render_report(payload, True) == \
        json.dumps(payload, indent=2, sort_keys=True) + "\n"


def test_the_json_writer_refuses_what_json_dumps_refuses():
    """A value with no JSON form raises json.dumps's TypeError, same text."""
    payload = {"x": object()}
    with pytest.raises(TypeError) as dumped:
        json.dumps(payload, indent=2, sort_keys=True)
    with pytest.raises(TypeError) as written:
        cli.render_report(payload, True)
    assert str(written.value) == str(dumped.value) == \
        "Object of type object is not JSON serializable"


def test_a_tuple_renders_as_the_equal_list():
    """Payloads hold records' tuples as they are; each renders byte for byte
    as the equal list, the empty one included, in text and in JSON."""
    def payload(seq):
        return {"ops": seq(("+", "*")), "none": seq(()),
                "rows": [{"witness": seq(("a", "b")), "empty": seq(())}],
                "nested": {"order": seq(("b", "a"))}}
    for as_json in False, True:
        assert cli.render_report(payload(tuple), as_json) == \
            cli.render_report(payload(list), as_json)


def test_the_json_writer_matches_json_dumps_on_the_golden_reports():
    for argv in golden_argvs():
        payload, _ = cli.run_command(cli._plain_args([*argv, "--json", "--timing"]))
        assert cli.render_report(payload, True) == \
            json.dumps(payload, indent=2, sort_keys=True) + "\n"
