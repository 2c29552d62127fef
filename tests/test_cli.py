import json
import os
import subprocess
import sys

import pytest

from conftest import INSTANCE_DIR, run_cli


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


def test_span_and_generators():
    out, code = run_cli(["span", path("gf3"), "--set", "1"])
    assert code == 0
    assert "span_once: {1, 2}" in out
    assert "span_closure: {0, 1, 2}" in out
    out, code = run_cli(["generators", path("z2z3")])
    assert code == 0
    assert "witness: {a1, b1}" in out and "minimal: true" in out


def test_missing_file_and_parse_errors_exit_two(tmp_path):
    _, code = run_cli(["validate", str(tmp_path / "nope.mgs")])
    assert code == 2
    bad = tmp_path / "bad.mgs"
    bad.write_text("elements: 0 0\n")
    out, code = run_cli(["validate", str(bad)])
    assert code == 2 and "line 1" in out


def test_unreadable_instance_path_exits_two(tmp_path):
    out, code = run_cli(["validate", str(tmp_path), "--json"])
    assert code == 2
    data = json.loads(out)
    assert data["error_kind"] == "parse"
    assert data["error"].startswith(f"cannot read {tmp_path}:")


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


@pytest.mark.parametrize("text, argv, message", [
    (MULTI_ESCAPE, ["--set", "e,a"], "error: 'b' is not in the carrier of '*'"),
    (MISSING_INVERSES, ["--set", "e,a", "--ops", "*"],
     "error: 'a' has no inverse under '*'"),
], ids=["escape", "inverse"])
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
