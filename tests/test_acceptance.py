"""Acceptance suite: one test per criterion, each printing its verdict line.

Every expected value asserted here was computed by the independent
brute-force oracles in oracles.py (unpruned subset scans, direct recursive
chain enumeration, exhaustive candidate-product covers) before the engine
was trusted. Run with `pytest tests/test_acceptance.py -v -s`.
"""

import json
import random
import subprocess
import sys

from multigroup.generation import GeneratingSet, is_finitely_generated, span_closure
from multigroup.groups import composition_series, subgroups
from multigroup.series import (is_normal_subspace, length_invariance_check,
                               normality_criterion)
from multigroup.spaces import classify_special_case, validate_multigroup
from multigroup.subspaces import (SubsetRef, coset_decomposition, is_subspace,
                                  is_subspace_by_completeness,
                                  is_subspace_by_intersection)

import catalog
from command_matrix import COMMAND_MATRIX, _fill
from conftest import (INSTANCE_DIR, run_cli, small_space_catalog,
                      subset_op_combinations, subspaces_of)
from oracles import brute_composition_chains, brute_subgroups, raw_group

CORPUS = catalog.corpus_groups()

SMALL_SPACES = small_space_catalog()

SINGLE_OP_SPACES = {
    name: catalog.single(g) for name, g in sorted(CORPUS.items())
}

ALL_FIXTURE_FILES = sorted(p.name for p in INSTANCE_DIR.glob("*.mgs"))


def report(line):
    print(line)


def test_c1_lagrange_exhaustive():
    """Every enumerated subgroup order divides the group order, all corpus groups."""
    violations = 0
    for name, g in sorted(CORPUS.items()):
        enumerated = subgroups(g)
        # cross-check the enumeration itself against the unpruned oracle
        assert {frozenset(s) for s in enumerated} == \
            set(brute_subgroups(*raw_group(g))), name
        violations += sum(1 for s in enumerated if g.order % len(s) != 0)
    assert violations == 0
    report(f"[PASS] C1 Lagrange: 0 violations across {len(CORPUS)} corpus groups")


def test_c2_jordan_holder_lengths():
    """Exhaustive chain enumeration yields one length per group; spot values hold."""
    for name, g in sorted(CORPUS.items()):
        chains = composition_series(g)
        lengths = {c.length for c in chains}
        assert len(lengths) == 1, (name, lengths)
        expected = {tuple(c) for c in brute_composition_chains(*raw_group(g))}
        got = {tuple(frozenset(l) for l in c.links) for c in chains}
        assert got == expected, name
    spots = {"S3": 2, "Z12": 3, "A4": 3}
    for name, value in spots.items():
        assert {c.length for c in composition_series(CORPUS[name])} == {value}
    report(f"[PASS] C2 Jordan-Holder: single length per group; "
           f"spot S3=2 Z12=3 A4=3 confirmed")


def test_c3_subspace_routes_agree():
    """Both subspace code paths agree on every subset/op combination (<=8)."""
    checked = 0
    disagreements = 0
    for name, ms in sorted(SMALL_SPACES.items()):
        for s in subset_op_combinations(ms):
            checked += 1
            if is_subspace(ms, s) != is_subspace_by_intersection(ms, s).ok:
                disagreements += 1
    assert disagreements == 0
    # the pinned regression: the raw union reading disagrees on gf3 {0,1}
    gf3 = SMALL_SPACES["gf3"]
    pinned = SubsetRef.of(gf3, ["0", "1"], ["+", "*"])
    assert is_subspace(gf3, pinned)
    assert not is_subspace_by_completeness(gf3, pinned)
    report(f"[PASS] C3 subspace routes: {checked} combinations, 0 disagreements; "
           f"raw-reading divergence on gf3 {{0,1}} pinned")


def test_c4_coset_partitions():
    """Cosets partition the universe on gf3 and all single-op fixtures."""
    gf3 = SMALL_SPACES["gf3"]
    partitions = 0
    for h in subspaces_of(gf3):
        result = coset_decomposition(gf3, h)
        flattened = [e for c in result.cosets for e in c]
        assert sorted(flattened) == sorted(gf3.universe)
        assert len(flattened) == len(set(flattened))
        partitions += 1
    for name, ms in sorted(SINGLE_OP_SPACES.items()):
        g = ms.groups[0]
        for sub in subgroups(g):
            h = SubsetRef.of(ms, sub, (g.op_id,))
            result = coset_decomposition(ms, h)
            flattened = [e for c in result.cosets for e in c]
            assert sorted(flattened) == sorted(ms.universe)
            assert len(flattened) == len(set(flattened))
            assert all(len(c) == len(sub) for c in result.cosets)
            partitions += 1
    report(f"[PASS] C4 coset partition: {partitions} decompositions, "
           f"all disjoint covers; single-op cosets all of size |H|")


def test_c5_normality_routes_agree():
    """Conjugation scan and per-part criterion agree on every subspace (<=8)."""
    checked = 0
    for name, ms in sorted(SMALL_SPACES.items()):
        for h in subspaces_of(ms):
            checked += 1
            assert is_normal_subspace(ms, h).ok == normality_criterion(ms, h), \
                (name, h)
    report(f"[PASS] C5 normality routes: {checked} subspaces, 0 disagreements")


def test_c6_series_length_constants():
    """Disjoint unions: every sequence yields series with one common length."""
    lines = []
    for name in ("z2z3", "z2z2"):
        ms = SMALL_SPACES[name]
        inv = length_invariance_check(ms)
        for stat in inv.per_sequence:
            assert stat.series_count >= 1
            assert stat.constant is not None
            lines.append(f"{name}[{('>').join(stat.order)}]={stat.constant}")
        assert inv.cross_sequence_constant is True
    report("[PASS] C6 series constants: " + ", ".join(lines) +
           "; cross-sequence equal")


def test_c7_validation_and_classification():
    """gf3 validates as a field; the corrupted fixture fails with a witness."""
    gf3 = SMALL_SPACES["gf3"]
    report_obj = validate_multigroup(gf3)
    assert report_obj.ok
    assert classify_special_case(gf3).tag == "field"
    broken = validate_multigroup(catalog.shipped("gf3_corrupt"))
    assert not broken.ok
    inverse = [v for v in broken.violations if v.kind == "inverse"]
    assert inverse and inverse[0].witness == ("2",)
    report("[PASS] C7 validation: gf3 classifies as field; corrupted table "
           "rejected with inverse witness element 2")


def test_c8_generation():
    """Minimal generating sets and closure idempotence on 1000 random seeds."""
    assert is_finitely_generated(SMALL_SPACES["gf3"]).generators == ("1",)
    w = is_finitely_generated(SMALL_SPACES["z2z3"])
    assert w.size == 2 and w.minimal
    rng = random.Random(20260809)
    spaces = list(SMALL_SPACES.values())
    for _ in range(1000):
        ms = rng.choice(spaces)
        size = rng.randint(1, len(ms.universe))
        seeds = GeneratingSet.of(ms, rng.sample(ms.universe, size))
        closure = span_closure(ms, seeds)
        assert span_closure(ms, GeneratingSet.of(ms, closure)) == closure
    report("[PASS] C8 generation: gf3 minimal witness {1}; z2z3 needs 2; "
           "idempotence on 1000 random seed sets")


def test_c9_cli_determinism():
    """Every command, every fixture, both formats: byte-identical reruns."""
    from multigroup.instances import parse_instance
    runs = 0
    for fixture in ALL_FIXTURE_FILES:
        fp = INSTANCE_DIR / fixture
        ms = parse_instance(fp.read_text())
        for command, arg_template in sorted(COMMAND_MATRIX.items()):
            for fmt in ([], ["--json"]):
                argv = [command, str(fp), *_fill(arg_template, ms), *fmt]
                first_out, first_code = run_cli(argv)
                second_out, second_code = run_cli(argv)
                assert first_out == second_out, argv
                assert first_code == second_code, argv
                runs += 1
    # subprocess spot checks: fresh interpreters agree with each other
    fp = str(INSTANCE_DIR / "gf3.mgs")
    for argv in (["validate", fp], ["subspace", fp, "--set", "0,1"],
                 ["maximal-series", fp, "--json"]):
        cmd = [sys.executable, "-m", "multigroup.cli", *argv]
        a = subprocess.run(cmd, capture_output=True, text=True)
        b = subprocess.run(cmd, capture_output=True, text=True)
        assert a.stdout == b.stdout and a.returncode == b.returncode
        if "--json" in argv:
            json.loads(a.stdout)
    report(f"[PASS] C9 determinism: {runs} invocation pairs byte-identical; "
           f"subprocess spot checks agree")
