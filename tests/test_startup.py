"""What one `mgs` invocation pays before its query: the modules that
`import multigroup.cli` loads, and the script that times the import; and
the modules the package ships."""

import importlib.util
import inspect
import os
import pkgutil
import re
import subprocess
import sys
import types
from pathlib import Path

import multigroup

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def test_the_package_ships_only_the_engine():
    """The test corpus's builders live under tests/, not in the package, and
    so does the Lagrange check of the enumerated subgroups (acceptance C1)."""
    assert sorted(m.name for m in pkgutil.iter_modules(multigroup.__path__)) == [
        "cli", "config", "errors", "generation", "groups", "instances", "report",
        "series", "spaces", "subspaces"]
    assert importlib.util.find_spec("multigroup.catalog") is None
    assert not hasattr(multigroup, "lagrange_check")
    assert not hasattr(multigroup.subspaces, "lagrange_check")


def test_the_package_exports_only_what_a_caller_uses():
    """The public names of `multigroup`, submodules aside: each is reached
    by a command, named by the README or the classical single-group case,
    or read by the benchmark's tracer. The quotient, the operations at an
    element and the table-from-function builder had only tests as callers;
    the builder is catalog.from_function now. So had the proper normal
    subgroups and the maximal ones of a subset: the group API answers for
    the whole group only. The pair verdict of distribution is
    validate_multigroup's alone, so the unordered pair check and its
    records are gone, a cross-sequence check compares every
    ordering (one ordering's verdict is enumerate_maximal_series'
    constant), and no result restates what its per-ordering summaries or
    its caller's arguments already hold: no within-each verdict, no
    counterexample pair, no echoed sequence or subspace."""
    assert sorted(name for name, value in vars(multigroup).items()
                  if not name.startswith("_") and not isinstance(value, types.ModuleType)) == [
        "BoundExceeded", "Classification", "CompositionChain", "CosetDecomposition",
        "DEFAULT_LIMITS", "DecompositionFailure", "DomainError", "Element", "FiniteGroup",
        "GeneratingSet", "GenerationWitness", "InternalConsistencyError",
        "LengthInvariance", "Limits", "MaximalSeriesResult", "MultiGroupSpace",
        "MultigroupError", "NormalSeries", "OrientedOperationSequence", "ParseError",
        "PreconditionError", "SubsetRef", "SubspaceEvidence", "ValidationReport",
        "Violation", "build_series", "classify_special_case", "composition_series",
        "coset", "coset_decomposition", "enumerate_maximal_series", "induced_space", "is_complete",
        "is_finitely_generated", "is_normal_subgroup", "is_normal_subspace", "is_subgroup",
        "is_subspace", "is_subspace_by_completeness", "is_subspace_by_intersection",
        "length_invariance_check", "maximal_proper_normal_subgroups", "normality_criterion",
        "parse_instance", "serialize_instance", "span_closure", "span_once", "subgroups",
        "subspace_decomposition", "validate_group", "validate_multigroup"]
    assert not hasattr(multigroup.groups, "quotient_group")
    assert not hasattr(multigroup.spaces, "ops_of_element")
    assert not hasattr(multigroup.FiniteGroup, "from_function")
    for name in "proper_normal_subgroups", "_top", "_normal_masks":
        assert not hasattr(multigroup.groups, name), name
    assert list(inspect.signature(multigroup.maximal_proper_normal_subgroups).parameters) == \
        ["g", "limits"]
    assert list(inspect.signature(multigroup.length_invariance_check).parameters) == \
        ["ms", "limits"]
    for name in "check_distribution", "DistributionCheck", "LawCheck":
        assert not hasattr(multigroup.spaces, name), name
    assert not hasattr(multigroup.LengthInvariance, "ok")
    assert multigroup.LengthInvariance._fields == ("per_sequence", "cross_sequence_constant")
    assert multigroup.MaximalSeriesResult._fields == ("series", "rejected")
    assert multigroup.CosetDecomposition._fields == ("transversal", "cosets")


def test_importing_the_cli_loads_no_code_generator_or_argparse():
    """A fresh `import multigroup.cli` adds none of dataclasses, inspect,
    argparse, json or pathlib to the modules the interpreter already
    holds, so a site that preloads one of them does not fail the test.
    It runs once with site and once under -S, where no site preloads
    pathlib, as on an interpreter whose site does not import it."""
    code = ("import sys; before = set(sys.modules); import multigroup.cli; "
            "print(' '.join(sorted(set(sys.modules) - before)))")
    for flags in [], ["-S"]:
        added = set(subprocess.run([sys.executable, *flags, "-c", code], check=True,
                                   capture_output=True, text=True,
                                   env={**os.environ, "PYTHONPATH": str(SRC),
                                        "PYTHONDONTWRITEBYTECODE": "1"}).stdout.split())
        assert "multigroup.cli" in added, flags
        assert not added & {"dataclasses", "inspect", "argparse", "json", "pathlib"}, flags


def test_the_startup_script_reports_every_field():
    """scripts/startup.py with one run of each kind: the three rows of
    median and quartiles and ten modules by self time. Its times are not
    byte-stable, so only the fields are checked."""
    out = subprocess.run([sys.executable, str(ROOT / "scripts" / "startup.py"), "--runs", "1"],
                         check=True, capture_output=True, text=True).stdout.splitlines()
    assert out[0].startswith("start-up of one mgs invocation, 1 run(s) of each kind, Python ")
    assert out[1].split() == ["ms", "median", "q1", "q3"]
    number = r"\d+\.\d"
    for line, kind in zip(out[2:5], ["interpreter", "cold import", "warm import"]):
        assert re.fullmatch(rf"{kind} +{number} +{number} +{number}", line), line
    assert out[5] == "most self time in a cold import (-X importtime, us):"
    modules = [line.split() for line in out[6:]]
    assert len(modules) == 10 and all(len(m) == 2 and m[0].isdigit() for m in modules)
    assert "multigroup.cli" in {name for _, name in modules}
