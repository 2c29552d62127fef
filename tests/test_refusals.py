"""Every refusal at its bound: at each of the eight sites in SITES, the
input at the bound is answered and the input one past it is refused, with
the exact text and BoundExceeded.bound, and with exit 3 and error_kind
bound-exceeded wherever the CLI reaches the refusal. The default bounds are pinned here
too, and so is an answer beside a refusal: GF(5) generated within two
candidates though refused at one, and a maximal-series report that
leaves out the comparison of orderings it refuses."""

import json

import pytest

from multigroup import cli
from multigroup.config import Limits
from multigroup.errors import BoundExceeded
from multigroup.generation import is_finitely_generated
from multigroup.groups import composition_series, maximal_proper_normal_subgroups, subgroups
from multigroup.instances import serialize_instance
from multigroup.series import (MAX_CROSS_SEQUENCE_OPS, build_series,
                               enumerate_maximal_series, length_invariance_check)
from multigroup.subspaces import SubsetRef, is_subspace_by_intersection

import catalog
from conftest import run_cli


def _space(n):
    return catalog.single(catalog.cyclic(n))


def _copies(group):
    return lambda n: catalog.disjoint_union(*[group] * n)


ORDER = Limits(max_group_order=6)
ORDER_TEXT = "subgroup enumeration bounded at order 6, got 7"

# (site, bound, limits, the input of size n, the call, the refusal of size
# bound + 1, the CLI argv after the instance or None where no command
# reaches the site)
SITES = [
    ("subgroups", 6, ORDER, catalog.cyclic, subgroups, ORDER_TEXT, None),
    ("maximal_proper_normal_subgroups", 6, ORDER, catalog.cyclic,
     maximal_proper_normal_subgroups, ORDER_TEXT, None),
    ("composition_series", 6, ORDER, catalog.cyclic, composition_series,
     "composition series bounded at order 6, got 7", None),
    ("intersection_route", 6, ORDER, _space,
     lambda ms, limits: is_subspace_by_intersection(ms, SubsetRef.of(ms, ["0"]), limits),
     ORDER_TEXT, ["subspace", "--set", "0"]),
    ("build_series", 6, ORDER, _space, lambda ms, limits: build_series(ms, None, limits),
     "series construction bounded at group order 6, got 7", ["series"]),
    ("enumerate_maximal_series", 6, Limits(max_exhaustive_universe=6), _space,
     lambda ms, limits: enumerate_maximal_series(ms, None, limits),
     "exhaustive series enumeration bounded at universe size 6, got 7; "
     "use build_series for a single witness", ["maximal-series"]),
    ("length_invariance_check", MAX_CROSS_SEQUENCE_OPS, Limits(),
     _copies(catalog.cyclic(2)), length_invariance_check,
     "cross-sequence comparison bounded at 4 operations, got 5", None),
    # n trivial components take one candidate set each
    ("is_finitely_generated", 3, Limits(max_generator_candidates=3),
     _copies(catalog.cyclic(1)), is_finitely_generated,
     "generating-set search examined 3 candidate sets without confirming a "
     "minimal one; the bound is max_generator_candidates = 3", ["generators"]),
]


@pytest.mark.parametrize("bound, limits, build, call, text, argv",
                         [site[1:] for site in SITES], ids=[site[0] for site in SITES])
def test_each_refusal_answers_at_its_bound_and_refuses_one_past(
        monkeypatch, tmp_path, bound, limits, build, call, text, argv):
    call(build(bound), limits)
    with pytest.raises(BoundExceeded) as refused:
        call(build(bound + 1), limits)
    assert str(refused.value) == text and refused.value.bound == bound
    if argv is None:
        return
    monkeypatch.setattr(cli, "DEFAULT_LIMITS", limits)
    for n, code in ((bound, 0), (bound + 1, 3)):
        instance = tmp_path / f"{n}.mgs"
        instance.write_text(serialize_instance(build(n)), encoding="utf-8")
        out, exit_code = run_cli([argv[0], str(instance), *argv[1:], "--json"])
        report = json.loads(out)
        assert exit_code == code, report
        if code == 3:
            assert report["error_kind"] == "bound-exceeded" and report["error"] == text


# the defaults: every order site answers Z24 and refuses Z25, and the
# exhaustive enumeration answers Z12 and refuses Z13
DEFAULTS = [(site[0], 24) for site in SITES if site[2] is ORDER] + \
    [("enumerate_maximal_series", 12)]


@pytest.mark.parametrize("site, bound", DEFAULTS, ids=[site for site, _ in DEFAULTS])
def test_each_default_bound_answers_at_it_and_refuses_one_past(site, bound):
    _, small, _, build, call, text, _ = next(s for s in SITES if s[0] == site)
    call(build(bound), Limits())
    with pytest.raises(BoundExceeded) as refused:
        call(build(bound + 1), Limits())
    assert str(refused.value) == text.replace(f"{small}, got {small + 1}",
                                              f"{bound}, got {bound + 1}")
    assert refused.value.bound == bound


def test_gf5_is_generated_at_two_candidates_and_refused_at_one():
    """GF(5) is one component, and 0 and 1 are its first two candidates."""
    gf5 = catalog.prime_field(5)
    assert is_finitely_generated(gf5, Limits(max_generator_candidates=2)).generators == ("1",)
    with pytest.raises(BoundExceeded) as refused:
        is_finitely_generated(gf5, Limits(max_generator_candidates=1))
    assert str(refused.value) == (
        "generating-set search examined 1 candidate sets without confirming a "
        "minimal one; the bound is max_generator_candidates = 1")
    assert refused.value.bound == 1


@pytest.mark.parametrize("n", [MAX_CROSS_SEQUENCE_OPS, MAX_CROSS_SEQUENCE_OPS + 1])
def test_maximal_series_compares_orderings_only_up_to_the_operation_bound(tmp_path, n):
    """On n copies of Z2 the report compares all n! orderings up to the
    bound; one past it the report has no cross-sequence part, and the
    command still answers."""
    instance = tmp_path / "copies.mgs"
    instance.write_text(serialize_instance(_copies(catalog.cyclic(2))(n)), encoding="utf-8")
    out, code = run_cli(["maximal-series", str(instance), "--json"])
    report = json.loads(out)
    assert code == 0 and report["constant_length"] == n
    cross = {"cross_sequence", "cross_sequence_constant"}
    if n <= MAX_CROSS_SEQUENCE_OPS:
        assert report.keys() & cross == cross and len(report["cross_sequence"]) == 24
        assert report["cross_sequence_constant"] is True
    else:
        assert report.keys() & cross == set()
