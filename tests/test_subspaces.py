import gc
import random
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from multigroup import catalog
from multigroup.errors import DomainError, PreconditionError
from multigroup.groups import subgroups
from multigroup.spaces import validate_multigroup
from multigroup.subspaces import (SubsetRef, _closed_part_candidates, coset,
                                  coset_decomposition, induced_space, is_subspace,
                                  is_subspace_by_completeness,
                                  is_subspace_by_intersection, lagrange_check,
                                  subspace_decomposition)

from conftest import subset_op_combinations, subspaces_of
from oracles import brute_subspace, scan_closed_parts
from test_groups import _tables

A3 = ("e", "(123)", "(132)")


def ref(ms, elements, ops=None):
    return SubsetRef.of(ms, elements, ops)


# ------------------------------------------------------- construction

def test_subset_ref_canonicalizes(gf3):
    s = ref(gf3, ["1", "0"], ["*", "+"])
    assert s.elements == ("0", "1")
    assert s.retained_ops == ("+", "*")


def test_subset_ref_rejects_unknown_ops_and_elements(gf3):
    with pytest.raises(DomainError):
        ref(gf3, ["0"], ["?"])
    with pytest.raises(DomainError):
        ref(gf3, ["7"], ["+"])


def test_subset_ref_requires_retained_op_to_act(gf3):
    with pytest.raises(ValueError):
        ref(gf3, ["0"], ["*"])  # 0 is outside the carrier of *


def test_default_ops_are_the_meeting_ones(gf3):
    assert ref(gf3, ["0"]).retained_ops == ("+",)
    assert ref(gf3, ["0", "1"]).retained_ops == ("+", "*")


# ------------------------------------------------------- the three routes

def test_intersection_route_on_the_pinned_subset(gf3):
    ev = is_subspace_by_intersection(gf3, ref(gf3, ["0", "1"], ["+", "*"]))
    assert ev.ok
    assert dict(ev.intersections) == {"+": ("0", "1"), "*": ("1",)}
    assert dict(ev.parts) == {"+": ("0",), "*": ("1",)}


def test_intersection_route_with_addition_only(gf3):
    ev = is_subspace_by_intersection(gf3, ref(gf3, ["0", "1"], ["+"]))
    assert not ev.ok  # 1+1 = 2 escapes, and nothing else can cover 1


def test_whole_universe_is_a_subspace(gf3, z2z3):
    for ms in (gf3, z2z3):
        whole = ref(ms, ms.universe)
        assert is_subspace(ms, whole)
        assert is_subspace_by_intersection(ms, whole).ok
        assert is_subspace_by_completeness(ms, whole)


def test_raw_completeness_reading_examples(gf3):
    assert not is_subspace_by_completeness(gf3, ref(gf3, ["0", "1"], ["+", "*"]))
    assert is_subspace_by_completeness(gf3, ref(gf3, ["0"], ["+"]))


def test_implemented_subspace_examples(gf3, z2z3):
    assert is_subspace(gf3, ref(gf3, ["0", "1"], ["+", "*"]))
    assert is_subspace(z2z3, ref(z2z3, ["b0", "b1", "b2"], ["b"]))
    assert not is_subspace(gf3, ref(gf3, ["2"], ["*"]))


def test_pinned_regression_raw_reading_disagrees(gf3):
    """The raw union reading rejects {0,1} while both subspace routes accept it."""
    s = ref(gf3, ["0", "1"], ["+", "*"])
    assert is_subspace(gf3, s)
    assert is_subspace_by_intersection(gf3, s).ok
    assert not is_subspace_by_completeness(gf3, s)


def test_decomposition_is_canonical_and_cached(gf3):
    s = ref(gf3, ["0", "1"], ["+", "*"])
    d = subspace_decomposition(gf3, s)
    assert d == {"+": ("0",), "*": ("1",)}
    assert subspace_decomposition(gf3, s) == d


@pytest.mark.parametrize("name", ("gf3", "gf5", "z6units", "z2link", "z2z3",
                                  "z2z2", "s3", "z6", "klein", "trivial"))
def test_routes_agree_exhaustively(small_spaces, name):
    """Intersection route == completeness route == oracle, every combination."""
    ms = small_spaces[name]
    for s in subset_op_combinations(ms):
        implemented = is_subspace(ms, s)
        lattice = is_subspace_by_intersection(ms, s).ok
        expected = brute_subspace(ms, s.elements, s.retained_ops)
        assert implemented == lattice == expected, s


def test_gf3_subspace_census(gf3):
    """Exactly the six subspaces found by the independent oracle."""
    found = {(s.elements, s.retained_ops) for s in subspaces_of(gf3)}
    assert found == {
        (("0",), ("+",)),
        (("1",), ("*",)),
        (("0", "1"), ("+", "*")),
        (("1", "2"), ("*",)),
        (("0", "1", "2"), ("+",)),
        (("0", "1", "2"), ("+", "*")),
    }


def test_routes_agree_on_generated_overlap_family():
    """Exhaustive agreement over all valid two-group spaces built from small
    pieces with every carrier-overlap alignment, oracle included."""
    from conftest import overlapping_pair_family
    spaces = overlapping_pair_family()
    assert len(spaces) >= 20  # the family is not trivially empty
    checked = 0
    for ms in spaces:
        for s in subset_op_combinations(ms):
            implemented = is_subspace(ms, s)
            assert implemented == is_subspace_by_intersection(ms, s).ok
            assert implemented == brute_subspace(ms, s.elements, s.retained_ops)
            checked += 1
    assert checked > 1000


def test_routes_agree_on_random_large_subsets():
    """Randomized agreement beyond the exhaustive size: the 12-cycle."""
    ms = catalog.single(catalog.cyclic(12))
    rng = random.Random(1207)
    for _ in range(300):
        size = rng.randint(1, 12)
        elems = rng.sample(ms.universe, size)
        s = ref(ms, elems)
        assert is_subspace(ms, s) == is_subspace_by_intersection(ms, s).ok


# ------------------------------------------------------- cosets

def test_gf3_cosets_of_the_pinned_subspace(gf3):
    h = ref(gf3, ["0", "1"], ["+", "*"])
    assert coset(gf3, h, "0") == ("0",)
    assert coset(gf3, h, "1") == ("1",)
    assert coset(gf3, h, "2") == ("2",)


def test_classical_coset(gf3):
    s3 = catalog.single(catalog.symmetric_3())
    h = ref(s3, A3, ["*"])
    odd = coset(s3, h, "(12)")
    assert set(odd) == {"(12)", "(13)", "(23)"}


def test_coset_with_no_defined_product_is_the_singleton(z2z3):
    # a0 lies outside the carrier of b, so nothing multiplies it into {b0}
    h = ref(z2z3, ["b0"], ["b"])
    assert coset(z2z3, h, "a0") == ("a0",)


def test_coset_preconditions(gf3):
    with pytest.raises(PreconditionError):
        coset(gf3, ref(gf3, ["0", "2"], ["+"]), "1")
    h = ref(gf3, ["0", "1"], ["+", "*"])
    with pytest.raises(DomainError):
        coset(gf3, h, "9")


def test_gf3_coset_decomposition(gf3):
    h = ref(gf3, ["0", "1"], ["+", "*"])
    result = coset_decomposition(gf3, h)
    assert result.transversal == ("0", "1", "2")
    assert result.cosets == (("0",), ("1",), ("2",))


def test_classical_decomposition_has_equal_coset_sizes():
    s3 = catalog.single(catalog.symmetric_3())
    h = ref(s3, A3, ["*"])
    result = coset_decomposition(s3, h)
    assert len(result.cosets) == 2
    assert all(len(c) == 3 for c in result.cosets)


def test_whole_space_single_coset(gf3):
    h = ref(gf3, gf3.universe)
    result = coset_decomposition(gf3, h)
    assert result.transversal == ("0",)
    assert result.cosets == (gf3.universe,)


@pytest.mark.parametrize("name", ("s3", "z6", "klein", "trivial"))
def test_coset_dichotomy_on_single_operation_fixtures(small_spaces, name):
    """For n=1 every pair of cosets is equal or disjoint, and sizes match |H|."""
    ms = small_spaces[name]
    group = ms.groups[0]
    for sub in subgroups(group):
        h = ref(ms, sub, (group.op_id,))
        cosets = {x: set(coset(ms, h, x)) for x in ms.universe}
        for x in ms.universe:
            assert len(cosets[x]) == len(sub)
            for y in ms.universe:
                assert cosets[x] == cosets[y] or not (cosets[x] & cosets[y])
        result = coset_decomposition(ms, h)
        covered = [e for c in result.cosets for e in c]
        assert sorted(covered) == sorted(ms.universe)
        assert len(covered) == len(set(covered))


def test_linked_z2s_cosets_genuinely_fail_to_partition():
    """Two order-2 groups chained through a shared element break dichotomy.

    coset(0) = {0,1} and coset(2) = {1,2} overlap without being equal, so
    the transversal decomposition must fail loudly with the overlap.
    """
    from multigroup.errors import DecompositionFailure
    ms = catalog.linked_z2s()
    h = ref(ms, ms.universe)
    assert is_subspace(ms, h)
    assert coset(ms, h, "0") == ("0", "1")
    assert coset(ms, h, "2") == ("1", "2")
    with pytest.raises(DecompositionFailure) as err:
        coset_decomposition(ms, h)
    assert "1" in err.value.overlap


def test_all_fixture_subspaces_decompose_or_report(small_spaces):
    """Partition verdicts across every subspace of every small fixture.

    Partial instances may legitimately fail; the engine must either return
    a genuine partition or raise, never hand back an overlapping family.
    """
    from multigroup.errors import DecompositionFailure
    for ms in small_spaces.values():
        for h in subspaces_of(ms):
            try:
                result = coset_decomposition(ms, h)
            except DecompositionFailure:
                continue
            covered = [e for c in result.cosets for e in c]
            assert sorted(covered) == sorted(ms.universe)
            assert len(covered) == len(set(covered))


# ------------------------------------------------------- other contracts

def test_lagrange_check_on_corpus(corpus):
    for g in corpus.values():
        ok, witness = lagrange_check(g)
        assert ok and witness is None


def test_induced_space_is_valid(gf3, small_spaces):
    for ms in small_spaces.values():
        for h in subspaces_of(ms):
            inner = induced_space(ms, h)
            assert validate_multigroup(inner).ok
            assert inner.universe == h.elements


def test_induced_space_requires_a_subspace(gf3):
    with pytest.raises(PreconditionError):
        induced_space(gf3, ref(gf3, ["0", "2"], ["+"]))


def test_subspace_transitivity(small_spaces):
    """s1 below s2 below the space implies s1 below the space."""
    for name in ("gf3", "z2z3", "klein"):
        ms = small_spaces[name]
        for s2 in subspaces_of(ms):
            inner = induced_space(ms, s2)
            for s1 in subspaces_of(inner):
                lifted = SubsetRef.of(ms, s1.elements, s1.retained_ops)
                assert is_subspace(ms, lifted), (name, s2, s1)


def _candidates_outcome(find, g, allowed):
    try:
        return set(find(g, allowed))
    except DomainError as exc:
        return str(exc)


@settings(max_examples=300)
@given(st.one_of(_tables(outside=("x",)),
                st.sampled_from([g for g in catalog.corpus_groups().values()
                                 if g.order <= 8])),
       st.data())
def test_closed_part_candidates_match_the_string_closure(g, data):
    # the old closure raises when it multiplies an escaped product, the
    # kernel when a closure it computed reached one: the same closures.
    # Corpus groups need joins of several closed sets to reach their parts.
    allowed = frozenset(data.draw(st.sets(st.sampled_from(g.carrier))))
    assert _candidates_outcome(_closed_part_candidates, g, allowed) == \
        _candidates_outcome(scan_closed_parts, g, allowed)


def test_decomposition_cache_is_freed_with_its_space():
    ms = catalog.gf3()
    s = ref(ms, ["0", "1"], ["+", "*"])
    assert subspace_decomposition(ms, s) == {"+": ("0",), "*": ("1",)}
    assert s in ms._decompositions
    gone = weakref.ref(ms)
    del ms
    gc.collect()
    assert gone() is None
