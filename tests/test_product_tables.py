"""The space layer reads one product table.

The distribution scan, the raw reading, the one-step span, cosets, the
conjugation scan and both subspace routes read their products and subsets
from MultiGroupSpace._tables and universe bitmasks. Each must equal the
string-keyed code it replaced (tests/oracles.py): the same result, or the
same exception type and text, on every shipped instance, the overlapping
pair family, the small catalog spaces, invalid spaces where distribution
fails and tests/golden/escape.mgs, where a product leaves its carrier. The distribution scan is also checked on random
partial tables, down to one-element universes, and where both directions
fail often enough to stop its witness search early.
"""

from itertools import combinations, permutations, product
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from multigroup import catalog, series as series_module
from multigroup.config import Limits
from multigroup.errors import DomainError
from multigroup.generation import GeneratingSet, span_closure, span_once
from multigroup.groups import FiniteGroup
from multigroup.instances import parse_instance
from multigroup.series import is_normal_subspace
from multigroup.spaces import (MAX_DISTRIBUTION_WITNESSES, MultiGroupSpace,
                               _check_one_direction, is_complete, validate_multigroup)
from multigroup.subspaces import (SubsetRef, coset, is_subspace,
                                  is_subspace_by_intersection, subspace_decomposition)

from conftest import INSTANCE_DIR, overlapping_pair_family, small_space_catalog
from test_groups import _tables
from test_subspaces import _escaping_groups
from oracles import (scan_check_one_direction, scan_coset, scan_is_complete,
                     scan_is_normal_subspace, scan_is_subspace_by_intersection,
                     scan_span_once, scan_subspace_decomposition,
                     subset_op_combinations)


def _spaces():
    cases = []
    for path in sorted(INSTANCE_DIR.glob("*.mgs")):
        ms = parse_instance(path.read_text(encoding="utf-8"))
        cases.append(pytest.param(ms, id=path.stem))
    for name, ms in small_space_catalog().items():
        cases.append(pytest.param(ms, id=f"catalog-{name}"))
    for i, ms in enumerate(overlapping_pair_family()):
        cases.append(pytest.param(ms, id=f"overlap{i}"))
    cases.append(pytest.param(catalog.z4_twice(), id="catalog-z4z4"))
    cases.append(pytest.param(catalog.gf3_corrupt(), id="catalog-gf3_corrupt"))
    escape = Path(__file__).parent / "golden" / "escape.mgs"
    cases.append(pytest.param(parse_instance(escape.read_text(encoding="utf-8")),
                              id="golden-escape"))
    return cases


SPACES = _spaces()


def _outcome(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # the oracle must raise the same
        return type(exc), str(exc)


def _same_distribution_scan(ms):
    for times, circ in permutations(ms.op_set, 2):
        assert _outcome(_check_one_direction, ms, times, circ) == \
            _outcome(scan_check_one_direction, ms, times, circ), (times, circ)


def _same_raw_reading(ms):
    for r in range(len(ms.universe) + 1):
        for subset in combinations(ms.universe, r):
            for op in ms.op_set:
                assert _outcome(is_complete, ms, subset, op) == \
                    _outcome(scan_is_complete, ms, subset, op), (subset, op)


def _same_span_once(ms):
    for r in range(1, len(ms.universe) + 1):
        for seeds in combinations(ms.universe, r):
            a = GeneratingSet.of(ms, seeds)
            assert _outcome(span_once, ms, a) == _outcome(scan_span_once, ms, a), seeds


def _same_cosets_and_conjugation(ms):
    """Over every subset and retained ops: a non-subspace (or a space whose
    decomposition raises) must fail the same way in both."""
    for h in subset_op_combinations(ms):
        assert _outcome(is_normal_subspace, ms, h) == \
            _outcome(scan_is_normal_subspace, ms, h), h
        if _outcome(is_subspace, ms, h) is not True:
            continue
        for g in ms.universe:
            assert _outcome(coset, ms, h, g) == _outcome(scan_coset, ms, h, g), (h, g)


@pytest.mark.parametrize("ms", SPACES)
def test_conjugation_by_generators_matches_the_string_scan(ms):
    """Every (subset, ops) gets the verdict, witness or error of the string
    scan from the conjugation route. On a valid space every subspace also
    gets the scan's verdict from the series walk's pass, which conjugates
    with only the generators the space's lattices keep for the carriers."""
    ms = MultiGroupSpace(ms.universe, ms.groups)
    valid = validate_multigroup(ms).ok
    for k in range(len(ms.groups)) if valid else ():
        ms._lattice(k, Limits())
    for h in subset_op_combinations(ms):
        expected = _outcome(scan_is_normal_subspace, ms, h)
        assert _outcome(is_normal_subspace, ms, h) == expected, h
        if valid and type(expected) is not tuple:
            assert series_module._normalised(ms, ms._mask(h.elements), h.retained_ops,
                                             ms._carriers) == expected.ok, h


def _same_subspace_routes(ms):
    """Over every subset and retained ops: the same decomposition, the same
    intersection-route evidence, or the same error."""
    for s in subset_op_combinations(ms):
        assert _outcome(subspace_decomposition, ms, s) == \
            _outcome(scan_subspace_decomposition, ms, s), s
        assert _outcome(is_subspace_by_intersection, ms, s) == \
            _outcome(scan_is_subspace_by_intersection, ms, s), s


@pytest.mark.parametrize("ms", SPACES)
def test_distribution_scan_matches_the_string_scan(ms):
    _same_distribution_scan(ms)


@pytest.mark.parametrize("ms", SPACES)
def test_raw_reading_matches_the_string_scan(ms):
    _same_raw_reading(ms)


@pytest.mark.parametrize("ms", SPACES)
def test_one_step_span_matches_the_string_scan(ms):
    _same_span_once(ms)


@pytest.mark.parametrize("ms", SPACES)
def test_cosets_and_conjugation_match_the_string_scans(ms):
    _same_cosets_and_conjugation(ms)


SHARED = ("gf3", "gf5", "z6units", "z2link")  # carriers overlap


@st.composite
def perturbed_spaces(draw):
    """A small space with carriers sharing elements, one table cell of one
    operation rewritten to any universe element: the group axioms, closure
    and distribution can all fail, while every product stays in the
    universe."""
    ms = small_space_catalog()[draw(st.sampled_from(SHARED))]
    k = draw(st.integers(0, len(ms.groups) - 1))
    g = ms.groups[k]
    i = draw(st.integers(0, g.order - 1))
    j = draw(st.integers(0, g.order - 1))
    table = [list(row) for row in g.table]
    table[i][j] = draw(st.sampled_from(ms.universe))
    changed = FiniteGroup(g.op_id, g.carrier, tuple(map(tuple, table)), g.identity)
    return MultiGroupSpace(ms.universe, ms.groups[:k] + (changed,) + ms.groups[k + 1:])


@given(perturbed_spaces())
def test_perturbed_tables_match_the_string_scans(ms):
    _same_distribution_scan(ms)
    _same_raw_reading(ms)
    _same_span_once(ms)
    _same_cosets_and_conjugation(ms)
    _same_subspace_routes(ms)


def test_the_raw_reading_ignores_members_outside_the_universe(gf3):
    assert is_complete(gf3, {"0", "zz"}, "+")
    assert not is_complete(gf3, {"1", "zz"}, "+")


def test_a_product_outside_the_universe_raises_when_the_tables_are_built():
    """The tables need every product in the universe; a programmatic space
    that breaks it gets the DomainError of building them, as span_closure
    always did and the completeness route now does."""
    broken = FiniteGroup("*", ("e", "a"), (("e", "a"), ("a", "q")), "e")
    z2 = FiniteGroup("+", ("e", "a"), (("e", "a"), ("a", "e")), "e")
    ms = MultiGroupSpace(("e", "a"), (broken, z2))
    a = GeneratingSet.of(ms, ("e",))
    for read in (lambda: span_closure(ms, a), lambda: span_once(ms, a),
                 lambda: is_complete(ms, ("e",), "*"),
                 lambda: _check_one_direction(ms, "*", "+"),
                 lambda: subspace_decomposition(ms, SubsetRef.of(ms, ("e",)))):
        with pytest.raises(DomainError, match="'q' is not in the universe"):
            read()


@st.composite
def partial_spaces(draw, sizes=st.integers(1, 6), full=False):
    """A universe of the drawn size with two or three operations, each on a
    carrier drawn in any order (the whole universe with full=True) and with
    a table drawn freely over the universe: carriers overlap, products may
    leave their carrier and no axiom need hold."""
    universe = tuple(f"u{i}" for i in range(draw(sizes)))
    ops = draw(st.sampled_from([("+", "*"), ("+", "*", "o")]))
    groups = []
    for op in ops:
        carrier = draw(st.permutations(universe)) if full else \
            tuple(draw(st.lists(st.sampled_from(universe), min_size=1, unique=True)))
        table = tuple(tuple(draw(st.sampled_from(universe)) for _ in carrier)
                      for _ in carrier)
        groups.append(FiniteGroup(op, tuple(carrier), table,
                                  draw(st.sampled_from(carrier))))
    return MultiGroupSpace(universe, tuple(groups))


@settings(max_examples=300)
@given(partial_spaces())
def test_distribution_scan_matches_the_string_scan_on_partial_tables(ms):
    _same_distribution_scan(ms)


def _failing_triples(ms, times, circ):
    """The triples where either law has both sides defined and unequal."""
    t, c = ms.group_of(times), ms.group_of(circ)

    def mul(g, a, b):
        return g.mul(a, b) if a in g and b in g else None

    count = 0
    for x, y, z in product(ms.universe, repeat=3):
        yz = mul(c, y, z)
        laws = ((mul(t, x, yz), mul(c, mul(t, x, y), mul(t, x, z))),
                (mul(t, yz, x), mul(c, mul(t, y, x), mul(t, z, x))))
        count += any(a is not None and b is not None and a != b for a, b in laws)
    return count


@settings(max_examples=100)
@given(partial_spaces(sizes=st.integers(3, 6), full=True))
def test_the_witness_search_stops_early_and_the_count_stays_exact(ms):
    """Both directions fail on more than MAX_DISTRIBUTION_WITNESSES triples,
    so the scan stops looking for witnesses but still counts every law."""
    pairs = list(permutations(ms.op_set[:2]))
    assume(all(_failing_triples(ms, *pair) > MAX_DISTRIBUTION_WITNESSES
               for pair in pairs))
    for times, circ in pairs:
        check = _check_one_direction(ms, times, circ)
        assert check == scan_check_one_direction(ms, times, circ)
        assert len(check.witnesses) == MAX_DISTRIBUTION_WITNESSES


def test_a_one_element_space_tests_both_laws_once():
    g = FiniteGroup("+", ("e",), (("e",),), "e")
    ms = MultiGroupSpace(("e",), (g, FiniteGroup("*", ("e",), (("e",),), "e")))
    for times, circ in (("+", "*"), ("*", "+")):
        check = _check_one_direction(ms, times, circ)
        assert check == scan_check_one_direction(ms, times, circ)
        assert check.holds and check.tested == 2


@pytest.mark.parametrize("ms", SPACES)
def test_subspace_routes_match_the_string_routes(ms):
    _same_subspace_routes(ms)


@settings(max_examples=300)
@given(st.one_of(_tables(outside=("x", "y", "z")), _escaping_groups()), st.data())
def test_subspace_routes_match_the_string_routes_on_escaping_tables(g, data):
    """One operation whose products may leave its carrier, in a space whose
    universe also holds them: any subset of that universe, with Light's
    verdict cached or not, gets the same decomposition, evidence or error."""
    ms = MultiGroupSpace(g.carrier + g._ints[1], (g,))
    if data.draw(st.booleans()):
        g._associative  # cached Light's verdict: word closures where it holds
    s = SubsetRef.of(ms, data.draw(st.sets(st.sampled_from(ms.universe))))
    assert _outcome(subspace_decomposition, ms, s) == \
        _outcome(scan_subspace_decomposition, ms, s)
    assert _outcome(is_subspace_by_intersection, ms, s) == \
        _outcome(scan_is_subspace_by_intersection, ms, s)
