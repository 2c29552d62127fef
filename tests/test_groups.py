import os
import subprocess
import sys
from collections import Counter
from functools import cached_property, reduce
from itertools import combinations, permutations
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

import multigroup
from multigroup import catalog, groups
from multigroup.config import Limits
from multigroup.errors import BoundExceeded, DomainError, PreconditionError
from multigroup.groups import (FiniteGroup, _bits, _close, _closed_subsets,
                               _light_associative, _maximal, _proper_normal,
                               composition_series, is_normal_subgroup, is_subgroup,
                               maximal_proper_normal_subgroups,
                               proper_normal_subgroups, quotient_group,
                               subgroups, validate_group)
from multigroup.instances import parse_instance

from conftest import INSTANCE_DIR, small_space_catalog
from oracles import (brute_composition_chains, brute_subgroups,
                     prime_factor_count, raw_group, scan_closed_subsets,
                     scan_composition_series, scan_is_abelian,
                     scan_maximal_proper_normal_subgroups,
                     scan_proper_normal_subgroups, scan_subgroups,
                     scan_validate_group)

CORPUS = catalog.corpus_groups()
CORPUS_NAMES = sorted(CORPUS)

# frozen by the unpruned subset-scan oracle before the engine existed
EXPECTED_SUBGROUP_ORDERS = {
    "S3": [1, 2, 2, 2, 3, 6],
    "Z6": [1, 2, 3, 6],
    "Z12": [1, 2, 3, 4, 6, 12],
    "V4": [1, 2, 2, 2, 4],
    "Q8": [1, 2, 4, 4, 4, 8],
    "D4": [1, 2, 2, 2, 2, 2, 4, 4, 4, 8],
    "A4": [1, 2, 2, 2, 3, 3, 3, 3, 4, 12],
}

S4_SUBGROUP_ORDERS = {1: 1, 2: 9, 3: 4, 4: 7, 6: 4, 8: 3, 12: 1, 24: 1}

# composition lengths equal the prime-factor count for every corpus group
EXPECTED_CHAIN_COUNTS = {"S3": 1, "Z12": 3, "A4": 3, "Q8": 3, "D4": 7, "V4": 3}


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_corpus_groups_validate(name):
    assert validate_group(CORPUS[name]).ok


def test_z3_table_is_a_group():
    report = validate_group(catalog.cyclic(3))
    assert report.ok and report.violations == []


def test_swapped_entry_breaks_associativity():
    g = catalog.cyclic(3)
    table = [list(row) for row in g.table]
    table[1][1], table[1][2] = table[1][2], table[1][1]
    broken = FiniteGroup("+", g.carrier, tuple(tuple(r) for r in table), "0")
    report = validate_group(broken)
    kinds = {v.kind for v in report.violations}
    assert "associativity" in kinds
    witness = next(v.witness for v in report.violations if v.kind == "associativity")
    a, b, c = witness
    assert broken.mul(broken.mul(a, b), c) != broken.mul(a, broken.mul(b, c))


def test_missing_identity_row_reports_identity_violation():
    # 'e' is declared as identity but its row sends e*a to e
    broken = FiniteGroup("*", ("e", "a"), (("e", "e"), ("a", "e")), "e")
    kinds = {v.kind for v in validate_group(broken).violations}
    assert "identity" in kinds


def test_entry_outside_carrier_is_closure_violation():
    g = FiniteGroup("*", ("e", "a"), (("e", "a"), ("a", "x")), "e")
    report = validate_group(g, universe=("e", "a", "x"))
    assert {v.kind for v in report.violations} == {"closure"}


def test_entry_outside_universe_is_structural():
    g = FiniteGroup("*", ("e", "a"), (("e", "a"), ("a", "??")), "e")
    report = validate_group(g, universe=("e", "a"))
    assert [v.kind for v in report.structural()] == ["malformed-table"]


@given(st.sampled_from(CORPUS_NAMES), st.data())
def test_random_table_perturbation_is_detected(name, data):
    g = CORPUS[name]
    n = g.order
    i = data.draw(st.integers(0, n - 1))
    j = data.draw(st.integers(0, n - 1))
    correct = g.table[i][j]
    wrong = data.draw(st.sampled_from([e for e in g.carrier if e != correct]))
    table = [list(row) for row in g.table]
    table[i][j] = wrong
    broken = FiniteGroup(g.op_id, g.carrier, tuple(tuple(r) for r in table),
                         g.identity)
    assert not validate_group(broken).ok


@pytest.mark.parametrize("name", [n for n in CORPUS_NAMES if CORPUS[n].order <= 12])
def test_subgroups_match_unpruned_oracle(name):
    g = CORPUS[name]
    got = {frozenset(s) for s in subgroups(g)}
    expected = set(brute_subgroups(*raw_group(g)))
    assert got == expected


@pytest.mark.parametrize("name,orders", sorted(EXPECTED_SUBGROUP_ORDERS.items()))
def test_subgroup_order_multisets(name, orders):
    assert sorted(len(s) for s in subgroups(CORPUS[name])) == orders


def test_trivial_group_has_one_subgroup():
    assert subgroups(catalog.cyclic(1)) == [("0",)]


def test_subgroups_output_is_canonically_sorted():
    out = subgroups(CORPUS["Z6"])
    assert out == sorted(out, key=lambda s: (len(s), s))
    assert out[0] == ("0",) and out[-1] == CORPUS["Z6"].carrier


def test_subgroup_enumeration_refuses_beyond_bound():
    with pytest.raises(BoundExceeded):
        subgroups(catalog.cyclic(25))
    # a tighter limit refuses smaller groups too
    with pytest.raises(BoundExceeded):
        subgroups(CORPUS["Z12"], Limits(max_group_order=8))


def test_is_subgroup_examples():
    z6 = CORPUS["Z6"]
    assert is_subgroup(z6, {"0", "3"})
    assert not is_subgroup(z6, {"0", "1"})
    assert is_subgroup(z6, z6.carrier)
    assert not is_subgroup(z6, set())
    with pytest.raises(DomainError):
        is_subgroup(z6, {"0", "7"})


def test_normality_examples():
    s3 = CORPUS["S3"]
    a3 = ("e", "(123)", "(132)")
    assert is_normal_subgroup(s3, a3)
    assert not is_normal_subgroup(s3, ("e", "(12)"))
    with pytest.raises(PreconditionError):
        is_normal_subgroup(s3, ("e", "(12)", "(13)"))


@pytest.mark.parametrize("name", ["Z6", "Z8", "V4", "Z12"])
def test_every_subgroup_of_abelian_group_is_normal(name):
    g = CORPUS[name]
    assert all(is_normal_subgroup(g, s) for s in subgroups(g))


def test_quotient_examples():
    s3 = CORPUS["S3"]
    q = quotient_group(s3, ("e", "(123)", "(132)"))
    assert q.order == 2 and validate_group(q).ok

    z6 = CORPUS["Z6"]
    assert quotient_group(z6, ("0",)).order == 6
    assert quotient_group(z6, z6.carrier).order == 1

    with pytest.raises(PreconditionError):
        quotient_group(s3, ("e", "(12)"))


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_quotients_validate(name):
    g = CORPUS[name]
    for n in subgroups(g):
        if is_normal_subgroup(g, n):
            q = quotient_group(g, n)
            assert validate_group(q).ok
            assert q.order == g.order // len(n)


@pytest.mark.parametrize("name", [n for n in CORPUS_NAMES if CORPUS[n].order <= 12])
def test_composition_series_matches_recursive_oracle(name):
    g = CORPUS[name]
    got = {tuple(frozenset(link) for link in chain.links)
           for chain in composition_series(g)}
    expected = {tuple(chain) for chain in brute_composition_chains(*raw_group(g))}
    assert got == expected


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_composition_lengths_are_constant_and_arithmetic(name):
    g = CORPUS[name]
    chains = composition_series(g)
    lengths = {c.length for c in chains}
    assert len(lengths) == 1
    # solvable groups: length equals the prime factor count of the order
    assert lengths == {prime_factor_count(g.order)}


def test_composition_series_spot_values():
    assert {c.length for c in composition_series(CORPUS["S3"])} == {2}
    assert {c.length for c in composition_series(CORPUS["Z12"])} == {3}
    assert {c.length for c in composition_series(CORPUS["A4"])} == {3}
    for name, count in EXPECTED_CHAIN_COUNTS.items():
        assert len(composition_series(CORPUS[name])) == count


def test_trivial_group_single_chain_of_length_zero():
    chains = composition_series(catalog.cyclic(1))
    assert len(chains) == 1 and chains[0].length == 0


def test_maximal_proper_normal_subgroups_of_s3():
    assert maximal_proper_normal_subgroups(CORPUS["S3"]) == [("e", "(123)", "(132)")]


@pytest.mark.parametrize("ms", [catalog.single(g) for g in CORPUS.values()] +
                         list(small_space_catalog().values()),
                         ids=CORPUS_NAMES + list(small_space_catalog()))
def test_normal_subgroups_match_the_string_scan(ms):
    """For every group of the corpus and of the catalog spaces, in its
    universe, and every subgroup `within` of it: the int core, conjugating
    with the generators the space's lattice keeps for `within`, and the
    name wrappers, conjugating with every member, find the subgroups the
    string scan over every conjugator finds, in the same order."""
    for k, g in enumerate(ms.groups):
        lattice = ms._lattice(k, Limits())
        assert proper_normal_subgroups(g) == scan_proper_normal_subgroups(g)
        assert maximal_proper_normal_subgroups(g) == scan_maximal_proper_normal_subgroups(g)
        for part, gens in lattice.items():
            within = ms._elements(part)
            expected = scan_maximal_proper_normal_subgroups(g, within=within)
            core = _maximal(_proper_normal(ms._tables[k], lattice, part, gens))
            assert [set(ms._elements(m)) for m in core] == list(map(set, expected))
            assert maximal_proper_normal_subgroups(g, within=within) == expected
            assert proper_normal_subgroups(g, within=within) == \
                scan_proper_normal_subgroups(g, within=within)


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_lagrange_over_corpus(name):
    g = CORPUS[name]
    assert all(g.order % len(s) == 0 for s in subgroups(g))


@pytest.mark.parametrize("name", [n for n in CORPUS_NAMES if CORPUS[n].order <= 8])
def test_subgroup_intersections_are_subgroups(name):
    g = CORPUS[name]
    subs = subgroups(g)
    for a, b in combinations(subs, 2):
        meet = set(a) & set(b)
        assert is_subgroup(g, meet)


def test_restrict_and_from_function_roundtrip():
    z6 = CORPUS["Z6"]
    sub = z6.restrict(("0", "2", "4"))
    assert validate_group(sub).ok and sub.order == 3
    assert z6.restrict(("4", "0", "2")) == sub
    with pytest.raises(PreconditionError):
        z6.restrict(("2", "4"))
    with pytest.raises(ValueError, match="duplicate element"):
        z6.restrict(("0", "0", "2", "4"))
    with pytest.raises(DomainError, match="'x' is not in the carrier"):
        z6.restrict(("0", "x", "2"))


def test_construction_rejects_malformed_shapes():
    with pytest.raises(ValueError, match="duplicate element"):
        FiniteGroup("*", ("e", "e"), (("e", "e"), ("e", "e")), "e")
    with pytest.raises(ValueError, match="not 2x2"):
        FiniteGroup("*", ("e", "a"), (("e", "a"),), "e")
    with pytest.raises(ValueError, match="identity"):
        FiniteGroup("*", ("e", "a"), (("e", "a"), ("a", "e")), "x")


def test_inverse_lookup_errors():
    g = catalog.cyclic(3)
    with pytest.raises(DomainError):
        g.inverse("9")
    broken = FiniteGroup("*", ("1", "2"), (("1", "2"), ("2", "2")), "1")
    with pytest.raises(DomainError):
        broken.inverse("2")


def test_composition_series_bound_refusal():
    with pytest.raises(BoundExceeded):
        composition_series(catalog.cyclic(25))


def _lattice_groups():
    """Every corpus group, every group of a catalog space, every shipped file's group."""
    groups = {f"corpus/{name}": g for name, g in CORPUS.items()}
    spaces = {"gf3": catalog.gf3(), "gf5": catalog.prime_field(5),
              "gf3_corrupt": catalog.gf3_corrupt(), "z2z3": catalog.z2_z3(),
              "z2z2": catalog.z2_z2(), "z4z4": catalog.z4_twice(),
              "z6units": catalog.z6_with_units(), "z2link": catalog.linked_z2s(),
              "trivial": catalog.trivial_space()}
    spaces.update({f"shipped/{path.stem}": parse_instance(path.read_text())
                   for path in sorted(INSTANCE_DIR.glob("*.mgs"))})
    for key, ms in spaces.items():
        for g in ms.groups:
            groups[f"{key}/{g.op_id}"] = g
    return groups


LATTICE_GROUPS = _lattice_groups()


def _outcome(enumerate_, g):
    """The subgroup list, or the type of the exception raised instead."""
    try:
        return list(enumerate_(g))
    except Exception as exc:
        return type(exc)


def _fresh(g):
    """An equal group without the lattice cached on g."""
    return FiniteGroup(g.op_id, g.carrier, g.table, g.identity)


@pytest.mark.parametrize("key", sorted(LATTICE_GROUPS))
def test_lattice_matches_the_subset_scan(key):
    g = LATTICE_GROUPS[key]
    got = _outcome(subgroups, _fresh(g))
    assert got == _outcome(scan_subgroups, g)
    if isinstance(got, list) and g.order <= 12 and validate_group(g).ok:
        assert set(map(frozenset, got)) == set(brute_subgroups(*raw_group(g)))


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_every_lattice_member_passes_is_subgroup(name):
    """The lattice checks only the inverses of its closed sets; the full
    subgroup check holds on every member."""
    g = _fresh(CORPUS[name])
    assert all(is_subgroup(g, s) for s in subgroups(g))


def test_lattice_of_corrupt_multiplication_names_the_missing_inverse():
    g = catalog.gf3_corrupt().group_of("*")
    with pytest.raises(DomainError, match="'2' has no inverse under '\\*'"):
        subgroups(g)


def _symmetric_4():
    perms = list(permutations(range(4)))
    names = {p: "".join(map(str, p)) for p in perms}
    mul = {(names[p], names[q]): names[tuple(p[q[i]] for i in range(4))]
           for p in perms for q in perms}
    return FiniteGroup.from_function("*", names.values(),
                                     lambda a, b: mul[(a, b)], "0123")


def test_s4_lattice():
    # agrees with the subset scan, which takes seconds on S4 and is not run here
    g = _symmetric_4()
    subs = subgroups(g)
    assert Counter(len(s) for s in subs) == S4_SUBGROUP_ORDERS
    assert all(is_subgroup(g, s) for s in subs)
    assert len(set(map(frozenset, subs))) == 30


def test_lattice_is_cached_on_the_group():
    g = _fresh(CORPUS["A4"])
    assert subgroups(g) == subgroups(g)
    assert "_subgroups" in vars(g)
    assert "_subgroups" not in vars(_fresh(g))


@st.composite
def _tables(draw, outside=(), paired=False):
    """An arbitrary square table of order <= 6, entries from the carrier
    plus the given outside elements. With paired=True every element gets an
    inverse: the carrier is cut into pairs and fixed points of a drawn
    involution, and each pair multiplies to the identity both ways."""
    n = draw(st.integers(1, 6))
    carrier = tuple(str(i) for i in range(n))
    values = carrier + tuple(outside)
    table = [[draw(st.sampled_from(values)) for _ in carrier] for _ in carrier]
    identity = draw(st.sampled_from(carrier))
    if paired:
        order = [int(a) for a in draw(st.permutations(carrier))]
        for i in range(0, n, 2):
            a, b = order[i], order[min(i + 1, n - 1)]
            table[a][b] = table[b][a] = identity
    return FiniteGroup("*", carrier, tuple(map(tuple, table)), identity)


@settings(max_examples=200)
@given(st.one_of(_tables(outside=("x",)),
                st.sampled_from([CORPUS[n] for n in CORPUS_NAMES if CORPUS[n].order <= 8])),
       st.data())
def test_cyclic_extension_finds_exactly_the_closed_sets(g, data):
    # every nonempty subset of `within` whose products all stay inside it;
    # groups have many closed sets that only joins reach
    within = data.draw(st.sets(st.sampled_from(g.carrier)))
    mul = raw_group(g)[1]
    expected = set()
    for r in range(1, len(within) + 1):
        for cand in combinations(within, r):
            if all(mul[(a, b)] in cand for a in cand for b in cand):
                expected.add(frozenset(cand))
    mask = sum(1 << g.index(e) for e in within)
    found = _closed_subsets(g._ints[0], mask, g._associative)
    assert len(found) == len(expected)
    assert {frozenset(g.carrier[i] for i in _bits(m)) for m in found} == expected


@settings(max_examples=300)
@given(_tables())
def test_lattice_matches_the_subset_scan_on_arbitrary_tables(g):
    assert _outcome(subgroups, g) == _outcome(scan_subgroups, _fresh(g))


@settings(max_examples=100)
@given(st.sampled_from([n for n in CORPUS_NAMES if CORPUS[n].order <= 8]), st.data())
def test_lattice_matches_the_subset_scan_on_perturbed_groups(name, data):
    g = CORPUS[name]
    table = [list(row) for row in g.table]
    for _ in range(data.draw(st.integers(1, 2))):
        i, j = (data.draw(st.integers(0, g.order - 1)) for _ in "ij")
        table[i][j] = data.draw(st.sampled_from(g.carrier))
    broken = FiniteGroup(g.op_id, g.carrier, tuple(map(tuple, table)), g.identity)
    assert _outcome(subgroups, broken) == _outcome(scan_subgroups, _fresh(broken))


@settings(max_examples=200)
@given(_tables(outside=("x",), paired=True))
def test_lattice_matches_the_subset_scan_on_tables_leaving_the_carrier(g):
    # with an inverse for every element neither enumeration can raise, so
    # the outcome does not depend on the order the scan visits a subset in
    assert subgroups(g) == scan_subgroups(_fresh(g))


@settings(max_examples=300)
@given(st.one_of(_tables(outside=("x",)), _tables(paired=True)),
       st.sampled_from([None, ("x",)]))
def test_validate_group_matches_the_string_checks(g, universe):
    # the same violations with the same first witnesses, in the same order
    assert validate_group(g, universe).to_dict() == \
        scan_validate_group(_fresh(g), universe).to_dict()


@settings(max_examples=100)
@given(st.sampled_from(CORPUS_NAMES), st.data())
def test_validate_group_matches_the_string_checks_on_perturbed_groups(name, data):
    g = CORPUS[name]
    table = [list(row) for row in g.table]
    for _ in range(data.draw(st.integers(1, 3))):
        i, j = (data.draw(st.integers(0, g.order - 1)) for _ in "ij")
        table[i][j] = data.draw(st.sampled_from(g.carrier))
    broken = FiniteGroup(g.op_id, g.carrier, tuple(map(tuple, table)), g.identity)
    assert validate_group(broken).to_dict() == \
        scan_validate_group(_fresh(broken)).to_dict()


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_composition_series_matches_the_restricting_recursion(name):
    # the same chains in the same order as descending through restrict()
    g = CORPUS[name]
    assert composition_series(_fresh(g)) == scan_composition_series(_fresh(g))


@pytest.mark.parametrize("name", ["D4", "Q8", "Z12"])
def test_composition_series_enumerates_one_lattice(monkeypatch, name):
    """Every link's maximal normal subgroups come from the top-level lattice;
    the recursion through restrict() evaluated 11, 7 and 6 lattices."""
    lattice = FiniteGroup.__dict__["_lattice"]
    evaluations = []

    def counted(group):
        evaluations.append(group)
        return lattice.func(group)

    counting = cached_property(counted)
    counting.__set_name__(FiniteGroup, "_lattice")
    monkeypatch.setattr(FiniteGroup, "_lattice", counting)
    composition_series(_fresh(CORPUS[name]))
    assert len(evaluations) == 1


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_is_abelian_matches_the_string_products(name):
    assert _fresh(CORPUS[name]).is_abelian == scan_is_abelian(CORPUS[name])


@settings(max_examples=200)
@given(st.one_of(_tables(outside=("x", "y")), _tables(paired=True)))
def test_is_abelian_matches_the_string_products_on_arbitrary_tables(g):
    # products outside the carrier commute only when they name one element
    assert g.is_abelian == scan_is_abelian(_fresh(g))


@st.composite
def _conservative_tables(draw):
    """A table of order <= 6 with every product one of its two factors, so
    every subset is closed and the generating set is the whole carrier;
    max, min and the left- and right-zero bands are among them."""
    n = draw(st.integers(1, 6))
    carrier = tuple(str(i) for i in range(n))
    table = tuple(tuple(draw(st.sampled_from((a, b))) for b in carrier)
                  for a in carrier)
    return FiniteGroup("*", carrier, table, draw(st.sampled_from(carrier)))


@st.composite
def _associative_tables(draw):
    """Associative tables of order <= 6 with several generators and mostly
    no identity: a semilattice max, a left- or right-zero band, or the
    direct product of two of them on a 2 x 3 carrier."""
    kinds = {"max": lambda a, b: max(a, b), "left": lambda a, b: a,
             "right": lambda a, b: b}
    f, h = (kinds[draw(st.sampled_from(sorted(kinds)))] for _ in "fh")
    pairs = [(i, j) for i in range(2) for j in range(3)]
    carrier = tuple(f"{i}{j}" for i, j in pairs)
    table = tuple(tuple(f"{f(a[0], b[0])}{h(a[1], b[1])}" for b in pairs)
                  for a in pairs)
    return FiniteGroup("*", carrier, table, draw(st.sampled_from(carrier)))


def _first_associativity_witness(t):
    n = len(t)
    return next(((a, b, c) for a in range(n) for b in range(n) for c in range(n)
                 if t[t[a][b]][c] != t[a][t[b][c]]), None)


@settings(max_examples=300)
@given(st.one_of(_tables(), _conservative_tables(), _associative_tables()))
def test_lights_test_matches_the_full_associativity_scan(g):
    # closed tables, with or without an identity; the report carries the
    # first witness of the full scan
    t = g._ints[0]
    witness = _first_associativity_witness(t)
    assert _light_associative(t) == (witness is None)
    assert validate_group(g).to_dict() == scan_validate_group(_fresh(g)).to_dict()
    reported = [v.witness for v in validate_group(g).violations
                if v.kind == "associativity"]
    assert reported == ([] if witness is None else
                        [tuple(g.carrier[i] for i in witness)])


# ------------------------------------------- element joins and word closures

def _direct_product(g, h):
    """g x h on pairs named 'a|b'; the last '|' splits a name."""
    carrier = [f"{a}|{b}" for a in g.carrier for b in h.carrier]

    def mul(x, y):
        (a, b), (c, d) = x.rsplit("|", 1), y.rsplit("|", 1)
        return f"{g.mul(a, c)}|{h.mul(b, d)}"

    return FiniteGroup.from_function(g.op_id, carrier, mul,
                                     f"{g.identity}|{h.identity}")


def _alternating_5():
    return catalog._permutation_group("*", [
        p for p in permutations(range(5))
        if sum(p[i] > p[j] for i in range(5) for j in range(i + 1, 5)) % 2 == 0])


ABOVE_BOUND = Limits(max_group_order=64)
Z2_5 = reduce(_direct_product, [catalog.cyclic(2)] * 5)


@settings(max_examples=200)
@given(st.one_of(_tables(outside=("x",)), _tables(paired=True),
                 st.sampled_from([CORPUS[n] for n in CORPUS_NAMES])),
       st.data())
def test_element_joins_find_the_closed_sets_of_pairwise_joins(g, data):
    within = data.draw(st.sets(st.sampled_from(g.carrier)))
    mask = sum(1 << g.index(e) for e in within)
    found = _closed_subsets(g._ints[0], mask, g._associative)
    assert sorted(found) == sorted(scan_closed_subsets(g._ints[0], mask)[0])


@pytest.mark.parametrize("g", [_symmetric_4(), _alternating_5(),
                               _direct_product(_symmetric_4(), catalog.cyclic(2))],
                         ids=["S4", "A5", "S4xZ2"])
def test_element_joins_find_every_closed_set_of_larger_groups(g):
    full = (1 << g.order) - 1
    assert sorted(_closed_subsets(g._ints[0], full, g._associative)) == \
        sorted(scan_closed_subsets(g._ints[0], full)[0])


@st.composite
def _closed_part(draw, g):
    """A closed part of g given by its generators, and one element outside it."""
    gens = draw(st.lists(st.integers(0, g.order - 1), max_size=3))
    closed = _close((g._ints[0],), 0, sum(1 << x for x in set(gens)))
    rest = [x for x in range(g.order) if not closed >> x & 1]
    assume(rest)
    return gens, closed, draw(st.sampled_from(rest))


@settings(max_examples=300)
@given(st.one_of(
    st.sampled_from([CORPUS[n] for n in CORPUS_NAMES]),
    st.sampled_from([_direct_product(CORPUS["S3"], catalog.cyclic(2)),
                     _direct_product(CORPUS["V4"], catalog.cyclic(3)),
                     _direct_product(CORPUS["Q8"], catalog.cyclic(2))]),
    _associative_tables()), st.data())
def test_word_closure_equals_the_semi_naive_closure(g, data):
    # associative tables closed on their carrier, with and without inverses
    assert g._associative
    gens, closed, x = data.draw(_closed_part(g))
    t, mask = g._ints[0], closed | 1 << x
    full = _close((t,), closed, mask)
    assert _close((t,), closed, mask, gens + [x]) == full
    # a closure stopped at its first bit outside `within` holds that bit
    within = data.draw(st.integers(0, (1 << g.order) - 1)) | mask
    for stopped in (_close((t,), closed, mask, gens + [x], within),
                    _close((t,), closed, mask, None, within)):
        assert stopped & ~full == 0
        assert stopped == full or stopped & ~within


def test_lattices_above_the_default_bound():
    subs = subgroups(_fresh(Z2_5), ABOVE_BOUND)
    assert len(subs) == 374
    assert [n for _, n in sorted(Counter(map(len, subs)).items())] == \
        [1, 31, 155, 155, 31, 1]
    assert len(subgroups(_alternating_5(), ABOVE_BOUND)) == 59
    assert len(subgroups(_direct_product(_symmetric_4(), catalog.cyclic(2)),
                         ABOVE_BOUND)) == 98


@pytest.mark.parametrize("g, closures", [(_symmetric_4(), 284), (Z2_5, 9059)],
                         ids=["S4", "Z2^5"])
def test_lattice_closure_count(monkeypatch, g, closures):
    """Element joins with Light's test included; joining every two closed
    sets took 339 closures on S4 and 64,388 on Z2^5."""
    calls = []
    kernel = groups._close

    def counted(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(groups, "_close", counted)
    subgroups(_fresh(g), ABOVE_BOUND)
    assert len(calls) == closures


NORMALITY_ESCAPE = """
from multigroup.errors import DomainError
from multigroup.groups import FiniteGroup, is_normal_subgroup
rows = ("e a b c", "a e c b", "p q a e", "c b e a")
g = FiniteGroup("*", tuple("eabc"), tuple(tuple(r.split()) for r in rows), "e")
try:
    print(is_normal_subgroup(g, {"e", "a"}))
except DomainError as exc:
    print(exc)
"""


def test_normality_escape_does_not_depend_on_the_hash_seed():
    """b * e = p and b * a = q both leave the carrier; the members of
    {e, a} are visited in carrier order, so p is named on every run."""
    src = str(Path(multigroup.__file__).resolve().parents[1])
    outputs = set()
    for seed in range(4):
        env = dict(os.environ, PYTHONHASHSEED=str(seed),
                   PYTHONPATH=os.pathsep.join(
                       filter(None, [src, os.environ.get("PYTHONPATH")])))
        run = subprocess.run([sys.executable, "-c", NORMALITY_ESCAPE],
                             capture_output=True, text=True, env=env)
        assert run.returncode == 0, run.stderr
        outputs.add(run.stdout)
    assert outputs == {"'p' is not in the carrier of '*'\n"}
