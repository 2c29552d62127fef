import os
import signal
import subprocess
import sys
from collections import Counter
from functools import reduce
from itertools import combinations, permutations
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import multigroup
from multigroup import groups, series, subspaces
from multigroup.config import Limits
from multigroup.errors import BoundExceeded, DomainError, PreconditionError
from multigroup.groups import (FiniteGroup, _bits, _close, _closed_subsets,
                               _light_generators, _maximal, _maximal_normal, _proper_normal,
                               composition_series, is_normal_subgroup, is_subgroup,
                               maximal_proper_normal_subgroups, subgroups, validate_group)
from multigroup.instances import parse_instance
from multigroup.report import AXIOM
from multigroup.spaces import MultiGroupSpace

import catalog
from conftest import (INSTANCE_DIR, count_lattices, overlapping_chain_family,
                      small_space_catalog)
from oracles import (brute_composition_chains, brute_subgroups,
                     prime_factor_count, raw_group, scan_closed_subsets,
                     scan_choices, scan_composition_series, scan_element_joins,
                     scan_is_abelian, scan_maximal, scan_maximal_proper_normal_subgroups,
                     scan_space_lattice, scan_subgroups,
                     scan_validate_group, scan_word_joins)

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
    assert report.ok and report.violations == ()


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
    """A standalone group knows no universe: an entry outside its carrier
    is a closure failure, at the first one in row-major order."""
    g = FiniteGroup("*", ("e", "a"), (("e", "a"), ("a", "x")), "e")
    (v,) = validate_group(g).violations
    assert (v.category, v.kind, v.message, v.witness) == \
        (AXIOM, "closure", "a * a = x is outside the carrier", ("a", "a", "x"))


def test_entry_outside_universe_is_refused_by_the_space():
    """The same entry is a closure failure of the group alone, and a space
    whose universe lacks it is refused when built, as the parser refuses
    the file."""
    g = FiniteGroup("*", ("e", "a"), (("e", "a"), ("a", "??")), "e")
    assert [v.kind for v in validate_group(g).violations] == ["closure"]
    with pytest.raises(ValueError) as refused:
        MultiGroupSpace(("e", "a"), (g,))
    assert str(refused.value) == "table entry '??' of '*' not in universe"


def test_each_closed_table_keeps_one_axiom_report():
    """With no product outside the carrier, every call hands out the same
    kept report; the corrupt multiplication's report names its missing
    inverse."""
    corrupt = catalog.shipped("gf3_corrupt")
    for g in [*CORPUS.values(), corrupt.group_of("*")]:
        assert validate_group(g) is validate_group(g) is g._axioms
    assert [v.kind for v in corrupt.group_of("*")._axioms.violations] == ["inverse"]


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
    rows = ("e a b c", "a e c b", "p q a e", "c b e a")  # b * e = p leaves the carrier
    g = FiniteGroup("*", tuple("eabc"), tuple(tuple(r.split()) for r in rows), "e")
    with pytest.raises(DomainError, match=r"^'p' is not in the carrier of '\*'$"):
        is_normal_subgroup(g, {"e", "a"})


@pytest.mark.parametrize("name", ["Z6", "Z8", "V4", "Z12"])
def test_every_subgroup_of_abelian_group_is_normal(name):
    g = CORPUS[name]
    assert all(is_normal_subgroup(g, s) for s in subgroups(g))


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
    universe: the name wrapper finds the maximal normal subgroups the
    string scan over every conjugator finds, in the same order, and for
    every subgroup of it, the int core, conjugating with the generators the
    remapped lattice keeps for that subgroup, finds the ones the string
    scan finds inside it."""
    for k, g in enumerate(ms.groups):
        lattice = scan_space_lattice(ms, k)
        assert maximal_proper_normal_subgroups(g) == scan_maximal_proper_normal_subgroups(g)
        for part, gens in lattice.items():
            expected = scan_maximal_proper_normal_subgroups(g, within=ms._elements(part))
            core = _maximal(_proper_normal(ms._tables[k], lattice, part, gens))
            assert [set(ms._elements(m)) for m in core] == list(map(set, expected))


@given(st.lists(st.integers(0, 63), max_size=12))
@example([])
@example([0, 0])
@example([3, 1, 3, 2, 4, 3])
def test_maximal_matches_the_pairwise_scan(masks):
    """Kept largest first, the maximal masks are the ones no other mask
    strictly contains, in input order with their repeats, as the scan of
    every pair finds them."""
    assert _maximal(masks) == scan_maximal(masks)


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
    """Every corpus group and every shipped file's group."""
    groups = {f"corpus/{name}": g for name, g in CORPUS.items()}
    spaces = {f"shipped/{path.stem}": parse_instance(path.read_text())
              for path in sorted(INSTANCE_DIR.glob("*.mgs"))}
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
    g = catalog.shipped("gf3_corrupt").group_of("*")
    with pytest.raises(DomainError, match="'2' has no inverse under '\\*'"):
        subgroups(g)


class _Hung(BaseException):
    """Raised by the alarm, past any `except Exception`."""


def _ends(call, *args):
    """Whether call(*args) returns or raises within three seconds."""
    def alarm(*_):
        raise _Hung
    previous = signal.signal(signal.SIGALRM, alarm)
    signal.setitimer(signal.ITIMER_REAL, 3)
    try:
        call(*args)
    except _Hung:
        return False
    except Exception:  # a table that is no group may make a kernel raise
        pass
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return True


def test_group_flagged_kernels_end_on_tables_that_are_no_group():
    """The group flag forced on closed tables that are not groups, identity
    first: the lattice kernel and the maximal normal subgroups end, with a
    wrong answer or an error, so a wrong group verdict fails a test and
    does not hang it. The lattice kernel clears x apart from its coset
    x a, and sets z's bit apart from z a, for that."""
    tables = [catalog.shipped("gf3_corrupt").group_of("*")._ints[0],
              [[0, 1, 2], [1, 1, 1], [2, 2, 1]],
              [[0, 1, 2, 3, 4], [1, 3, 2, 3, 1], [2, 0, 2, 4, 1], [3, 3, 0, 1, 0],
               [4, 1, 0, 1, 3]],
              [[0, 1, 2, 3, 4, 5], [1, 0, 3, 0, 3, 1], [2, 2, 0, 4, 4, 3],
               [3, 4, 4, 1, 4, 0], [4, 2, 2, 4, 4, 0], [5, 2, 0, 0, 2, 0]]]
    for t in tables:
        full = (1 << len(t)) - 1
        assert _ends(_closed_subsets, t, full, True), t
        assert _ends(_maximal_normal, t, full, 0, False), t


def test_s4_lattice():
    # agrees with the subset scan, which takes seconds on S4 and is not run here
    g = catalog.symmetric_4()
    subs = subgroups(g)
    assert Counter(len(s) for s in subs) == S4_SUBGROUP_ORDERS
    assert all(is_subgroup(g, s) for s in subs)
    assert len(set(map(frozenset, subs))) == 30


def test_lattice_is_cached_on_the_group():
    g = _fresh(CORPUS["A4"])
    assert subgroups(g) == subgroups(g)
    assert "_lattice" in vars(g)
    assert "_lattice" not in vars(_fresh(g))


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
    found = _closed_subsets(g._ints[0], mask, g._generators is not None)
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
@given(st.one_of(_tables(outside=("x", "y")), _tables(paired=True)))
def test_validate_group_matches_the_string_checks(g):
    # the same violations with the same first witnesses, in the same order
    assert validate_group(g) == scan_validate_group(_fresh(g))


@settings(max_examples=100)
@given(st.sampled_from(CORPUS_NAMES), st.data())
def test_validate_group_matches_the_string_checks_on_perturbed_groups(name, data):
    g = CORPUS[name]
    table = [list(row) for row in g.table]
    for _ in range(data.draw(st.integers(1, 3))):
        i, j = (data.draw(st.integers(0, g.order - 1)) for _ in "ij")
        table[i][j] = data.draw(st.sampled_from(g.carrier))
    broken = FiniteGroup(g.op_id, g.carrier, tuple(map(tuple, table)), g.identity)
    assert validate_group(broken) == scan_validate_group(_fresh(broken))


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_composition_series_matches_the_restricting_recursion(name):
    # the same chains in the same order as descending through restrict()
    g = CORPUS[name]
    assert composition_series(_fresh(g)) == scan_composition_series(_fresh(g))


@pytest.mark.parametrize("name", ["D4", "Q8", "Z12"])
def test_composition_series_enumerates_one_lattice(monkeypatch, name):
    """At most the top-level lattice, and on a solvable group none: every
    link's maximal normal subgroups come from its prime-index quotients.
    The recursion through restrict() evaluated 11, 7 and 6 lattices, and
    the filter of the top-level lattice one."""
    evaluations = count_lattices(monkeypatch)
    composition_series(_fresh(CORPUS[name]))
    assert evaluations == []


@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_is_abelian_matches_the_string_products(name):
    assert _fresh(CORPUS[name]).is_abelian == scan_is_abelian(CORPUS[name])


@settings(max_examples=200)
@given(st.one_of(_tables(outside=("x", "y")), _tables(paired=True)))
def test_is_abelian_matches_the_string_products_on_arbitrary_tables(g):
    # products outside the carrier commute only when they name one element
    assert g.is_abelian == scan_is_abelian(_fresh(g))


@settings(max_examples=200)
@given(st.sampled_from(CORPUS_NAMES), st.data())
def test_is_abelian_matches_the_string_products_on_perturbed_groups(name, data):
    """A corpus group with its elements permuted, which keeps it a group
    and decides it on its generators, then perhaps with one product
    changed, which mostly leaves the transpose to decide."""
    g = CORPUS[name]
    sigma = data.draw(st.permutations(g.carrier))
    to, back = dict(zip(g.carrier, sigma)), dict(zip(sigma, g.carrier))
    table = [[to[g.mul(back[a], back[b])] for b in g.carrier] for a in g.carrier]
    if data.draw(st.booleans()):
        i, j = (data.draw(st.integers(0, g.order - 1)) for _ in "ij")
        table[i][j] = data.draw(st.sampled_from(g.carrier))
    h = FiniteGroup(g.op_id, g.carrier, tuple(map(tuple, table)), to[g.identity])
    assert h.is_abelian == scan_is_abelian(_fresh(h))


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


@st.composite
def _monoids(draw):
    """The multiplicative monoid of Z_n, n <= 8, on its residues: associative
    with an identity, but only the units have inverses."""
    n = draw(st.integers(2, 8))
    return catalog.from_function("*", map(str, range(n)),
                                 lambda a, b: str(int(a) * int(b) % n), "1")


def _semigroups(n):
    """Every associative table on range(n): cells filled in row-major order,
    a partial table dropped once a triple with all four products filled in
    breaks the law. A triple reads the cell (a, b) only if x = a or z = b."""
    t, span = [[None] * n for _ in range(n)], range(n)

    def breaks(x, y, z):
        xy, yz = t[x][y], t[y][z]
        if xy is None or yz is None:
            return False
        left, right = t[xy][z], t[x][yz]
        return None not in (left, right) and left != right

    def fill(cell):
        if cell == n * n:
            yield tuple(tuple(map(str, row)) for row in t)
            return
        a, b = divmod(cell, n)
        for t[a][b] in span:
            if not any(breaks(a, y, z) or breaks(y, z, b) for y in span for z in span):
                yield from fill(cell + 1)
        t[a][b] = None

    return fill(0)


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
    assert (_light_generators(t) is not None) == (witness is None)
    assert validate_group(g) == scan_validate_group(_fresh(g))
    reported = [v.witness for v in validate_group(g).violations
                if v.kind == "associativity"]
    assert reported == ([] if witness is None else
                        [tuple(g.carrier[i] for i in witness)])


# ------------------------------------------- element joins and word closures

ABOVE_BOUND = Limits(max_group_order=64)
Z2_5 = reduce(catalog.direct_product, [catalog.cyclic(2)] * 5)
Z2_6 = reduce(catalog.direct_product, [catalog.cyclic(2)] * 6)


@settings(max_examples=200)
@given(st.one_of(_tables(outside=("x",)), _tables(paired=True), _associative_tables(),
                 _monoids(), st.sampled_from([CORPUS[n] for n in CORPUS_NAMES])),
       st.data())
def test_element_joins_find_the_closed_sets_of_pairwise_joins(g, data):
    """The same dict as joining with every element closure, insertion order
    and generators included; the coset rule is on for groups only."""
    within = data.draw(st.sets(st.sampled_from(g.carrier)))
    mask = sum(1 << g.index(e) for e in within)
    found = _closed_subsets(g._ints[0], mask, g._generators is not None)
    assert sorted(found) == sorted(scan_closed_subsets(g._ints[0], mask)[0])
    assert list(found.items()) == \
        list(scan_element_joins(g._ints[0], mask, g._light is not None).items())


@pytest.mark.parametrize("g", [catalog.symmetric_4(), catalog.alternating(5),
                               catalog.direct_product(catalog.symmetric_4(),
                                                      catalog.cyclic(2))] +
                         [CORPUS[n] for n in CORPUS_NAMES],
                         ids=["S4", "A5", "S4xZ2"] + CORPUS_NAMES)
def test_element_joins_find_every_closed_set_of_larger_groups(g):
    # A5 is not solvable; every group here takes the coset rule
    full, t = (1 << g.order) - 1, g._ints[0]
    assert g._generators is not None
    found = _closed_subsets(t, full, True)
    assert list(found.items()) == list(scan_element_joins(t, full, True).items())
    assert sorted(found) == sorted(scan_closed_subsets(t, full)[0])


@pytest.mark.parametrize("g", [catalog.symmetric_4(), catalog.alternating(5),
                               catalog.direct_product(catalog.symmetric_4(), catalog.cyclic(2)),
                               Z2_5, Z2_6] + [CORPUS[n] for n in CORPUS_NAMES],
                         ids=["S4", "A5", "S4xZ2", "Z2^5", "Z2^6"] + CORPUS_NAMES)
def test_coset_joins_give_the_dict_of_word_closures(g):
    """The same dict as building each join as a closure of words and closing
    every element, insertion order and generators included."""
    full, t = (1 << g.order) - 1, g._ints[0]
    assert g._generators is not None
    assert list(_closed_subsets(t, full, True).items()) == \
        list(scan_word_joins(t, full, True).items())


WORD_JOIN_GROUPS = [CORPUS[n] for n in CORPUS_NAMES] + [
    catalog.direct_product(CORPUS["S3"], catalog.cyclic(2)),
    catalog.direct_product(CORPUS["V4"], catalog.cyclic(3)),
    catalog.direct_product(CORPUS["Q8"], catalog.cyclic(2)),
    catalog.direct_product(CORPUS["D4"], catalog.cyclic(2))]


@st.composite
def _group_within(draw):
    """A group and an allowed set: a subgroup, cyclic ones included, with
    elements added or taken away, or any subset of the carrier."""
    g = draw(st.sampled_from(WORD_JOIN_GROUPS))
    if draw(st.booleans()):
        return g, draw(st.integers(0, (1 << g.order) - 1))
    sub = draw(st.sampled_from(list(g._lattice)))
    flip = sum(1 << x for x in draw(st.sets(st.integers(0, g.order - 1), max_size=2)))
    return g, sub ^ flip


@settings(max_examples=300)
@given(_group_within())
def test_coset_joins_give_the_dict_of_word_closures_on_any_allowed_set(case):
    g, within = case
    t = g._ints[0]
    assert list(_closed_subsets(t, within, True).items()) == \
        list(scan_word_joins(t, within, True).items())


def test_coset_joins_give_the_dict_of_word_closures_on_the_chain_family():
    """Every group of every valid chain-family space, on the space's table
    of universe indices, allowed its carrier or one of its subgroups."""
    cases = 0
    for ms in overlapping_chain_family():
        for k, carrier in enumerate(ms._carriers):
            t = ms._tables[k]
            for within in [carrier, *scan_space_lattice(ms, k)]:
                assert list(_closed_subsets(t, within, True).items()) == \
                    list(scan_word_joins(t, within, True).items())
                cases += 1
    assert cases > 1000


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
    st.sampled_from([catalog.direct_product(CORPUS["S3"], catalog.cyclic(2)),
                     catalog.direct_product(CORPUS["V4"], catalog.cyclic(3)),
                     catalog.direct_product(CORPUS["Q8"], catalog.cyclic(2))]),
    _associative_tables()), st.data())
def test_word_closure_equals_the_semi_naive_closure(g, data):
    # associative tables closed on their carrier, with and without inverses
    assert g._light is not None
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


def _lattice_outcome(g):
    try:
        return list(g._lattice.items())
    except DomainError as exc:  # a member of a closed set has no inverse
        return str(exc)


def test_the_lattice_joins_every_element_closure_on_semigroups(monkeypatch):
    """Every associative table of order <= 4 under each declared identity:
    the coset rule is on for groups only, so the lattice, or the element it
    names as having no inverse, is what joining every element closure gives."""
    cases = [FiniteGroup("*", tuple(map(str, range(n))), table, str(e))
             for n in range(1, 5) for table in _semigroups(n) for e in range(n)]
    assert len(cases) == 1 + 2 * 8 + 3 * 113 + 4 * 3492
    outcomes = list(map(_lattice_outcome, cases))
    monkeypatch.setattr(groups, "_closed_subsets", scan_element_joins)
    assert outcomes == [_lattice_outcome(_fresh(g)) for g in cases]


WIDE_ORDER = Limits(max_group_order=128)
QUOTIENT_GROUPS = {
    **{name: catalog.single(CORPUS[name]) for name in CORPUS_NAMES},
    "S4": catalog.single(catalog.symmetric_4()),
    "S4xZ2": catalog.single(catalog.direct_product(catalog.symmetric_4(), catalog.cyclic(2))),
    "Z2^5": catalog.single(Z2_5), "Z2^6": catalog.single(Z2_6),
    "GF53": catalog.prime_field(53), "A5": catalog.single(catalog.alternating(5)),
    "A5xZ2": catalog.single(catalog.direct_product(catalog.alternating(5), catalog.cyclic(2))),
    "S4xZ3": catalog.single(catalog.direct_product(catalog.symmetric_4(), catalog.cyclic(3))),
    "D61": catalog.single(catalog.dihedral(61)),
}


@pytest.mark.parametrize("name", sorted(QUOTIENT_GROUPS))
def test_choices_from_the_quotients_match_the_conjugation_scan(name):
    """At every lattice member with two or more elements, of every group of
    the space, the maximal normal subgroups from the prime-index quotients
    are those of the conjugation test on every lattice member inside it,
    canonically smallest first. A5 and A5 x Z2 are not solvable, and their
    parts of order 60 or more filter the subgroups under themselves; S4 x Z3,
    of order 72, and D61, of order 122 with a derived subgroup of order 61,
    are solvable and not abelian, so their whole parts walk the derived
    series to the hyperplanes."""
    ms = QUOTIENT_GROUPS[name]
    ms = MultiGroupSpace(ms.universe, tuple(map(_fresh, ms.groups)))
    parts = 0
    for k in range(len(ms.groups)):
        for part in scan_space_lattice(ms, k):
            if part & part - 1:
                assert series._choices(ms, k, part) == scan_choices(ms, k, part), \
                    ms._elements(part)
                parts += 1
    assert parts == sum(len(scan_space_lattice(ms, k)) - 1 for k in range(len(ms.groups)))


def test_a5_x_z2_keeps_the_maximal_normal_subgroup_of_non_abelian_quotient():
    """A5 x Z2 has two maximal normal subgroups: A5 x {0} of index 2, a
    hyperplane preimage, and {e} x Z2 of index 60, whose quotient A5 no
    hyperplane gives."""
    ms = QUOTIENT_GROUPS["A5xZ2"]
    top = (1 << len(ms.universe)) - 1
    choices = [ms._elements(m) for m in series._choices(ms, 0, top)]
    assert sorted(map(len, choices)) == [2, 60]
    assert all(e.endswith("|0") for e in max(choices, key=len))
    e = ms.groups[0].identity.rsplit("|", 1)[0]
    assert set(min(choices, key=len)) == {f"{e}|0", f"{e}|1"}


@pytest.mark.parametrize("name", ["S4xZ3", "D61"])
def test_solvable_parts_of_order_60_or_more_build_no_lattice(monkeypatch, name):
    """The derived series of the whole part reaches the identity, so its
    choices are the hyperplane preimages, with no lattice evaluated: for
    S4 x Z3, A4 x Z3 of index 2 and S4 x {0} of index 3, and for D61 the
    rotations."""
    ms = QUOTIENT_GROUPS[name]
    ms = MultiGroupSpace(ms.universe, tuple(map(_fresh, ms.groups)))
    evaluations = count_lattices(monkeypatch)
    choices = series._choices(ms, 0, (1 << len(ms.universe)) - 1)
    assert evaluations == []
    assert sorted(len(ms.universe) // m.bit_count() for m in choices) == \
        {"S4xZ3": [2, 3], "D61": [2]}[name]


@pytest.mark.parametrize("name", ["S4", "S4xZ2", "A5", "A5xZ2", "S4xZ3", "D61"])
def test_maximal_normal_subgroups_of_larger_groups_match_the_string_scan(name):
    """The name wrapper on the group's own table, and every composition
    series, as the string scan and the recursion through restrict() find
    them."""
    g = _fresh(QUOTIENT_GROUPS[name].groups[0])
    assert maximal_proper_normal_subgroups(g, WIDE_ORDER) == \
        scan_maximal_proper_normal_subgroups(g, WIDE_ORDER)
    assert composition_series(g, WIDE_ORDER) == scan_composition_series(g, WIDE_ORDER)


@pytest.mark.parametrize("name", ["A5", "A5xZ2", "S5"])
def test_non_solvable_parts_read_only_the_subgroups_under_themselves(monkeypatch, name):
    """Where the derived series stalls, the subgroups filtered are those the
    closure kernel finds under the part: the group API evaluates no
    FiniteGroup._lattice, and the walk's choice keeps no carrier's
    subgroups. S5, whose only proper normal subgroups are A5 and the
    identity, is checked against the string scans as well."""
    if name == "S5":
        ms = catalog.single(catalog._permutation_group("*", list(permutations(range(5)))))
    else:
        ms = QUOTIENT_GROUPS[name]
    ms = MultiGroupSpace(ms.universe, tuple(map(_fresh, ms.groups)))
    g = ms.groups[0]
    evaluations = count_lattices(monkeypatch)
    maximal = maximal_proper_normal_subgroups(g, WIDE_ORDER)
    chains = composition_series(g, WIDE_ORDER)
    assert evaluations == []
    top = (1 << len(ms.universe)) - 1
    choices = series._choices(ms, 0, top)
    assert [key for key in ms._memo if key[0] == "subgroups"] == []
    if name == "S5":
        assert maximal == scan_maximal_proper_normal_subgroups(_fresh(g), WIDE_ORDER)
        assert chains == scan_composition_series(_fresh(g), WIDE_ORDER)
        assert choices == scan_choices(ms, 0, top)


def _chein_loop(g):
    """Chein's Moufang loop M(G, 2) on G and a primed copy of it, which is
    no group when G is not abelian."""
    def mul(u, v):
        a, b = u.rstrip("'"), v.rstrip("'")
        if u == a:
            return g.mul(a, b) if v == b else g.mul(b, a) + "'"
        return g.mul(a, g.inverse(b)) + "'" if v == b else g.mul(g.inverse(b), a)
    return catalog.from_function("*", [*g.carrier, *(a + "'" for a in g.carrier)], mul,
                                 g.identity)


def _loop_of_order_six():
    """A loop on 0 .. 5 that is not associative, where neither the
    prime-index quotients nor conjugating with a subgroup's generators
    alone finds its maximal normal subgroups."""
    rows = ["012345", "104253", "250134", "325410", "431502", "543021"]
    return catalog.from_function("*", "012345", lambda a, b: rows[int(a)][int(b)], "0")


@pytest.mark.parametrize("build, count", [(lambda: _chein_loop(CORPUS["S3"]), 3),
                                          (_loop_of_order_six, 1)],
                         ids=["chein-S3", "order-6-loop"])
def test_tables_that_are_no_group_take_the_lattice_filter(build, count):
    """On a loop that is not associative, each link's maximal normal
    subgroups are the maximal members of the lattice strictly inside it
    that every member x of the link maps onto themselves, x H = H x; the
    string scan over the lattice's names finds the same, and every
    composition series descends through them."""
    g = build()
    assert not validate_group(g).ok

    def maximal(top):
        inside = [h for h in subgroups(g) if len(h) < len(top) and set(h) <= set(top)
                  and all({g.mul(x, a) for a in h} == {g.mul(a, x) for a in h} for x in top)]
        return [h for h in inside if not any(set(h) < set(o) for o in inside)]

    def chains(top):
        return [(top,)] if len(top) == 1 else \
            [(top,) + tail for n in maximal(top) for tail in chains(n)]

    assert maximal_proper_normal_subgroups(g) == maximal(g.carrier)
    series_links = [c.links for c in composition_series(g)]
    assert series_links == chains(g.carrier) and len(series_links) == count


def test_lattices_above_the_default_bound():
    subs = subgroups(_fresh(Z2_5), ABOVE_BOUND)
    assert len(subs) == 374
    assert [n for _, n in sorted(Counter(map(len, subs)).items())] == \
        [1, 31, 155, 155, 31, 1]
    subs = subgroups(_fresh(Z2_6), ABOVE_BOUND)
    assert len(subs) == 2825
    assert [n for _, n in sorted(Counter(map(len, subs)).items())] == \
        [1, 63, 651, 1395, 651, 63, 1]
    assert len(subgroups(catalog.alternating(5), ABOVE_BOUND)) == 59
    assert len(subgroups(catalog.direct_product(catalog.symmetric_4(), catalog.cyclic(2)),
                         ABOVE_BOUND)) == 98


@pytest.mark.parametrize("g, light, elements, joins",
                         [(catalog.symmetric_4(), 4, 24, 132), (Z2_5, 6, 32, 1891),
                          (Z2_6, 7, 64, 22848)],
                         ids=["S4", "Z2^5", "Z2^6"])
def test_lattice_closure_count(monkeypatch, g, light, elements, joins):
    """One join per coset with Light's test included: Light's test closes
    each of its generators, the lattice each element, and each join is
    walked over cosets. Building each join as a closure of words took the
    same joins, 160, 1,929 and 22,919 closures in all; joining with every
    element closure took 284 closures on S4, 9,059 on Z2^5 and 152,468 on
    Z2^6, and joining every two closed sets 339 on S4 and 64,388 on Z2^5."""
    calls = _counted(monkeypatch, groups, "_close")
    powers = _counted(monkeypatch, groups, "_power_closure")
    walks = _counted(monkeypatch, groups, "_coset_join")
    subgroups(_fresh(g), ABOVE_BOUND)
    assert (len(calls), len(powers), len(walks)) == (light, elements, joins)


def _units(p):
    """The multiplicative group of GF(p), cyclic of order p - 1."""
    return catalog.prime_field(p).group_of("*")


def _counted(monkeypatch, module, name):
    calls, kernel = [], getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: calls.append(args) or kernel(*args))
    return calls


# the elements GF(p)'s units close, 1, 2, ... up to the least primitive
# root of p; Z_n closes 0 and then 1
UNITS_FIRST_GENERATOR = {2: 1, 3: 2, 5: 2, 7: 3, 11: 2, 13: 2, 17: 3, 19: 2, 23: 5}


@pytest.mark.parametrize("g, closures",
                         [(catalog.cyclic(n), min(n, 2)) for n in range(1, 25)] +
                         [(_units(p), k) for p, k in UNITS_FIRST_GENERATOR.items()],
                         ids=[f"Z{n}" for n in range(1, 25)] +
                         [f"GF{p}x" for p in UNITS_FIRST_GENERATOR])
def test_cyclic_lattices_are_the_element_closures(monkeypatch, g, closures):
    """An element closure fills a cyclic group, so the lattice closes the
    elements up to its first generator, reads every later element's closure
    off that generator's powers and joins nothing, and gets the dict of
    joining. Closing every element took g.order closures."""
    full, t = (1 << g.order) - 1, g._ints[0]
    assert g._generators is not None
    calls = _counted(monkeypatch, groups, "_close")
    powers = _counted(monkeypatch, groups, "_power_closure")
    walks = _counted(monkeypatch, groups, "_coset_join")
    found = _closed_subsets(t, full, True)
    assert (len(calls), len(powers), len(walks)) == (0, closures, 0)
    assert list(found.items()) == list(scan_element_joins(t, full, True).items())


def test_a_cyclic_part_of_s4_is_joined_from_nothing_in_the_completeness_route(monkeypatch):
    """Every cyclic subgroup of S4 as the allowed part of a one-operation
    space. S4 is a group, so the route gets the dict of joining
    every element closure, closing the allowed elements up to the first
    that generates the part and joining nothing, and the maximal closed
    set is the part itself. Closing every allowed element took 43 closures."""
    g = catalog.symmetric_4()
    g._light  # Light's test closes words: run it before _close is counted
    ms = MultiGroupSpace(g.carrier, (g,))
    t = ms._tables[0]
    cyclic = {ms._mask(s) for s in subgroups(g)
              if any(set(s) == set(g._names(_close((g._ints[0],), 0, 1 << x)))
                     for x in map(g.index, s))}
    assert len(cyclic) == 1 + 9 + 4 + 3  # the trivial group, and orders 2, 3 and 4
    kernel, seen = subspaces._closed_subsets, []
    monkeypatch.setattr(subspaces, "_closed_subsets",
                        lambda *args: seen.append((args, kernel(*args))) or seen[-1][1])
    calls = _counted(monkeypatch, groups, "_close")
    powers = _counted(monkeypatch, groups, "_power_closure")
    walks = _counted(monkeypatch, groups, "_coset_join")
    counts = []
    for within in sorted(cyclic):
        seen.clear()
        powers.clear()
        assert subspaces._closed_part_candidates(ms, 0, within) == [within]
        [((_, _, group), found)] = seen
        first = next(i for i, x in enumerate(_bits(within), 1)
                     if _close((t,), 0, 1 << x) == within)
        assert group and len(powers) == first
        assert list(found.items()) == list(scan_element_joins(t, within, True).items())
        counts.append(len(powers))
    assert (len(calls), sum(counts), len(walks)) == (0, 34, 0)


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
