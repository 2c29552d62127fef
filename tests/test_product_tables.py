"""The space layer reads one product table.

The distribution scan, the raw reading, the one-step span, cosets, the
conjugation scan and both subspace routes read their products and subsets
from MultiGroupSpace._tables and universe bitmasks. Each must equal the
string-keyed code it replaced (tests/oracles.py): the same result, or the
same exception type and text, on every shipped instance (invalid ones
where distribution fails among them), the overlapping pair family and
tests/golden/escape.mgs, where a product leaves its carrier. The
distribution scan is also checked on random partial tables, down to
one-element universes, where both directions fail often enough to stop
its witness search early, on every layout of the chain family, on GF(p)
for p <= 23 and on a near-field, whose multiplication distributes on one
side only; the rows it reads show where Light's generators decide a
direction. Validation, which scans a pair's second direction only when
the first does not settle it, must give the report of scanning both on
all of these, and the int tables, built a row at a time, must equal the
entry-by-entry builders they replaced.
"""

from itertools import combinations, permutations, product
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from multigroup import series as series_module, spaces
from multigroup.generation import GeneratingSet, span_closure, span_once
from multigroup.groups import FiniteGroup
from multigroup.instances import parse_instance
from multigroup.series import is_normal_subspace
from multigroup.spaces import (MAX_DISTRIBUTION_WITNESSES, MultiGroupSpace,
                               _check_one_direction, _validate, is_complete,
                               validate_multigroup)
from multigroup.subspaces import (SubsetRef, coset, is_subspace,
                                  is_subspace_by_intersection, subspace_decomposition)

import catalog
from conftest import (INSTANCE_DIR, chain_layouts, overlapping_chain_family,
                      outcome, overlapping_pair_family, relabel, small_space_catalog)
from test_groups import _semigroups, _tables
from test_subspaces import _escaping_groups
from oracles import (scan_check_one_direction, scan_coset, scan_inverses, scan_ints,
                     scan_is_complete, scan_is_normal_subspace,
                     scan_is_subspace_by_intersection, scan_span_once,
                     scan_subspace_decomposition, scan_tables, scan_validate,
                     subset_op_combinations)


def _spaces():
    cases = []
    for path in sorted(INSTANCE_DIR.glob("*.mgs")):
        ms = parse_instance(path.read_text(encoding="utf-8"))
        cases.append(pytest.param(ms, id=path.stem))
    for i, ms in enumerate(overlapping_pair_family()):
        cases.append(pytest.param(ms, id=f"overlap{i}"))
    escape = Path(__file__).parent / "golden" / "escape.mgs"
    cases.append(pytest.param(parse_instance(escape.read_text(encoding="utf-8")),
                              id="golden-escape"))
    return cases


SPACES = _spaces()


def _direction(ms, times, circ):
    """_check_one_direction on the operations with these ids, which the
    string scan takes; the engine takes their positions."""
    return _check_one_direction(ms, ms._position(times), ms._position(circ))


def _same_distribution_scan(ms):
    for times, circ in permutations(ms.op_set, 2):
        assert outcome(_direction, ms, times, circ) == \
            outcome(scan_check_one_direction, ms, times, circ), (times, circ)


def _same_validation(ms):
    assert _validate(ms) == scan_validate(ms)


def _same_raw_reading(ms):
    for r in range(len(ms.universe) + 1):
        for subset in combinations(ms.universe, r):
            for op in ms.op_set:
                assert outcome(is_complete, ms, subset, op) == \
                    outcome(scan_is_complete, ms, subset, op), (subset, op)


def _same_span_once(ms):
    for r in range(1, len(ms.universe) + 1):
        for seeds in combinations(ms.universe, r):
            a = GeneratingSet.of(ms, seeds)
            assert outcome(span_once, ms, a) == outcome(scan_span_once, ms, a), seeds


def _same_cosets_and_conjugation(ms):
    """Over every subset and retained ops: a non-subspace (or a space whose
    decomposition raises) must fail the same way in both."""
    for h in subset_op_combinations(ms):
        assert outcome(is_normal_subspace, ms, h) == \
            outcome(scan_is_normal_subspace, ms, h), h
        if outcome(is_subspace, ms, h) is not True:
            continue
        for g in ms.universe:
            assert outcome(coset, ms, h, g) == outcome(scan_coset, ms, h, g), (h, g)


@pytest.mark.parametrize("ms", SPACES)
def test_conjugation_by_generators_matches_the_string_scan(ms):
    """Every (subset, ops) gets the verdict, witness or error of the string
    scan from the conjugation route. On a valid space every subspace also
    gets the scan's verdict from the series walk's pass, which conjugates
    with only the generators the space's lattices keep for the carriers."""
    ms = MultiGroupSpace(ms.universe, ms.groups)
    valid = validate_multigroup(ms).ok
    for h in subset_op_combinations(ms):
        expected = outcome(scan_is_normal_subspace, ms, h)
        assert outcome(is_normal_subspace, ms, h) == expected, h
        if valid and type(expected) is not tuple:
            carriers = tuple(carrier if op in h.retained_ops else 0
                             for op, carrier in zip(ms.op_set, ms._carriers))
            assert series_module._normalised(ms, ms._mask(h.elements),
                                             carriers) == expected.ok, h


def _same_subspace_routes(ms):
    """Over every subset and retained ops: the same decomposition, the same
    intersection-route evidence, or the same error."""
    for s in subset_op_combinations(ms):
        assert outcome(subspace_decomposition, ms, s) == \
            outcome(scan_subspace_decomposition, ms, s), s
        assert outcome(is_subspace_by_intersection, ms, s) == \
            outcome(scan_is_subspace_by_intersection, ms, s), s


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
    _same_validation(ms)
    _same_distribution_scan(ms)
    _same_raw_reading(ms)
    _same_span_once(ms)
    _same_cosets_and_conjugation(ms)
    _same_subspace_routes(ms)


def test_the_raw_reading_ignores_members_outside_the_universe(gf3):
    assert is_complete(gf3, {"0", "zz"}, "+")
    assert not is_complete(gf3, {"1", "zz"}, "+")


def test_a_product_outside_the_universe_is_refused_when_the_space_is_built():
    """The tables need every product in the universe, and the constructor
    refuses a space that breaks it, naming the entry and its operation, so
    no route meets such a product. With the product in the universe the
    routes read the space as the string scans do."""
    broken = FiniteGroup("*", ("e", "a"), (("e", "a"), ("a", "q")), "e")
    z2 = FiniteGroup("+", ("e", "a"), (("e", "a"), ("a", "e")), "e")
    with pytest.raises(ValueError) as refused:
        MultiGroupSpace(("e", "a"), (z2, broken))
    assert str(refused.value) == "table entry 'q' of '*' not in universe"
    ms = MultiGroupSpace(("e", "a", "q"), (z2, broken))
    assert span_closure(ms, GeneratingSet.of(ms, ("a",))) == ("e", "a", "q")
    _same_validation(ms)
    _same_raw_reading(ms)
    _same_span_once(ms)


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
    _same_validation(ms)


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
        tested, witnesses = _direction(ms, times, circ)
        assert (tested, witnesses) == scan_check_one_direction(ms, times, circ)
        assert len(witnesses) == MAX_DISTRIBUTION_WITNESSES


def test_distribution_scan_matches_the_string_scan_on_every_chain_layout():
    """Every layout of the chain family, valid or not, in all six directions:
    the family keeps the spaces this scan calls valid, so its valid spaces
    alone could hide a wrong "holds". In 151 directions the distributor's
    carrier lies inside the other's and the direction holds."""
    layouts, decided = list(chain_layouts()), 0
    for ms in layouts:
        _same_distribution_scan(ms)
        decided += sum(not _check_one_direction(ms, a, b)[1]
                       for a, b in permutations(range(len(ms.groups)), 2)
                       if not ms._carriers[a] & ~ms._carriers[b])
    assert (len(layouts), decided) == (1350, 151)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 17, 19, 23])
def test_distribution_scan_matches_the_string_scan_on_prime_fields(p):
    _same_distribution_scan(catalog.prime_field(p))


def _near_field(opposite):
    """Dickson's near-field of order 9: GF(9) = Z3[i] with i^2 = -1 under +,
    and x * y = x y where y is a square in GF(9), x^3 y elsewhere, a group
    (Q8) on the nonzero elements. * is distributive on one side only;
    `opposite` multiplies the other way round, which swaps the sides."""
    def gf9(u, v):
        (a, b), (c, d) = map(int, u), map(int, v)
        return f"{(a * c - b * d) % 3}{(a * d + b * c) % 3}"

    def times(u, v):
        u, v = (v, u) if opposite else (u, v)
        return gf9(u, v) if v in squares else gf9(gf9(gf9(u, u), u), v)

    names = [f"{a}{b}" for a in range(3) for b in range(3)]
    squares = {gf9(u, u) for u in names[1:]}
    plus = catalog.from_function(
        "+", names, lambda u, v: "".join(str((int(a) + int(b)) % 3) for a, b in zip(u, v)), "00")
    return MultiGroupSpace(tuple(names), (plus, catalog.from_function(
        "*", names[1:], times, "10")))


@pytest.mark.parametrize("opposite", [False, True], ids=["left-fails", "right-fails"])
def test_the_generator_pass_checks_both_laws(opposite):
    # one law holds everywhere, so the generators' maps must fail on the other
    ms = _near_field(opposite)
    assert ms.group_of("*")._generators is not None
    tested, witnesses = _direction(ms, "*", "+")
    assert (tested, witnesses) == scan_check_one_direction(ms, "*", "+") and witnesses


def _rows_read(monkeypatch, ms, times, circ):
    """One direction's check, and how many rows of the * table the scan
    reads: two for each law it compares at an (x, y)."""
    reads, getter = [], spaces._getter

    def counting(indices):
        get = getter(indices)
        return lambda row: reads.append(row) or get(row)

    monkeypatch.setattr(spaces, "_getter", counting)
    return _direction(ms, times, circ), len(reads)


def test_light_generators_decide_a_group_inside_the_other_carrier(monkeypatch):
    # for the generators of * other than its identity 1, which is among
    # them and passes unread: each of its two maps, y -> x*y and y -> y*x,
    # is read once over the + carrier, then both sides of m(z + y) =
    # m(z) + m(y) at each generator z of + other than 0; no law is scanned
    gf23 = catalog.prime_field(23)
    (tested, witnesses), reads = _rows_read(monkeypatch, gf23, "*", "+")
    assert (tested, witnesses) == scan_check_one_direction(gf23, "*", "+")
    assert not witnesses
    g, plus = gf23.group_of("*"), gf23.group_of("+")
    gens, zs = g._generators, len(plus._generators) - 1
    assert g.index(g.identity) in gens and zs == 1
    assert len(gens) <= 3 and reads == 2 * (1 + 2 * zs) * (len(gens) - 1)


def _decided_alike(ms):
    """Every direction of every operation pair equals the string scan, and
    where the endomorphism pass decides, the scan holds with its count.
    The number of directions the pass decides."""
    decided = 0
    for a, b in permutations(range(len(ms.groups)), 2):
        ids = ms.groups[a].op_id, ms.groups[b].op_id
        expected = scan_check_one_direction(ms, *ids)
        tested = spaces._endomorphism_pass(ms, a, b)
        if tested is not None:
            decided += 1
            assert expected == (tested, ()), ids
        assert _check_one_direction(ms, a, b) == expected, ids
    return decided


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 17, 19, 23])
def test_the_endomorphism_pass_decides_prime_fields(p):
    # * over + only: + is no group inside the * carrier
    assert _decided_alike(catalog.prime_field(p)) == 1


def _twice(g):
    """Two operations with g's table on one universe, both carriers the
    whole universe."""
    return MultiGroupSpace(g.carrier, (g, relabel(g, g.carrier, "o")))


@pytest.mark.parametrize("ms, decided", [
    # the one-element field: every map is the identity, both directions hold
    (MultiGroupSpace(("e",), (FiniteGroup("+", ("e",), (("e",),), "e"),
                              FiniteGroup("*", ("e",), (("e",),), "e"))), 2),
    # the pass is skipped: an endomorphism fixes e, and x * e = e fails for
    # x != e; the scan names the witnesses
    (_twice(catalog.cyclic(3)), 0), (_twice(catalog.klein_four()), 0),
    (_twice(catalog.symmetric_3()), 0),
    # * on the nonzero elements: the pass applies, and the maps on the
    # side whose law fails are no endomorphisms
    (_near_field(False), 0), (_near_field(True), 0)],
    ids=["trivial", "z3", "klein", "s3", "near-field-left-fails", "near-field-right-fails"])
def test_the_endomorphism_pass_on_bodies_and_near_fields(ms, decided):
    assert _decided_alike(ms) == decided


def test_the_endomorphism_pass_matches_the_scan_on_the_chain_family():
    """Every direction of every valid space of the chain family. The pass
    decides 47: 23 where Z2 is * on Z3 less its identity, as in GF(3), and
    24 where Z3 is * on the Klein group less its identity, as in GF(4)."""
    family = overlapping_chain_family()
    assert (len(family), sum(map(_decided_alike, family))) == (355, 47)


def _conjugated(g, sigma):
    """g with its elements renamed by sigma, a permutation of its carrier:
    a group again on the same carrier, with identity sigma(e)."""
    to, back = dict(zip(g.carrier, sigma)), dict(zip(sigma, g.carrier))
    return catalog.from_function(g.op_id, g.carrier,
                                 lambda a, b: to[g.mul(back[a], back[b])], to[g.identity])


def _perturbed_field(p, k, sigma):
    ms = catalog.prime_field(p)
    groups = list(ms.groups)
    groups[k] = _conjugated(groups[k], sigma)
    return MultiGroupSpace(ms.universe, tuple(groups))


def test_a_failing_generator_leaves_the_witnesses_to_the_scan():
    # GF(7) with 3 and 5 swapped in *: still a group on 1..6, but 2 * 3 = 5
    # no longer distributes over +
    ms = _perturbed_field(7, 1, ("1", "2", "5", "4", "3", "6"))
    assert ms.groups[1]._generators is not None
    assert spaces._endomorphism_pass(ms, 1, 0) is None
    tested, witnesses = _direction(ms, "*", "+")
    assert (tested, witnesses) == scan_check_one_direction(ms, "*", "+")
    assert witnesses


@settings(max_examples=150)
@given(st.sampled_from([3, 5, 7, 11, 13]), st.sampled_from([0, 1]), st.data())
def test_the_endomorphism_pass_matches_the_scan_on_perturbed_fields(p, k, data):
    """GF(p) with the elements of one operation permuted: a group again,
    distributive only for a permutation that respects the other. Where
    a generator's map fails, the scan decides and names the witnesses."""
    carrier = catalog.prime_field(p).groups[k].carrier
    _decided_alike(_perturbed_field(p, k, data.draw(st.permutations(carrier))))


def _z5_monoid():
    """Z5 with + and the whole multiplicative monoid: T = C, * associative
    and distributive, but 0 has no inverse, so * is not a group."""
    ms = catalog.prime_field(5)
    times = catalog.from_function("*", ms.universe,
                                  lambda a, b: str(int(a) * int(b) % 5), "1")
    return MultiGroupSpace(ms.universe, (ms.groups[0], times))


@pytest.mark.parametrize("ms, times, circ, reads", [
    # x = 0 holds at all 22 y; x = 1 fails ten times at y = 1, and from
    # then on no row is read
    (catalog.prime_field(23), "+", "*", 2 * 2 * (22 + 1)),
    # both laws at each y for every x
    (_z5_monoid(), "*", "+", 2 * 2 * 5 * 5),
    # a group on the whole other carrier, its identity inside, as in
    # shipped/z4z4: the endomorphism pass is skipped, x = 0 holds at all
    # 4 y, x = 1 fails at every z and has ten witnesses by y = 2, and from
    # then on no row is read
    (_twice(catalog.cyclic(4)), "+", "o", 2 * 2 * (4 + 3)),
    (_twice(catalog.cyclic(4)), "o", "+", 2 * 2 * (4 + 3))],
    ids=["carrier-outside", "not-a-group", "z4-twice", "z4-twice-reversed"])
def test_the_scan_reads_only_the_rows_it_compares(
        monkeypatch, ms, times, circ, reads):
    check, read = _rows_read(monkeypatch, ms, times, circ)
    assert check == scan_check_one_direction(ms, times, circ)
    assert read == reads


def test_a_one_element_space_tests_both_laws_once():
    g = FiniteGroup("+", ("e",), (("e",),), "e")
    ms = MultiGroupSpace(("e",), (g, FiniteGroup("*", ("e",), (("e",),), "e")))
    for times, circ in (("+", "*"), ("*", "+")):
        check = _direction(ms, times, circ)
        assert check == scan_check_one_direction(ms, times, circ)
        assert check == (2, ())


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
        g._light  # cached or not: the kernel is chosen by the table alone
    s = SubsetRef.of(ms, data.draw(st.sets(st.sampled_from(ms.universe))))
    assert outcome(subspace_decomposition, ms, s) == \
        outcome(scan_subspace_decomposition, ms, s)
    assert outcome(is_subspace_by_intersection, ms, s) == \
        outcome(scan_is_subspace_by_intersection, ms, s)


@pytest.mark.parametrize("ms", SPACES)
def test_validation_matches_the_scan_of_both_directions(ms):
    _same_validation(ms)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 17, 19, 23])
def test_validation_matches_the_scan_of_both_directions_on_prime_fields(p):
    _same_validation(catalog.prime_field(p))


@pytest.mark.parametrize("ms", [_near_field(False), _near_field(True), _z5_monoid()],
                         ids=["near-field-left-fails", "near-field-right-fails",
                              "z5-monoid"])
def test_validation_matches_the_scan_of_both_directions_one_sided(ms):
    _same_validation(ms)


def test_validation_matches_the_scan_of_both_directions_on_every_chain_layout(monkeypatch):
    """Every layout of the chain family, valid or not. 355 are valid, and
    of the 4,050 operation pairs, 958 are settled by the first direction
    scanned."""
    scans, check = [], spaces._check_one_direction
    monkeypatch.setattr(spaces, "_check_one_direction",
                        lambda ms, times, circ: scans.append(1) or check(ms, times, circ))
    layouts = list(chain_layouts())
    valid = settled = 0
    for ms in layouts:
        scans.clear()
        report = _validate(ms)
        settled += 2 * 3 - len(scans)
        assert report == scan_validate(ms)
        valid += report.ok
    assert (len(layouts), valid, settled) == (1350, 355, 958)


def test_disjoint_carriers_read_no_row(monkeypatch):
    """Six Z2s on disjoint carriers: all 15 pairs hold vacuously, so both
    directions of each are scanned, and neither reads a row."""
    ms = catalog.disjoint_union(*[catalog.cyclic(2)] * 6)
    scans, check = [], spaces._check_one_direction
    monkeypatch.setattr(spaces, "_check_one_direction",
                        lambda ms, times, circ: scans.append(1) or check(ms, times, circ))
    reads = []
    monkeypatch.setattr(spaces, "_getter", lambda indices: reads.append(indices))
    report = validate_multigroup(ms)
    assert report.ok and len(report.notes) == 15
    assert (len(scans), reads) == (30, [])


def _same_int_tables(ms):
    """The space's tables, or the error of building them, and each group's
    int table and inverses, on fresh copies with nothing cached."""
    def fresh(g):
        return FiniteGroup(g.op_id, g.carrier, g.table, g.identity)

    space = MultiGroupSpace(ms.universe, tuple(map(fresh, ms.groups)))
    assert outcome(lambda: space._tables) == outcome(scan_tables, ms)
    for g in map(fresh, ms.groups):
        assert g._ints == scan_ints(g)
        assert outcome(lambda: g._inverses) == outcome(scan_inverses, g)


@pytest.mark.parametrize("ms", SPACES)
def test_int_tables_match_the_entry_by_entry_builders(ms):
    _same_int_tables(ms)


def test_int_tables_match_the_entry_by_entry_builders_on_the_corpus():
    for g in catalog.corpus_groups().values():
        _same_int_tables(MultiGroupSpace(g.carrier, (g,)))


@settings(max_examples=300)
@given(st.one_of(_tables(outside=("x", "y", "z")), _escaping_groups()), st.data())
def test_int_tables_match_the_entry_by_entry_builders_on_escaping_tables(g, data):
    """Products leave the carrier, but not the universe, which holds the
    carrier and the escaped names in any order."""
    universe = data.draw(st.permutations([*g.carrier, *g._ints[1]]))
    _same_int_tables(MultiGroupSpace(tuple(universe), (g,)))


def test_the_first_product_outside_the_universe_is_named_in_table_order():
    # in table order a * a = p comes first, in universe order e * e = q;
    # with p in the universe, q is the first product outside it
    g = FiniteGroup("*", ("a", "e"), (("p", "a"), ("a", "q")), "e")
    assert g._ints[1] == ("p", "q")
    for universe, named in ((("e", "a"), "p"), (("e", "a", "p"), "q")):
        with pytest.raises(ValueError) as refused:
            MultiGroupSpace(universe, (g,))
        assert str(refused.value) == f"table entry {named!r} of '*' not in universe"
    _same_int_tables(MultiGroupSpace(("e", "q", "a", "p"), (g,)))


def test_inverses_match_the_scan_on_semigroups():
    """Every associative table of order <= 4 under each declared identity,
    where a row often holds the identity several times and the first one
    is often a one-sided inverse."""
    one_sided = 0
    for n in range(1, 5):
        for table in _semigroups(n):
            for e in range(n):
                g = FiniteGroup("*", tuple(map(str, range(n))), table, str(e))
                assert g._inverses == scan_inverses(g)
                t = g._ints[0]
                one_sided += any(e in t[a] and t[t[a].index(e)][a] != e
                                 for a in range(n))
    assert one_sided > 0
