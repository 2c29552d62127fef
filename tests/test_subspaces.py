import gc
import random
import weakref
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from multigroup.errors import DomainError, PreconditionError
from multigroup.groups import FiniteGroup, _bits, _close, subgroups
from multigroup.instances import parse_instance
from multigroup.spaces import MultiGroupSpace, validate_multigroup
from multigroup import series as series_module
from multigroup import subspaces as subspaces_module
from multigroup.series import enumerate_maximal_series
from multigroup.subspaces import (SubsetRef, _closed_part_candidates, _cover,
                                  _decomposition, _parts,
                                  _subgroups_under, coset,
                                  coset_decomposition, induced_space, is_subspace,
                                  is_subspace_by_completeness,
                                  is_subspace_by_intersection, subspace_decomposition)

import catalog
from conftest import (INSTANCE_DIR, chain_layouts, count_lattices,
                      overlapping_pair_family, ref, subset_op_combinations, subspaces_of)
from oracles import (brute_subspace, scan_closed_parts, scan_closed_subsets,
                     scan_is_subspace_by_intersection, scan_lattice_filter,
                     scan_space_lattice, scan_subspace_decomposition)
from test_groups import _tables

A3 = ("e", "(123)", "(132)")


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
    assert not ev.ok and not ev  # 1+1 = 2 escapes, and nothing else can cover 1
    # a repeated op is one part, so two subgroups of S3 may not cover the set
    s3 = catalog.single(catalog.symmetric_3())
    s = SubsetRef(("e", "(12)", "(123)", "(132)"), ("*", "*"))
    ev = is_subspace_by_intersection(s3, s)
    assert ev == scan_is_subspace_by_intersection(s3, s)
    assert not ev and not is_subspace(s3, s)
    assert ev.reason == "no per-operation assignment of subgroups covers the subset"


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


def test_parts_come_in_universe_index_order_not_bitmask_value():
    """Two maximal subgroups of S3 fit the subset, and a Z3 on the other
    elements completes either. The first in universe index order, A3 at
    indices 0, 1, 5, is the part, although {e, (12)} at 0, 2 has the
    smaller bitmask."""
    s3, c = catalog.symmetric_3(), ("(12)", "(123)", "(132)")
    z3 = FiniteGroup("o", c, tuple(c[i:] + c[:i] for i in range(3)), c[0])
    ms = MultiGroupSpace(("e", "(123)", "(12)", "(23)", "(13)", "(132)"), (s3, z3))
    s = ref(ms, ["e", "(123)", "(132)", "(12)"])
    parts = {s3.op_id: ("e", "(123)", "(132)"), "o": ("(123)", "(12)", "(132)")}
    assert subspace_decomposition(ms, s) == scan_subspace_decomposition(ms, s) == parts
    assert is_subspace_by_intersection(ms, s).parts == tuple(parts.items())


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


def test_both_route_cores_agree_on_the_whole_chain_family():
    """The two-route gate: every valid chain-family space, every nonempty
    universe mask and every nonempty set of positions whose carriers meet
    it, with no SubsetRef and no sampling. The completeness core is _parts;
    the intersection core reads the sorted whole-lattice filter
    (oracles.scan_lattice_filter), is False on an empty list and otherwise
    runs _cover. On a group the intersection route reads the down-set
    (_subgroups_under) instead, which down_sets_match_the_lattice checks
    equal to that filter."""
    spaces = pairs = 0
    for ms in chain_layouts():
        if not validate_multigroup(ms).ok:
            continue
        spaces += 1
        for mask in range(1, 1 << len(ms.universe)):
            meeting = [k for k, carrier in enumerate(ms._carriers) if mask & carrier]
            lattice = {k: sorted(scan_lattice_filter(ms, k, mask), key=_bits)
                       for k in meeting}
            for r in range(1, len(meeting) + 1):
                for ks in combinations(meeting, r):
                    candidates = {k: lattice[k] for k in ks}
                    by_lattice = all(candidates.values()) and \
                        _cover(mask, candidates) is not None
                    by_closure = _parts(ms, mask, tuple(ms.op_set[k] for k in ks)) is not None
                    assert by_lattice == by_closure, (ms.universe, ms.op_set, mask, ks)
                    pairs += 1
    assert (spaces, pairs) == (355, 582983)


def down_sets_match_the_lattice(spaces):
    """The subgroups the closure kernel finds under a set equal the
    whole-lattice filter (oracles.scan_lattice_filter), on each operation
    that is a group. For every universe mask meeting its carrier, the
    intersection route's candidates, read off the down-set under the
    target, and on a valid space the completeness candidates of the mask's
    share of the carrier, which the series walk covers with. On a valid
    space, for every subgroup of the carrier, each a carrier the walk may
    meet, the subgroups it reads there (series._subgroups), the carrier
    generated by the elements kept for it. Returns the number of spaces,
    of masks, of masks on valid spaces and of subgroups checked."""
    count = checks = covers = carriers = 0
    for ms in spaces:
        count += 1
        valid = validate_multigroup(ms).ok
        for k, carrier in enumerate(ms._carriers):
            if ms.groups[k]._generators is None:
                continue
            for mask in range(1, 1 << len(ms.universe)):
                if mask & carrier:
                    expected = sorted(scan_lattice_filter(ms, k, mask), key=_bits)
                    where = (ms.universe, ms.op_set, k, mask)
                    assert sorted(_subgroups_under(ms, k, mask), key=_bits) == expected, where
                    checks += 1
                    if valid:
                        assert sorted(_closed_part_candidates(ms, k, mask & carrier),
                                      key=_bits) == expected, where
                        covers += 1
            if valid:
                for sub in scan_space_lattice(ms, k):
                    found, where = series_module._subgroups(ms, k, sub), (ms.universe, k, sub)
                    assert sorted(found, key=_bits) == \
                        sorted((m for m in scan_space_lattice(ms, k) if not m & ~sub),
                               key=_bits), where
                    gens = sum(1 << x for x in found[sub])
                    assert _close((ms._tables[k],), 0, gens) == sub, where
                    carriers += 1
    return count, checks, covers, carriers


def test_down_sets_match_the_lattice_filter(monkeypatch):
    """On the pair family, every shipped instance and the corpus groups;
    CI runs the chain family, (355, 270723, 270723, 3314). The kernel is
    exact on any table, so only the flag it is handed shows that a group's
    closures are walked as powers and cosets: it is run once per down-set,
    once per distinct (operation, share) of the completeness candidates,
    which the space keeps, and once per subgroup read by the walk."""
    flags = []
    for module in (subspaces_module, series_module):
        monkeypatch.setattr(module, "_closed_subsets",
                            lambda t, within, group=False, kernel=module._closed_subsets:
                            flags.append(group) or kernel(t, within, group))
    assert down_sets_match_the_lattice(overlapping_pair_family()) == (51, 10052, 10052, 345)
    shipped = [parse_instance(p.read_text()) for p in sorted(INSTANCE_DIR.glob("*.mgs"))]
    assert down_sets_match_the_lattice(shipped) == (13, 4547, 4510, 49)
    corpus = [catalog.single(g) for g in catalog.corpus_groups().values()]
    assert down_sets_match_the_lattice(corpus) == (16, 12860, 12860, 71)
    assert flags == [True] * (10052 + 4547 + 12860 + 18879 + 345 + 49 + 71)


@pytest.mark.parametrize("group", [pytest.param(lambda: catalog.alternating(4),
                                                id="alternating_4"),
                                   catalog.dihedral_4, catalog.quaternion_8,
                                   catalog.symmetric_3, catalog.klein_four])
def test_the_intersection_route_builds_no_lattice_on_a_group(monkeypatch, group):
    """The route reads the subgroups under the target: a cyclic subgroup
    of a fresh group, whose lattice the whole-lattice filter would build."""
    ms = catalog.single(group())
    g, x = ms.groups[0], ms.universe[-1]
    powers = [x]
    while powers[-1] != g.identity:
        powers.append(g.mul(powers[-1], x))
    evaluations = count_lattices(monkeypatch)
    evidence = is_subspace_by_intersection(ms, ref(ms, powers))
    assert evidence.ok and dict(evidence.parts) == {"*": ms._elements(ms._mask(powers))}
    assert evaluations == []


def test_the_intersection_route_reads_a_lattice_where_a_table_is_no_group(monkeypatch):
    """gf3_corrupt's * names 2 as having no inverse although 2 lies outside
    {0, 1}: only that table's lattice is evaluated, and it raises."""
    ms = catalog.shipped("gf3_corrupt")
    evaluations = count_lattices(monkeypatch)
    with pytest.raises(DomainError, match=r"^'2' has no inverse under '\*'$"):
        is_subspace_by_intersection(ms, ref(ms, ["0", "1"]))
    assert [g.op_id for g in evaluations] == ["*"]


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
    ms = catalog.shipped("z2link")
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

def test_induced_space_is_valid(gf3, small_spaces):
    for ms in small_spaces.values():
        for h in subspaces_of(ms):
            inner = induced_space(ms, h)
            assert validate_multigroup(inner).ok
            assert inner.universe == h.elements


def _decomposes_alike_inside(ms, s):
    """Decomposing inside the space induced on s by passing its carriers,
    by closures (_decomposition) and by the series walk's cover
    (series._induced, on the operations SubsetRef.of retains), agrees with
    decomposing in induced_space(ms, s) itself."""
    inner = induced_space(ms, s)
    carriers = _parts(ms, ms._mask(s.elements), s.retained_ops)
    for t in subset_op_combinations(inner):
        mask = ms._mask(t.elements)
        got = _decomposition(ms, mask, tuple(map(ms._position, t.retained_ops)), carriers)
        expected = subspace_decomposition(inner, t)
        assert (None if got is None else {op: ms._elements(got[ms._position(op)])
                                          for op in t.retained_ops}) == expected, (s, t)
        if t.retained_ops == SubsetRef.of(inner, t.elements).retained_ops:
            walk = series_module._induced(ms, carriers, mask)
            assert walk == (None if expected is None else tuple(
                ms._mask(expected.get(op, ())) for op in ms.op_set)), (s, t)


@pytest.mark.parametrize("name", ("gf3", "gf5", "z6units", "z2z3", "z2z2", "klein"))
def test_parts_over_induced_carriers_match_the_induced_space(small_spaces, name):
    ms = small_spaces[name]
    for s in subspaces_of(ms):
        _decomposes_alike_inside(ms, s)


def test_parts_over_induced_carriers_match_on_overlapping_carriers():
    for ms in overlapping_pair_family(max_universe=6):
        for s in subspaces_of(ms):
            _decomposes_alike_inside(ms, s)


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


def _space_candidates(g, allowed):
    """_closed_part_candidates through a one-operation space whose universe
    is g's carrier followed by the products outside it."""
    ms = MultiGroupSpace(g.carrier + g._ints[1], (g,))
    return [frozenset(ms._elements(m))
            for m in _closed_part_candidates(ms, 0, ms._mask(allowed))]


def _candidates_outcome(find, g, allowed):
    try:
        return set(find(g, allowed))
    except DomainError as exc:
        return str(exc)


def _pairwise_candidates(g, allowed):
    """_closed_part_candidates over the loop that joined every two closed
    sets, naming the first escape any dropped closure reached."""
    t, outside = g._ints
    found, rejected = scan_closed_subsets(t, sum(1 << g.index(e) for e in allowed))
    escaped = rejected >> g.order
    if escaped:
        first = outside[(escaped & -escaped).bit_length() - 1]
        raise DomainError(f"{first!r} is not in the carrier of {g.op_id!r}")
    return [frozenset(g.carrier[i] for i in _bits(m)) for m in found
            if not any(m != o and m & o == m for o in found)]


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
    g = FiniteGroup(g.op_id, g.carrier, g.table, g.identity)
    if data.draw(st.booleans()):
        g._light  # cached or not: the kernel is chosen by the table alone
    outcome = _candidates_outcome(_space_candidates, g, allowed)
    assert outcome == _candidates_outcome(scan_closed_parts, g, allowed)
    assert outcome == _candidates_outcome(_pairwise_candidates, g, allowed)


def test_closed_part_candidates_join_every_element_closure_off_groups():
    """An associative table of order 5 that is not a group, with Light's
    verdict cached: joining once per coset would lose the maximal closed
    set {3, 4} of {1, 2, 3, 4}."""
    rows = ("00033", "01033", "22244", "00033", "22244")
    g = FiniteGroup("*", tuple("01234"), tuple(map(tuple, rows)), "1")
    assert g._light is not None and g._generators is None
    for r in range(1, 6):
        for allowed in map(frozenset, combinations(g.carrier, r)):
            assert _candidates_outcome(_space_candidates, g, allowed) == \
                _candidates_outcome(scan_closed_parts, g, allowed), allowed


@st.composite
def _escaping_groups(draw):
    """A corpus group with one to three products sent outside the carrier."""
    g = draw(st.sampled_from([g for g in catalog.corpus_groups().values()
                              if 1 < g.order <= 12]))
    table = [list(row) for row in g.table]
    for name in draw(st.lists(st.sampled_from("xyz"), min_size=1, max_size=3)):
        i, j = (draw(st.integers(0, g.order - 1)) for _ in "ij")
        table[i][j] = name
    return FiniteGroup(g.op_id, g.carrier, tuple(map(tuple, table)), g.identity)


@settings(max_examples=300)
@given(st.one_of(_tables(outside=("x", "y", "z")), _escaping_groups()), st.data())
def test_closed_part_candidates_name_the_escape_of_pairwise_joins(g, data):
    # several products leave the carrier; the first one in table order that
    # joining every two closed sets reached is the one named
    allowed = frozenset(data.draw(st.sets(st.sampled_from(g.carrier))))
    assert _candidates_outcome(_space_candidates, g, allowed) == \
        _candidates_outcome(_pairwise_candidates, g, allowed)


def test_closed_part_candidates_name_an_escape_only_a_join_reaches():
    # {a} and {b} are closed, c * c = z escapes, and only the join of {a}
    # and {b} reaches a * b = x, which comes first in table order
    rows = ("e a b c", "a a x a", "b y b b", "c c c z")
    g = FiniteGroup("*", tuple("eabc"), tuple(tuple(r.split()) for r in rows), "e")
    allowed = frozenset("abc")
    assert _candidates_outcome(_space_candidates, g, allowed) == \
        _candidates_outcome(_pairwise_candidates, g, allowed) == \
        "'x' is not in the carrier of '*'"


def test_decomposition_cache_is_freed_with_its_space():
    """So is everything the space's one memo keeps: the completeness
    route's candidates per operation, which the walk also covers with, the
    subgroups of each carrier the walk meets, its choices, the edge
    verdicts, the link SubsetRefs and the enumeration. The decompositions
    themselves are computed on each call, and no lattice is kept."""
    ms = catalog.shipped("gf3")
    s = ref(ms, ["0", "1"], ["+", "*"])
    assert subspace_decomposition(ms, s) == {"+": ("0",), "*": ("1",)}
    assert ("candidates", 0, ms._mask(["0", "1"])) in ms._memo
    assert ("candidates", 1, ms._mask(["1"])) in ms._memo
    enumerate_maximal_series(ms)
    assert {k[0] for k in ms._memo} == {"candidates", "subgroups",
                                        "choices", "edge", "ref", "maximal"}
    assert all(type(v) is SubsetRef for k, v in ms._memo.items() if k[0] == "ref")
    gone = weakref.ref(ms)
    del ms
    gc.collect()
    assert gone() is None


def test_a_normal_check_closes_each_operation_once(monkeypatch):
    """mgs normal decides the subspace twice, by conjugation and by the
    criterion; the second decomposition reads the candidates the first
    one left on the space."""
    calls = []

    def counted(t, within, group):
        calls.append(within)
        return closed_subsets(t, within, group)

    closed_subsets = subspaces_module._closed_subsets
    monkeypatch.setattr(subspaces_module, "_closed_subsets", counted)
    ms = catalog.shipped("gf3")
    h = ref(ms, ["0", "1"], ["+", "*"])
    assert series_module.is_normal_subspace(ms, h).ok
    assert series_module.normality_criterion(ms, h)
    assert calls == [ms._mask(["0", "1"]), ms._mask(["1"])]
