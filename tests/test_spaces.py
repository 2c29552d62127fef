import sys
from functools import cached_property
from itertools import combinations, permutations, product

import pytest

from multigroup import spaces
from multigroup.errors import DomainError, PreconditionError
from multigroup.groups import FiniteGroup
from multigroup.instances import serialize_instance
from multigroup.report import DISTRIBUTION
from multigroup.series import build_series, enumerate_maximal_series
from multigroup.spaces import (MultiGroupSpace, check_distribution,
                               classify_special_case, is_complete, validate_multigroup)
from multigroup.subspaces import _closed_part_candidates

import catalog
from conftest import relabel, run_cli
from oracles import scan_is_abelian, scan_validate
from test_golden import INSTANCES, render_golden


def test_gf3_distribution_passes(gf3):
    check = check_distribution(gf3, "+", "*")
    # multiplication is the distributing side; addition alone is not
    assert check.b_over_a.holds
    assert not check.a_over_b.holds


def test_disjoint_carriers_pass_vacuously(z2z3):
    check = check_distribution(z2z3, "a", "b")
    assert check.a_over_b.holds and check.a_over_b.vacuous
    assert check.b_over_a.holds and check.b_over_a.vacuous


def test_relabelled_doubled_operation_fails_with_witness():
    ms = catalog.shipped("z4z4")
    check = check_distribution(ms, "p", "q")
    assert not check.a_over_b.holds and not check.b_over_a.holds
    # every reported witness replays as a genuine violation
    p = ms.group_of("p")
    q = ms.group_of("q")
    for x, y, z in check.a_over_b.witnesses:
        left = p.mul(x, q.mul(y, z))
        right = q.mul(p.mul(x, y), p.mul(x, z))
        mirror_left = p.mul(q.mul(y, z), x)
        mirror_right = q.mul(p.mul(y, x), p.mul(z, x))
        assert left != right or mirror_left != mirror_right
    # the classic witness: 1+(1+1) = 3 but (1+1)+(1+1) = 0
    assert p.mul("1", q.mul("1", "1")) == "3"
    assert q.mul(p.mul("1", "1"), p.mul("1", "1")) == "0"


def test_distribution_pair_predicate_is_symmetric(gf3, z2z3):
    """Swapping the pair swaps its two directions, each the same record."""
    for ms in (gf3, z2z3, catalog.shipped("z4z4")):
        for a, b in combinations(ms.op_set, 2):
            ab, ba = check_distribution(ms, a, b), check_distribution(ms, b, a)
            assert (ba.a_over_b, ba.b_over_a) == (ab.b_over_a, ab.a_over_b)


def test_distribution_rejects_bad_ops(gf3):
    with pytest.raises(DomainError):
        check_distribution(gf3, "+", "+")
    with pytest.raises(DomainError):
        check_distribution(gf3, "+", "?")


def test_validate_single_group_is_group():
    ms = catalog.single(catalog.symmetric_3())
    assert validate_multigroup(ms).ok
    assert classify_special_case(ms).tag == "group"


def test_validate_and_classify_gf3(gf3):
    assert validate_multigroup(gf3).ok
    c = classify_special_case(gf3)
    assert c.tag == "field"
    assert c.convention == "identity-excluded"


def test_classify_is_orientation_independent(gf3):
    flipped = MultiGroupSpace(gf3.universe, tuple(reversed(gf3.groups)))
    assert classify_special_case(flipped).tag == "field"


def test_disjoint_union_is_general(z2z3):
    assert validate_multigroup(z2z3).ok
    assert classify_special_case(z2z3).tag == "general"


def test_prime_fields_classify_as_fields():
    for p in (2, 3, 5, 7):
        ms = catalog.prime_field(p)
        assert validate_multigroup(ms).ok
        c = classify_special_case(ms)
        assert c.tag == "field" and c.convention == "identity-excluded"


def test_partial_unit_group_is_general_not_a_field():
    ms = catalog.shipped("z6units")
    assert validate_multigroup(ms).ok
    assert classify_special_case(ms).tag == "general"


def test_linked_z2s_space_is_valid():
    assert validate_multigroup(catalog.shipped("z2link")).ok


def test_corrupt_gf3_reports_inverse_witness():
    report = validate_multigroup(catalog.shipped("gf3_corrupt"))
    assert not report.ok
    inverse = [v for v in report.violations if v.kind == "inverse"]
    assert inverse and inverse[0].witness == ("2",)
    assert not report.structural()


def test_classify_requires_valid_space():
    with pytest.raises(PreconditionError):
        classify_special_case(catalog.shipped("gf3_corrupt"))


def test_orphan_element_is_structural(gf3):
    ms = MultiGroupSpace(gf3.universe + ("9",), gf3.groups)
    report = validate_multigroup(ms)
    assert [v.kind for v in report.structural()] == ["orphan-element"]


def test_a_repeated_operation_id_is_refused_when_built():
    """The universe holds both carriers, so only the second '+' is wrong,
    and the constructor names it as the parser does."""
    z2 = catalog.cyclic(2)
    first, twice = relabel(z2, ("a0", "a1"), "+"), relabel(z2, ("b0", "b1"), "+")
    with pytest.raises(ValueError) as refused:
        MultiGroupSpace(("a0", "a1", "b0", "b1"), (first, twice))
    assert str(refused.value) == "operation id '+' declared twice"
    with pytest.raises(ValueError, match="duplicate element in universe"):
        MultiGroupSpace(z2.carrier * 2, (z2,))


def test_a_carrier_element_outside_the_universe_is_refused_when_built():
    """Z2 on (e, c) in the universe (e,), and the first element outside in
    carrier order of a later operation: each named with its operation."""
    with pytest.raises(ValueError) as refused:
        MultiGroupSpace(("e",), (relabel(catalog.cyclic(2), ("e", "c"), "+"),))
    assert str(refused.value) == "carrier element 'c' of '+' not in universe"
    with pytest.raises(ValueError) as refused:
        MultiGroupSpace(("0", "8"), (catalog.cyclic(1),
                                     relabel(catalog.cyclic(3), ("0", "9", "8"), "*")))
    assert str(refused.value) == "carrier element '9' of '*' not in universe"


def test_a_table_entry_outside_the_universe_is_refused_when_built():
    """The first entry outside the universe in row-major table order, of
    the first such operation in file order, named with its operation; an
    entry outside the carrier but inside the universe is a closure failure
    that validation reports."""
    z2 = relabel(catalog.cyclic(2), ("e", "a"), "+")
    leaks = FiniteGroup("*", ("e", "a"), (("e", "q"), ("p", "e")), "e")
    with pytest.raises(ValueError) as refused:
        MultiGroupSpace(("e", "a"), (z2, leaks))
    assert str(refused.value) == "table entry 'q' of '*' not in universe"
    with pytest.raises(ValueError) as refused:
        MultiGroupSpace(("e", "a", "q"), (leaks, relabel(z2, ("e", "c"), "x")))
    assert str(refused.value) == "table entry 'p' of '*' not in universe"
    report = validate_multigroup(MultiGroupSpace(("e", "a", "q", "p"), (leaks, z2)))
    assert [(v.kind, v.witness) for v in report.violations] == [
        ("orphan-element", ("q", "p")), ("closure", ("e", "a", "q"))]


def test_every_structural_kind_at_once_matches_the_scan():
    """One space with two orphans and a group axiom failure: each kind, text
    and witness, in the scan's order. An orphan is the one structural kind
    a built space can hold, as a table entry that is no element is refused,
    and it keeps distribution unscanned: without the orphans the doubled
    Z2 fails it."""
    z2 = catalog.cyclic(2)
    first, twice = relabel(z2, ("a0", "a1"), "+"), relabel(z2, ("a0", "a1"), "x")
    no_identity = FiniteGroup("y", ("b0", "b1"), (("b1", "b0"), ("b0", "b1")), "b0")
    ms = MultiGroupSpace(("a0", "a1", "z", "b0", "b1", "w"), (first, twice, no_identity))
    report = spaces._validate(ms)
    assert [v.kind for v in report.violations] == ["orphan-element", "identity"]
    assert [v.witness for v in report.structural()] == [("z", "w")]
    assert report.notes == ()
    assert report == scan_validate(ms)
    unknown = FiniteGroup("u", ("a0", "b0"), (("a0", "b0"), ("b0", "q")), "a0")
    with pytest.raises(ValueError, match="table entry 'q' of 'u' not in universe"):
        MultiGroupSpace(ms.universe, (*ms.groups, unknown))
    whole = MultiGroupSpace(("a0", "a1", "b0", "b1"), ms.groups)
    assert [v.kind for v in spaces._validate(whole).violations] == \
        ["identity"] + ["distribution"] * 4
    assert spaces._validate(whole) == scan_validate(whole)


def test_is_complete_examples(gf3):
    assert is_complete(gf3, {"0"}, "+")
    assert not is_complete(gf3, {"0", "1"}, "+")
    for op in gf3.op_set:
        assert is_complete(gf3, gf3.universe, op)
    with pytest.raises(DomainError):
        is_complete(gf3, {"0"}, "?")


def test_each_carrier_is_complete_in_valid_spaces(small_spaces):
    for ms in small_spaces.values():
        for g in ms.groups:
            assert is_complete(ms, g.carrier, g.op_id)


def test_partial_products(gf3):
    assert gf3.product("+", "1", "2") == "0"
    assert gf3.product("*", "0", "1") is None
    assert not gf3.defined("*", "0", "0")


def test_exact_carrier_body_convention():
    # two commuting operations on one full carrier: component-wise xor pair
    g1 = catalog.cyclic(2, op_id="p")
    g2 = FiniteGroup("q", g1.carrier, g1.table, g1.identity)
    ms = MultiGroupSpace(g1.carrier, (g1, g2))
    # distribution fails here, so classification refuses; the exact
    # convention is reached on one element under two operations, in
    # test_cli.py::test_reports_no_golden_file_holds
    assert not validate_multigroup(ms).ok


@pytest.mark.parametrize("command", ["maximal-series", "validate", "classify"])
def test_cli_validates_a_space_once(tmp_path, monkeypatch, command):
    """One distribution scan for the one operation pair, though
    maximal-series enumerates under both orderings and validate classifies:
    * over + holds on Light's generators, so + over * is never scanned.
    The scan takes positions: + is operation 0 and * operation 1."""
    path = tmp_path / "gf5.mgs"
    path.write_text(serialize_instance(catalog.prime_field(5)), encoding="utf-8")
    calls = []
    check = spaces._check_one_direction
    monkeypatch.setattr(spaces, "_check_one_direction",
                        lambda ms, times, circ: calls.append((times, circ))
                        or check(ms, times, circ))
    _, code = run_cli([command, str(path)])
    assert code in (0, 1)
    assert calls == [(1, 0)]


def test_mutating_a_validation_report_changes_no_later_verdict(gf3):
    """The report is immutable, so every mutation raises and the space
    hands out the same report on every call."""
    ms = catalog.prime_field(3)
    report = validate_multigroup(ms)
    with pytest.raises(AttributeError):
        report.add(DISTRIBUTION, "distribution", "injected", ("+", "*"))
    with pytest.raises(AttributeError):
        report.note("injected")
    with pytest.raises(AttributeError):
        report.notes = ("injected",)
    again = validate_multigroup(ms)
    assert again is report and hash(again) == hash(report)
    assert again.ok and "injected" not in again.notes
    assert again == validate_multigroup(gf3)
    assert classify_special_case(ms).tag == "field"

    broken = catalog.shipped("gf3_corrupt")
    report = validate_multigroup(broken)
    with pytest.raises(AttributeError):
        report.violations.clear()
    assert not validate_multigroup(broken).ok
    with pytest.raises(PreconditionError):
        classify_special_case(broken)


@pytest.mark.parametrize("decide", [build_series, enumerate_maximal_series,
                                    classify_special_case],
                         ids=lambda fn: fn.__name__)
def test_the_engine_asks_validate_multigroup_for_the_verdict(monkeypatch, decide):
    """With validate_multigroup wrapped in every multigroup namespace, as
    perfbench/tracing.py wraps it, each caller that needs a valid space is
    seen asking it about a freshly parsed one."""
    asked, original = [], spaces.validate_multigroup

    def wrapped(ms):
        asked.append(ms)
        return original(ms)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "multigroup" and \
                vars(module).get("validate_multigroup") is original:
            monkeypatch.setattr(module, "validate_multigroup", wrapped)
    ms = catalog.shipped("gf3")
    decide(ms)
    assert asked and asked[0] is ms


# ------------------------------------------- the carrier conventions, exhaustively

def _abelian(*orders):
    """Z_n1 x ... x Z_nk as an int table over mixed-radix indices, identity 0."""
    elems = list(product(*map(range, orders)))
    index = {x: i for i, x in enumerate(elems)}
    return [[index[tuple((a + b) % n for a, b, n in zip(x, y, orders))] for y in elems]
            for x in elems], 0


def _int_table(g):
    return [[g.index(g.mul(a, b)) for b in g.carrier] for a in g.carrier], g.index(g.identity)


def _groups_of_order(n):
    """One int table and identity per isomorphism type, for n <= 9."""
    abelian = {1: [(1,)], 2: [(2,)], 3: [(3,)], 4: [(4,), (2, 2)], 5: [(5,)], 6: [(6,)],
               7: [(7,)], 8: [(8,), (4, 2), (2, 2, 2)], 9: [(9,), (3, 3)]}
    other = {6: [catalog.symmetric_3], 8: [catalog.dihedral_4, catalog.quaternion_8]}
    return ([_abelian(*orders) for orders in abelian[n]]
            + [_int_table(make()) for make in other.get(n, [])])


def _reach(t, e, gens, images=None):
    """The images of a map on the group generated by gens that sends each
    generator to its image and is multiplicative, walking words from e;
    None when two words disagree. Without images, the subgroup itself."""
    images = gens if images is None else images
    phi, frontier = {e: e}, [e]
    while frontier:
        x = frontier.pop()
        for g, h in zip(gens, images):
            y, z = t[x][g], t[phi[x]][h]
            if y not in phi:
                phi[y] = z
                frontier.append(y)
            elif phi[y] != z:
                return None
    return phi


def _automorphisms(t, e):
    """Every automorphism as a tuple of images, from the images of a
    generating tuple taken greedily in index order."""
    n, gens = len(t), []
    for x in range(n):
        if x not in _reach(t, e, gens):
            gens.append(x)
    out = []
    for images in permutations(range(n), len(gens)):
        phi = _reach(t, e, gens, images)
        if (phi is not None and len(set(phi.values())) == n
                and all(phi[t[a][b]] == t[phi[a]][phi[b]] for a in range(n) for b in range(n))):
            out.append(tuple(phi[x] for x in range(n)))
    return out


def _placed(u, sigma, n):
    # the table of u carried by sigma onto its points, as an n x n grid
    flat = bytearray(n * n)
    for i, row in enumerate(u):
        at = sigma[i] * n
        for j, k in enumerate(row):
            flat[at + sigma[j]] = sigma[k]
    return bytes(flat)


def _placements(autos, u, points, n):
    """Each placement of the group table u on points, as the image of each
    of u's indices, one per orbit of the automorphisms autos of the full
    group, which fix points as a set."""
    seen = set()
    for sigma in permutations(points):
        if _placed(u, sigma, n) not in seen:
            seen.update(_placed(u, [a[p] for p in sigma], n) for a in autos)
            yield sigma


def carrier_convention_search(n, exact):
    """Every valid-or-not space of a full group on n elements and a second
    group on all of them (exact) or on all but the full group's identity,
    one per orbit of the full group's automorphisms, in both operation
    orders. Validation must agree with the scan, and every valid space
    must be a field with both groups abelian. Returns the number of spaces
    and of valid ones, counted with the full group first."""
    names = tuple(map(str, range(n)))
    spaces = valid = 0
    for t, e in _groups_of_order(n):
        full = FiniteGroup("+", names, tuple(tuple(names[z] for z in row) for row in t),
                           names[e])
        points = [x for x in range(n) if exact or x != e]
        for u, f in _groups_of_order(len(points)):
            for sigma in _placements(_automorphisms(t, e), u, points, n):
                where = {p: i for i, p in enumerate(sigma)}
                table = tuple(tuple(names[sigma[u[where[p]][where[q]]]] for q in points)
                              for p in points)
                partial = FiniteGroup("*", tuple(names[p] for p in points), table,
                                      names[sigma[f]])
                oks = []
                for groups in ((full, partial), (partial, full)):
                    ms = MultiGroupSpace(names, groups)
                    ok = validate_multigroup(ms).ok
                    assert ok == scan_validate(ms).ok, (groups, ok)
                    if ok:
                        assert classify_special_case(ms).tag == "field"
                        assert all(map(scan_is_abelian, groups))
                    oks.append(ok)
                assert oks[0] == oks[1]
                spaces += 1
                valid += oks[0]
    return spaces, valid


# spaces per |U| with the full group first, one per orbit of its automorphisms
IDENTITY_EXCLUDED_SPACES = {2: 1, 3: 1, 4: 3, 5: 4, 6: 22, 7: 80, 8: 472}


@pytest.mark.parametrize("n", sorted(IDENTITY_EXCLUDED_SPACES))
def test_the_valid_identity_excluded_spaces_are_the_finite_fields(n):
    """No skew field: the valid spaces are one GF(q) per prime power q, so
    classify_special_case needs no commutativity test (Wedderburn)."""
    spaces, valid = carrier_convention_search(n, exact=False)
    prime_power = len([p for p in range(2, n + 1) if n % p == 0
                       and all(p % d for d in range(2, p))]) == 1
    assert (spaces, valid) == (IDENTITY_EXCLUDED_SPACES[n], int(prime_power))


EXACT_SPACES = {1: 1, 2: 2, 3: 2, 4: 15, 5: 9, 6: 338}


@pytest.mark.parametrize("n", sorted(EXACT_SPACES))
def test_two_groups_on_one_carrier_are_valid_only_on_one_element(n):
    """x*(e o e) = (x*e) o (x*e) forces x*e = e, so |U| = 1."""
    spaces, valid = carrier_convention_search(n, exact=True)
    assert (spaces, valid) == (EXACT_SPACES[n], int(n == 1))


def _a4_pair():
    """Two A4 that share only their identity: overlapping non-abelian
    carriers, whose interposition search reads every memo kind."""
    a4 = catalog.alternating(4)

    def named(op):
        return relabel(a4, [x if x == a4.identity else op + x for x in a4.carrier], op)
    a, b = named("a"), named("b")
    return MultiGroupSpace(tuple(dict.fromkeys(a.carrier + b.carrier)), (a, b))


def test_every_memo_entry_went_through_kept(tmp_path, monkeypatch):
    """Each space's memo holds exactly the keys whose _kept call returned,
    over every golden invocation and maximal-series on the A4 pair; and an
    escaping table raises alike on two calls and keeps no candidates key."""
    memo, kept = MultiGroupSpace.__dict__["_memo"], MultiGroupSpace._kept
    spaces_made, keys = [], {}

    def made(ms):
        spaces_made.append(ms)  # held, so no two spaces share an id
        return memo.func(ms)

    def recorded(ms, key, compute):
        value = kept(ms, key, compute)
        keys.setdefault(id(ms), set()).add(key)
        return value

    recording = cached_property(made)
    recording.__set_name__(MultiGroupSpace, "_memo")
    monkeypatch.setattr(MultiGroupSpace, "_memo", recording)
    monkeypatch.setattr(MultiGroupSpace, "_kept", recorded)
    pair = tmp_path / "a4pair.mgs"
    pair.write_text(serialize_instance(_a4_pair()), encoding="utf-8")
    kinds = set()
    runs = [(render_golden, path) for path in INSTANCES] + \
        [(run_cli, ["maximal-series", str(pair), "--exhaustive-bound", "64"])]
    for run, argument in runs:
        run(argument)
        for ms in spaces_made:
            assert set(ms._memo) == keys.get(id(ms), set())
            kinds |= {key[0] for key in ms._memo}
        spaces_made.clear()
        keys.clear()
    assert kinds == {"candidates", "subgroups", "choices", "edge", "ref", "maximal"}

    rows = ("e a b c", "a a x a", "b y b b", "c c c z")
    g = FiniteGroup("*", tuple("eabc"), tuple(tuple(r.split()) for r in rows), "e")
    ms = MultiGroupSpace(g.carrier + g._ints[1], (g,))
    raised = []
    for _ in range(2):
        with pytest.raises(DomainError) as exc:
            _closed_part_candidates(ms, 0, ms._mask("abc"))
        raised.append(str(exc.value))
    assert raised == ["'x' is not in the carrier of '*'"] * 2
    assert not any(key[0] == "candidates" for key in ms._memo)
