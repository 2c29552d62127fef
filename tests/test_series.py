import sys
from itertools import combinations, permutations
from pathlib import Path

import pytest

from multigroup import series as series_module, subspaces as subspaces_module
from multigroup.config import Limits
from multigroup.errors import (DomainError, InternalConsistencyError, MultigroupError,
                               PreconditionError)
from multigroup.groups import FiniteGroup, composition_series, subgroups
from multigroup.instances import parse_instance
from multigroup.series import (MaximalSeriesResult, OrientedOperationSequence, build_series,
                               enumerate_maximal_series, is_normal_subspace,
                               length_invariance_check, normality_criterion)
from multigroup.spaces import MultiGroupSpace, validate_multigroup
from multigroup.subspaces import SubsetRef, is_subspace

import catalog
from conftest import (INSTANCE_DIR, count_lattices, instance_text,
                      overlapping_chain_family, overlapping_pair_family,
                      ref, run_cli, subspaces_of)
from oracles import (_strict_subsets_between, scan_build_series, scan_choices,
                     scan_interposable, scan_link_carriers, scan_maximal_series,
                     scan_series_stages)

A3 = ("e", "(123)", "(132)")
S3_SPACE = catalog.single(catalog.symmetric_3())


def seq(ms, order=None):
    return OrientedOperationSequence.of(ms, order)


# ------------------------------------------------------- normality routes

def test_classical_normality():
    assert is_normal_subspace(S3_SPACE, ref(S3_SPACE, A3)).ok
    bad = is_normal_subspace(S3_SPACE, ref(S3_SPACE, ("e", "(12)")))
    assert not bad.ok
    op, g, h, out = bad.witness
    grp = S3_SPACE.groups[0]
    assert grp.mul(grp.mul(g, h), grp.inverse(g)) == out
    assert out not in ("e", "(12)")


def test_normality_requires_subspace(gf3):
    with pytest.raises(PreconditionError):
        is_normal_subspace(gf3, ref(gf3, ["0", "2"], ["+"]))
    with pytest.raises(PreconditionError):
        normality_criterion(gf3, ref(gf3, ["0", "2"], ["+"]))


def test_gf3_pinned_subspace_is_normal_both_routes(gf3):
    h = ref(gf3, ["0", "1"], ["+", "*"])
    assert is_normal_subspace(gf3, h).ok
    assert normality_criterion(gf3, h)


def test_z2z3_component_union_is_normal(z2z3):
    h = ref(z2z3, ["a0", "b0", "b1", "b2"], ["a", "b"])
    assert is_normal_subspace(z2z3, h).ok
    assert normality_criterion(z2z3, h)


def test_whole_space_is_normal(gf3):
    h = ref(gf3, gf3.universe)
    assert is_normal_subspace(gf3, h).ok
    assert normality_criterion(gf3, h)


@pytest.mark.parametrize("name", ("gf3", "gf5", "z6units", "z2link", "z2z3",
                                  "z2z2", "s3", "z6", "klein", "trivial"))
def test_normality_routes_agree_exhaustively(small_spaces, name):
    ms = small_spaces[name]
    for h in subspaces_of(ms):
        assert is_normal_subspace(ms, h).ok == normality_criterion(ms, h), h


@pytest.mark.parametrize("name", ("gf3", "z2z3", "z2z2", "z6", "klein", "trivial"))
def test_abelian_fixture_subspaces_are_all_normal(small_spaces, name):
    ms = small_spaces[name]
    for h in subspaces_of(ms):
        assert is_normal_subspace(ms, h).ok


def test_normality_readings_diverge_on_overlapping_carriers():
    """The two normality readings are not equivalent in general.

    Hang a 2-element group off the transposition (13) of a symmetric group
    and take the subspace A3 + {(13)}: every decomposition part is a normal
    subgroup of its component (criterion route true), yet (13) also lives in
    the symmetric carrier where conjugation throws it out of the subset
    (conjugation route false). The shipped fixtures avoid this regime, so
    the acceptance agreement sweep stays exhaustive and green there.
    """
    from multigroup.groups import FiniteGroup
    from multigroup.spaces import MultiGroupSpace, validate_multigroup

    s3 = catalog.symmetric_3()
    hang = FiniteGroup("q", ("(13)", "x"), (("(13)", "x"), ("x", "(13)")), "(13)")
    ms = MultiGroupSpace(s3.carrier + ("x",), (s3, hang))
    assert validate_multigroup(ms).ok

    h = SubsetRef.of(ms, ["e", "(123)", "(132)", "(13)"])
    assert is_subspace(ms, h)
    assert normality_criterion(ms, h)
    verdict = is_normal_subspace(ms, h)
    assert not verdict.ok
    op, g, member, out = verdict.witness
    grp = ms.group_of(op)
    assert grp.mul(grp.mul(g, member), grp.inverse(g)) == out
    assert out not in h.elements


def test_normality_routes_agree_on_abelian_overlap_family():
    """Conjugation is trivial inside abelian components, so on the generated
    overlap family the readings can only split where a nonabelian piece
    overlaps; abelian-only members must always agree."""
    from conftest import overlapping_pair_family, subspaces_of
    for ms in overlapping_pair_family():
        abelian = all(g.is_abelian for g in ms.groups)
        for h in subspaces_of(ms):
            agree = is_normal_subspace(ms, h).ok == normality_criterion(ms, h)
            if abelian:
                assert agree, (ms.universe, h)


def test_normality_routes_agree_on_abelian_chain_family():
    """The same on the three-operation chain family's 288 spaces with
    abelian groups only. A subspace is a union of one subgroup per
    retained operation, so its subsets are taken from the unions of one
    subgroup or nothing per operation: 13,145 subspaces, the same ones the
    slower scan over every (subset, ops) finds."""
    abelian = [ms for ms in overlapping_chain_family()
               if all(g.is_abelian for g in ms.groups)]
    assert len(abelian) == 288
    checked = 0
    for ms in abelian:
        unions = {frozenset()}
        for g in ms.groups:
            unions |= {u | set(s) for u in unions for s in subgroups(g)}
        for elements in unions - {frozenset()}:
            present = [op for op in ms.op_set if elements & set(ms.group_of(op).carrier)]
            for k in range(1, len(present) + 1):
                for ops in combinations(present, k):
                    h = ref(ms, elements, ops)
                    if is_subspace(ms, h):
                        checked += 1
                        assert is_normal_subspace(ms, h).ok == \
                            normality_criterion(ms, h), (ms.universe, h)
    assert checked == 13145


def test_left_and_right_translates_agree_for_normal_subspaces(small_spaces):
    """g * H = H * g wherever defined, for every normal subspace on record."""
    for ms in small_spaces.values():
        for h in subspaces_of(ms):
            if not is_normal_subspace(ms, h).ok:
                continue
            members = set(h.elements)
            for op in h.retained_ops:
                grp = ms.group_of(op)
                inside = [e for e in h.elements if e in grp]
                for g in grp.carrier:
                    left = {grp.mul(g, m) for m in inside}
                    right = {grp.mul(m, g) for m in inside}
                    assert left == right


# ------------------------------------------------------- staged construction

def test_s3_series_is_the_composition_series():
    series = build_series(S3_SPACE)
    assert series.element_chain() == (S3_SPACE.universe, A3, ("e",))
    assert series.length == 2
    assert series.step_ops == ("*", "*")
    assert series.anomalies == ()


def test_z2z3_series_and_terminal_mismatch(z2z3):
    series = build_series(z2z3, seq(z2z3, ["a", "b"]))
    assert series.element_chain() == (
        ("a0", "a1", "b0", "b1", "b2"), ("a0", "b0", "b1", "b2"), ("a0", "b0"))
    assert series.length == 2
    assert any(a.startswith("TERMINAL_MISMATCH") for a in series.anomalies)


def test_gf3_series_reports_carrier_loss(gf3):
    series = build_series(gf3, seq(gf3, ["+", "*"]))
    assert series.element_chain() == (("0", "1", "2"), ("0",))
    assert "CARRIER_LOST:*" in series.anomalies
    assert any(a.startswith("TERMINAL_MISMATCH") for a in series.anomalies)

    flipped = build_series(gf3, seq(gf3, ["*", "+"]))
    assert flipped.element_chain() == (("0", "1", "2"), ("0", "1"))
    assert any(a.startswith("TERMINAL_MISMATCH") for a in flipped.anomalies)


def test_build_series_is_deterministic(z2z3):
    assert build_series(z2z3) == build_series(z2z3)


def test_series_links_pass_both_normality_routes(small_spaces):
    from multigroup.errors import InternalConsistencyError
    for ms in small_spaces.values():
        try:
            series = build_series(ms)
        except InternalConsistencyError:
            continue  # legitimately unconstructible order; pinned separately
        for link in series.chain:
            assert is_subspace(ms, link)
            assert is_normal_subspace(ms, link).ok == normality_criterion(ms, link)


def test_linked_z2s_series_depends_on_orientation():
    """Stripping the first group removes the second group's identity.

    Under p-first the constructed link is not a subspace and the engine
    refuses; under q-first the construction goes through and terminates at
    the last operation's identity with no anomaly.
    """
    from multigroup.errors import InternalConsistencyError
    ms = catalog.shipped("z2link")
    with pytest.raises(InternalConsistencyError):
        build_series(ms, seq(ms, ["p", "q"]))
    ok = build_series(ms, seq(ms, ["q", "p"]))
    assert ok.element_chain() == (("0", "1", "2"), ("0", "1"), ("0",))
    assert ok.anomalies == ()


def test_sequence_validation(gf3):
    with pytest.raises(DomainError):
        seq(gf3, ["+"])
    with pytest.raises(DomainError):
        seq(gf3, ["+", "+"])
    with pytest.raises(DomainError):
        seq(gf3, ["+", "?"])


def test_series_require_a_valid_space():
    broken = catalog.shipped("gf3_corrupt")
    with pytest.raises(PreconditionError):
        build_series(broken)
    with pytest.raises(PreconditionError):
        enumerate_maximal_series(broken)


def test_link_breaking_removal_is_surfaced_not_skipped():
    """Stripping a component may orphan another operation's identity.

    The resulting link is not a subspace, and the construction must say so
    loudly instead of quietly dropping the step.
    """
    from multigroup.errors import InternalConsistencyError
    from multigroup.groups import FiniteGroup
    from multigroup.spaces import MultiGroupSpace, validate_multigroup

    p = FiniteGroup("p", ("e", "a"), (("e", "a"), ("a", "e")), "e")
    q = FiniteGroup("q", ("a", "b"), (("a", "b"), ("b", "a")), "a")
    ms = MultiGroupSpace(("e", "a", "b"), (p, q))
    assert validate_multigroup(ms).ok
    with pytest.raises(InternalConsistencyError):
        build_series(ms, seq(ms, ["p", "q"]))


# ------------------------------------------------------- maximal series

def test_s3_has_exactly_one_maximal_series():
    result = enumerate_maximal_series(S3_SPACE)
    assert len(result.series) == 1
    assert result.series[0].length == 2
    assert result.rejected == ()


def test_z12_has_three_maximal_series_all_length_three():
    ms = catalog.single(catalog.cyclic(12))
    result = enumerate_maximal_series(ms)
    assert len(result.series) == 3
    assert set(result.lengths) == {3}


@pytest.mark.parametrize("name", ("s3", "z6", "klein", "trivial"))
def test_single_operation_enumeration_matches_composition_series(small_spaces, name):
    ms = small_spaces[name]
    result = enumerate_maximal_series(ms)
    got = {s.element_chain() for s in result.series}
    expected = {c.links for c in composition_series(ms.groups[0])}
    assert got == expected


@pytest.mark.parametrize("order", (["a", "b"], ["b", "a"]))
def test_disjoint_union_series_constants(z2z3, z2z2, order):
    for ms in (z2z3, z2z2):
        result = enumerate_maximal_series(ms, seq(ms, order))
        assert len(result.series) >= 1
        assert len(set(result.lengths)) == 1
        assert set(result.lengths) == {2}


@pytest.mark.parametrize("left,right", [
    ("Z2", "Z3"), ("Z4", "Z2"), ("Z6", "Z2"), ("S3", "Z2"),
    ("Z4", "Z4"), ("S3", "S3"), ("Q8", "Z3"), ("V4", "Z5"),
])
def test_disjoint_union_length_is_the_sum_of_component_lengths(left, right):
    """Each stage walks one component down a full composition series, so
    the series length adds up component-wise."""
    from oracles import prime_factor_count
    groups = catalog.corpus_groups()
    ms = catalog.disjoint_union(groups[left], groups[right])
    expected = sum(prime_factor_count(g.order) for g in ms.groups)
    for order in (["a", "b"], ["b", "a"]):
        result = enumerate_maximal_series(ms, seq(ms, order))
        assert result.series
        assert set(result.lengths) == {expected}


def test_maximal_series_links_are_validated(z2z3):
    result = enumerate_maximal_series(z2z3)
    for series in result.series:
        for link in series.chain:
            assert is_normal_subspace(z2z3, link).ok
            assert normality_criterion(z2z3, link)


def test_gf3_addition_first_series_is_interposable(gf3):
    """The +-first chain jumps past {0,1}; the validator must reject it."""
    result = enumerate_maximal_series(gf3, seq(gf3, ["+", "*"]))
    assert result.series == ()
    assert len(result.rejected) == 1
    assert "INTERPOSABLE_STEP" in result.rejected[0][1]

    flipped = enumerate_maximal_series(gf3, seq(gf3, ["*", "+"]))
    assert len(flipped.series) == 1
    assert flipped.series[0].length == 1


# ------------------------------------------------------- length invariance

def test_trivial_space_has_constant_zero():
    inv = length_invariance_check(catalog.shipped("trivial"))
    assert inv.within_each_ok
    assert inv.per_sequence[0].constant == 0


def test_z2z3_invariance_across_orderings(z2z3):
    inv = length_invariance_check(z2z3)
    assert inv.within_each_ok
    assert {s.order for s in inv.per_sequence} == {("a", "b"), ("b", "a")}
    assert all(s.constant == 2 for s in inv.per_sequence)
    assert inv.cross_sequence_constant is True
    assert inv.counterexample is None


def test_corpus_single_operation_invariance(small_spaces):
    """The single-operation case reduces to composition-length constancy."""
    for name in ("s3", "z6", "klein"):
        ms = small_spaces[name]
        inv = length_invariance_check(ms)
        assert inv.within_each_ok
        expected = {c.length for c in composition_series(ms.groups[0])}
        assert {inv.per_sequence[0].constant} == expected


def test_z6units_staged_chains_are_all_interposable():
    """A shared-carrier space where the staged programming cannot reach any
    interposition-free chain: stripping the 6-cycle in one composition step
    jumps past finer normal subspaces like {0,1,2,4}, and the reverse order
    strands element 3. Both facts are reported, not papered over."""
    ms = catalog.shipped("z6units")
    result = enumerate_maximal_series(ms, seq(ms, ["+", "*"]))
    assert result.series == ()
    assert len(result.rejected) == 2
    assert all("INTERPOSABLE_STEP" in reason for _, reason in result.rejected)
    inv = length_invariance_check(ms)
    by_order = {s.order: s for s in inv.per_sequence}
    assert any(a.startswith("CONSTRUCTION_FAILED")
               for a in by_order[("*", "+")].anomalies)


def test_invariance_report_absorbs_unconstructible_orderings():
    ms = catalog.shipped("z2link")
    inv = length_invariance_check(ms)
    by_order = {s.order: s for s in inv.per_sequence}
    failed = by_order[("p", "q")]
    assert failed.series_count == 0
    assert any(a.startswith("CONSTRUCTION_FAILED") for a in failed.anomalies)
    worked = by_order[("q", "p")]
    assert worked.constant == 2
    assert inv.cross_sequence_constant is None


def test_a_sequence_with_two_lengths_names_the_last_series_of_each(monkeypatch, z2z3):
    """No ordering of a pair-family or chain-family space accepts series of
    two lengths, so the counterexample rule is pinned on an enumeration
    that returns series of lengths 2, 3, 2, 3: the pair is the last series
    of length 2 and the last of length 3."""
    link = ref(z2z3, z2z3.universe)
    made = [series_module.NormalSeries((link,) * (length + 1), ("a",) * length, (str(i),))
            for i, length in enumerate((2, 3, 2, 3))]
    monkeypatch.setattr(series_module, "enumerate_maximal_series",
                        lambda ms, order, limits: MaximalSeriesResult(order, tuple(made)))
    inv = length_invariance_check(z2z3)
    first, second = inv.counterexample
    assert first is made[2] and second is made[3]
    assert inv.within_each_ok is False
    assert inv.cross_sequence_constant is None


# ------------------------------------------------ the walk vs the oracle walk

WIDE = Limits(max_group_order=24, max_exhaustive_universe=24)


def _shipped(valid):
    for path in sorted(INSTANCE_DIR.glob("*.mgs")):
        ms = parse_instance(path.read_text(encoding="utf-8"))
        if validate_multigroup(ms).ok == valid:
            yield pytest.param(ms, id=path.stem)


def _interposition_cases():
    cases = list(_shipped(valid=True))
    for i, ms in enumerate(overlapping_pair_family()):
        cases.append(pytest.param(ms, id=f"overlap{i}"))
        # induced universes are then no prefix of the top-level one
        cases.append(pytest.param(MultiGroupSpace(ms.universe[::-1], ms.groups),
                                  id=f"overlap{i}-reversed"))
    for p in (2, 3, 5, 7, 11, 13):
        cases.append(pytest.param(catalog.prime_field(p), id=f"gf{p}"))
    for m in range(1, 7):
        cases.append(pytest.param(
            catalog.disjoint_union(catalog.cyclic(m), catalog.symmetric_3()), id=f"z{m}+s3"))
    for m in range(1, 5):
        cases.append(pytest.param(
            catalog.disjoint_union(catalog.cyclic(m), catalog.alternating(4)), id=f"z{m}+a4"))
    return cases


def _walk_outcome(run, ms, order):
    """run on a fresh copy of the space, so that no result cached on it is
    reused; an error as its type and text."""
    ms = MultiGroupSpace(ms.universe, ms.groups)
    try:
        return run(ms, seq(ms, order), WIDE)
    except MultigroupError as exc:
        return type(exc).__name__, str(exc)


def _chain_cases():
    return [pytest.param(ms, id=f"chain{i}") for i, ms in enumerate(overlapping_chain_family())]


@pytest.mark.parametrize("ms", list(_shipped(valid=False)) + _interposition_cases()
                         + _chain_cases())
def test_series_walk_matches_the_induced_space_walk(ms):
    """The walk over universe bitmasks and carrier tuples builds the same
    single series, and accepts and rejects the same maximal series for the
    same reasons, as the oracle walk, which induces a space on every link
    and tries every subset between link and parent; where a construction
    breaks down (z2link) or is refused, both raise the same error, and
    nothing but a MultigroupError is raised. On the three-operation chain
    family a stage can meet a part whose identity an earlier stage
    stripped: it takes its part from the space induced on the current
    link, so that part is lost, not looked up. Two paths of the walk never
    give one chain, so the engine's chains are pairwise distinct without a
    dedupe: where two paths first differ they take different maximal
    normal subgroups of one part, and so different links."""
    for order in permutations(ms.op_set):
        for walk, oracle in ((build_series, scan_build_series),
                             (enumerate_maximal_series, scan_maximal_series)):
            outcome = _walk_outcome(walk, ms, order)
            assert outcome == _walk_outcome(oracle, ms, order), order
        if isinstance(outcome, MaximalSeriesResult):
            chains = [s.chain for s in outcome.series + tuple(s for s, _ in outcome.rejected)]
            assert len(set(chains)) == len(chains), order


def _staged_walks(ms, order):
    """Every staged chain of the oracle walk, as (links, induced spaces),
    beside the walk's, as (bitmasks, carrier tuples), up to a construction
    failure."""
    def chains(stages):
        out = []
        try:
            for chain, _, _, spaces in stages:
                out.append((chain, spaces))
        except InternalConsistencyError:
            pass
        return out
    return zip(chains(scan_series_stages(ms, seq(ms, order), WIDE, branch=True)),
               chains(series_module._series_stages(ms, seq(ms, order))),
               strict=True)


def _carriers_of(ms, space):
    """The carrier tuple of a space induced inside ms."""
    return tuple(ms._mask(space.group_of(op).carrier) if op in space.op_set else 0
                 for op in ms.op_set)


def _subspaces_between(ms, carriers, space, low):
    """The subspaces of `space`, the space with the given carriers, strictly
    between low and its universe, in visiting order, among the search's
    candidates and among all subsets of the gap."""
    def subspaces(subsets):
        return [frozenset(s) for s in subsets
                if is_subspace(space, SubsetRef.of(space, s))]
    candidates = series_module._candidates_between(ms, carriers, low)
    return (subspaces(map(ms._elements, candidates)),
            subspaces(_strict_subsets_between(frozenset(ms._elements(low)),
                                              space.universe)))


@pytest.mark.parametrize("name", ("gf3", "gf5", "z6units", "z2link", "z2z3",
                                  "z2z2", "s3", "z6", "klein"))
def test_unions_of_subgroups_hold_every_subspace_between(small_spaces, name):
    """Also below sets that are no series link, such as one component of a
    disjoint union, where a subspace between may leave an operation out."""
    ms = small_spaces[name]
    for lower in {h.elements for h in subspaces_of(ms)}:
        found, expected = _subspaces_between(ms, ms._carriers, ms, ms._mask(lower))
        assert found == expected, lower


@pytest.mark.parametrize("ms", _interposition_cases() + _chain_cases())
def test_interposition_search_matches_the_subset_scan(ms):
    """On every link of every staged chain, the walk's link and parent
    carriers are the oracle walk's link and induced space, the unions of
    subgroups hold every subspace between link and parent, in the order of
    the scan over every subset of the gap, and the search finds the same
    first witness, or none, as that scan."""
    for order in permutations(ms.op_set):
        for (chain, spaces), (links, carriers) in _staged_walks(ms, order):
            assert links == [ms._mask(link.elements) for link in chain], order
            for lower, low, space, parent in zip(chain[1:], links[1:], spaces, carriers):
                assert parent == _carriers_of(ms, space), (order, lower)
                found, expected = _subspaces_between(ms, parent, space, low)
                assert found == expected, (order, lower)
                witness = series_module._interposable(ms, parent, low)
                assert (None if witness is None else ms._elements(witness)) == \
                    scan_interposable(ms, space, lower), (order, lower)


def _link_outcome(link_carriers, *args):
    try:
        return link_carriers(*args)
    except InternalConsistencyError as exc:
        return str(exc)


def _steps_match_the_full_checks(ms, order):
    """Walk every staged chain of the ordering over all choices, past the
    steps that raise, on a fresh copy of the space: every part gets the
    choices of the conjugation test on every lattice member inside it, and
    every step the carrier tuple or the error text of the full
    decomposition and the conjugation test on every carrier. Whether a
    step raised."""
    ms = MultiGroupSpace(ms.universe, ms.groups)
    ks = [ms._position(op) for op in order]
    raised = False

    def walk(i, link, carriers):
        nonlocal raised
        while i < len(ks) and not carriers[ks[i]] & carriers[ks[i]] - 1:
            i += 1
        if i == len(ks):
            return
        k, part = ks[i], carriers[ks[i]]
        choices = series_module._choices(ms, k, part)
        assert choices == scan_choices(ms, k, part), (order, part)
        for nxt in choices:
            low = link & ~part | nxt
            outcome = _link_outcome(series_module._link_carriers, ms, carriers, low, k, nxt)
            expected = _link_outcome(scan_link_carriers, ms, carriers, low)
            assert outcome == expected, (order, low)
            if type(outcome) is str:
                raised = True
            else:
                walk(i, low, outcome)

    walk(0, (1 << len(ms.universe)) - 1, ms._carriers)
    return raised


@pytest.mark.parametrize("ms", _interposition_cases() + _chain_cases())
def test_steps_and_choices_match_the_full_checks(ms):
    """The walk's rules (a step that clips no other carrier keeps the
    parent's carriers, only clipped carriers are conjugated, an abelian
    operation's choices need no conjugation) decide every step and every
    part of every ordering as the full checks do."""
    for order in permutations(ms.op_set):
        _steps_match_the_full_checks(ms, order)


def test_the_chain_family_breaks_down_on_the_same_orderings():
    """A step raises on 1,273 of the chain family's 2,130 orderings, with
    the error text of the full checks."""
    outcomes = [_steps_match_the_full_checks(ms, order)
                for ms in overlapping_chain_family() for order in permutations(ms.op_set)]
    assert (sum(outcomes), len(outcomes)) == (1273, 2130)


Z4A4 = Path(__file__).parent / "golden" / "above_bound" / "z4a4.mgs"


def _count_spaces(monkeypatch):
    built = []
    init = MultiGroupSpace.__init__

    def counted(space, *args, **kwargs):
        built.append(space)
        init(space, *args, **kwargs)

    monkeypatch.setattr(MultiGroupSpace, "__init__", counted)
    return built


def test_maximal_series_builds_no_space(monkeypatch):
    """The enumeration and the comparison across orderings stay in the
    top-level space: on Z4 + A4 they construct no MultiGroupSpace."""
    ms = parse_instance(Z4A4.read_text(encoding="utf-8"))
    built = _count_spaces(monkeypatch)
    result = enumerate_maximal_series(ms, limits=WIDE)
    length_invariance_check(ms, limits=WIDE)
    assert result.series and built == []


@pytest.mark.parametrize("path", [Z4A4, INSTANCE_DIR / "z6units.mgs"], ids=["z4a4", "z6units"])
def test_the_walk_passes_only_bitmasks(monkeypatch, path):
    """The staged walk, the candidates and the interposition search build no
    space, SubsetRef or restricted group, and hand each other ints only: on
    Z4 + A4 nothing interposes, on z6units every chain is rejected."""
    ms = parse_instance(path.read_text(encoding="utf-8"))

    def refuse(*args, **kwargs):
        raise AssertionError("the walk left the top-level tables")

    monkeypatch.setattr(MultiGroupSpace, "__init__", refuse)
    monkeypatch.setattr(SubsetRef, "of", staticmethod(refuse))
    monkeypatch.setattr(subspaces_module, "induced_space", refuse)
    monkeypatch.setattr(FiniteGroup, "restrict", refuse)
    witnesses = []
    for chain, _, _, spaces in series_module._series_stages(ms, seq(ms)):
        assert all(type(m) is int for m in chain + [c for cs in spaces for c in cs])
        for carriers, lower in zip(spaces, chain[1:]):
            assert all(type(m) is int for m in
                       series_module._candidates_between(ms, carriers, lower))
            witnesses.append(series_module._interposable(ms, carriers, lower))
    assert all(w is None or type(w) is int for w in witnesses)
    assert any(w is not None for w in witnesses) == (path.stem == "z6units")


def test_lattices_are_enumerated_once_per_operation(monkeypatch):
    """At most once per operation, and none when every part is solvable and
    the carriers are disjoint: the staged descent takes each part's choices
    from its prime-index quotients, every step of Z4 + A4 keeps the other
    carriers whole, and disjoint carriers need no interposition search. The
    lattices of the top-level groups were read once each for Z4 and A4."""
    evaluations = count_lattices(monkeypatch)
    ms = parse_instance(Z4A4.read_text(encoding="utf-8"))
    enumerate_maximal_series(ms, limits=WIDE)
    length_invariance_check(ms, limits=WIDE)
    assert evaluations == []


def test_the_series_commands_evaluate_no_lattice(monkeypatch):
    """The walk covers links with the completeness candidates and reads
    each carrier's subgroups off the closure kernel run on that carrier,
    so on every shipped instance, every corpus group and GF(13), in every
    ordering, the series constructions evaluate no group's lattice; a
    space they refuse or break down on is passed over. Reading the whole
    lattices, they evaluated 10: on gf3, gf5, z2link, z6units and GF(13),
    one per operation."""
    spaces = [parse_instance(p.read_text(encoding="utf-8"))
              for p in sorted(INSTANCE_DIR.glob("*.mgs"))]
    spaces += [catalog.single(g) for g in catalog.corpus_groups().values()]
    spaces.append(catalog.prime_field(13))
    evaluations = count_lattices(monkeypatch)
    for ms in spaces:
        calls = [lambda: length_invariance_check(ms, limits=WIDE)]
        for order in permutations(ms.op_set):
            calls += [lambda o=order: build_series(ms, seq(ms, o), WIDE),
                      lambda o=order: enumerate_maximal_series(ms, seq(ms, o), WIDE)]
        for call in calls:
            try:
                call()
            except MultigroupError:
                pass
    assert evaluations == []


GF13_SERIES = """command: series
instance: <instance>
order:
  - +
  - *
chain:
  -
    elements: {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}
    ops:
      - +
      - *
  -
    elements: {0}
    ops:
      - +
step_ops:
  - +
length: 1
anomalies:
  - CARRIER_LOST:*
  - TERMINAL_MISMATCH: terminal {0} != {1}
exit_code: 0
"""


def test_a_step_that_loses_every_clipped_carrier_splices(monkeypatch, tmp_path):
    """mgs series on GF(13) in file order: + steps to {0}, which clips the *
    carrier and misses it, so * is lost with nothing to cover or conjugate;
    the link is spliced with no cover search, and Z13 has prime order, so
    no lattice is evaluated. The report is the one the full checks gave."""
    path = tmp_path / "gf13.mgs"
    path.write_text(instance_text(catalog.prime_field(13)), encoding="utf-8")
    evaluations, covers = count_lattices(monkeypatch), []
    induced = series_module._induced

    def counted(*args):
        covers.append(args[1:])
        return induced(*args)

    monkeypatch.setattr(series_module, "_induced", counted)
    out, code = run_cli(["series", str(path)])
    assert (out.replace(str(path), "<instance>"), code) == (GF13_SERIES, 0)
    assert covers == [] and evaluations == []


def _counted(monkeypatch, name):
    calls, fn = [], getattr(series_module, name)

    def counted(ms, carriers, lower):
        calls.append((carriers, lower))
        return fn(ms, carriers, lower)

    monkeypatch.setattr(series_module, name, counted)
    return calls


def _overlapping(carriers):
    return any(a & b for a, b in combinations(carriers, 2))


def test_each_edge_is_decided_once(monkeypatch):
    """Series share links, so they share (parent carriers, link) edges: the
    interposition search asks for the candidates between them once per
    distinct edge whose parent carriers overlap, however many series cross
    it, and never for an edge whose parent carriers are disjoint. GF(13)
    has edges of both kinds."""
    ms = catalog.prime_field(13)
    asked = _counted(monkeypatch, "_interposable")
    searched = _counted(monkeypatch, "_candidates_between")
    enumerate_maximal_series(ms, limits=WIDE)
    length_invariance_check(ms, limits=WIDE)
    distinct = set(asked)
    assert sorted(searched) == sorted(edge for edge in distinct if _overlapping(edge[0]))
    assert len(asked) > len(searched) > 0
    assert len(distinct) > len(searched)


def test_disjoint_carriers_need_no_interposition_search(monkeypatch):
    """On Z4 + A4 every parent's carriers are disjoint: no candidates are
    built, and every verdict is None, as the scan over every subset of the
    gap says."""
    ms = parse_instance(Z4A4.read_text(encoding="utf-8"))
    searched = _counted(monkeypatch, "_candidates_between")
    verdicts = []
    for order in permutations(ms.op_set):
        for (chain, spaces), (links, carriers) in _staged_walks(ms, order):
            for lower, low, space, parent in zip(chain[1:], links[1:], spaces, carriers):
                assert not _overlapping(parent)
                verdicts.append((series_module._interposable(ms, parent, low),
                                 scan_interposable(ms, space, lower)))
    assert searched == [] and verdicts
    assert set(verdicts) == {(None, None)}


def test_the_walk_masks_only_the_links_it_names(monkeypatch):
    """Nothing goes from names back to a bitmask: each distinct link is
    named once from its bitmask, for all the series that pass through it,
    and the enumeration makes no _mask call."""
    ms = parse_instance(Z4A4.read_text(encoding="utf-8"))
    callers, mask = [], MultiGroupSpace._mask

    def counted(space, elements):
        callers.append(sys._getframe(1).f_code.co_name)
        return mask(space, elements)

    monkeypatch.setattr(MultiGroupSpace, "_mask", counted)
    result = enumerate_maximal_series(ms, limits=WIDE)
    series = result.series + tuple(s for s, _ in result.rejected)
    links = {link for s in series for link in s.chain}
    assert callers == []
    assert sum(len(s.chain) for s in series) > len(links)


def _count_stagings(monkeypatch):
    runs = []
    stages = series_module._series_stages

    def counted(*args, **kwargs):
        runs.append(args[1].order)
        return stages(*args, **kwargs)

    monkeypatch.setattr(series_module, "_series_stages", counted)
    return runs


def test_maximal_series_command_enumerates_each_ordering_once(monkeypatch):
    """mgs maximal-series enumerates the file order, then compares every
    ordering; the file order's result is cached on the space and reused."""
    runs = _count_stagings(monkeypatch)
    out, code = run_cli(["maximal-series", str(INSTANCE_DIR / "gf5.mgs")])
    assert code == 1 and "  *,+: 2" in out
    assert runs == [("+", "*"), ("*", "+")]


def test_enumeration_results_are_cached_per_ordering(gf3):
    """The bounds are checked before the cache is read, and the enumeration
    does not depend on them: wider bounds get the same object."""
    ms = MultiGroupSpace(gf3.universe, gf3.groups)
    first = enumerate_maximal_series(ms, seq(ms, ["+", "*"]))
    assert enumerate_maximal_series(ms, seq(ms, ["+", "*"])) is first
    assert enumerate_maximal_series(ms, seq(ms, ["*", "+"])) is not first
    assert enumerate_maximal_series(ms, seq(ms, ["+", "*"]), WIDE) is first


def test_a_failed_construction_is_not_cached(monkeypatch):
    ms = catalog.shipped("z2link")
    runs = _count_stagings(monkeypatch)
    for _ in range(2):
        with pytest.raises(InternalConsistencyError):
            enumerate_maximal_series(ms, seq(ms, ["p", "q"]))
    assert len(runs) == 2 and not any(key[0] == "maximal" for key in ms._memo)
