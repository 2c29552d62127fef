from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from multigroup import generation
from multigroup.config import Limits
from multigroup.errors import BoundExceeded, DomainError
from multigroup.generation import (GeneratingSet, is_finitely_generated,
                                   span_closure, span_once)
from multigroup.groups import FiniteGroup
from multigroup.instances import parse_instance
from multigroup.spaces import MultiGroupSpace

import catalog
from conftest import INSTANCE_DIR, chain_layouts, outcome, overlapping_pair_family
from oracles import brute_span_closure, scan_is_finitely_generated

SPACES = {name: catalog.shipped(name) for name in ("gf3", "z2z3", "z2z2", "trivial", "s3")}


def seeds(ms, elements):
    return GeneratingSet.of(ms, elements)


def test_span_once_is_the_literal_product_set(gf3):
    assert span_once(gf3, seeds(gf3, ["1"])) == ("1", "2")
    assert span_once(gf3, seeds(gf3, ["0"])) == ("0",)
    assert span_once(gf3, seeds(gf3, gf3.universe)) == gf3.universe


def test_span_once_need_not_contain_the_seeds(gf3):
    # 2+2=1 and 2*2=1: the seed itself drops out of the one-step span
    assert span_once(gf3, seeds(gf3, ["2"])) == ("1",)


def test_span_closure_examples(gf3, z2z3):
    assert span_closure(gf3, seeds(gf3, ["1"])) == ("0", "1", "2")
    assert span_closure(z2z3, seeds(z2z3, ["a1", "b1"])) == z2z3.universe
    assert span_closure(z2z3, seeds(z2z3, ["a0"])) == ("a0",)


@pytest.mark.parametrize("name", sorted(SPACES))
def test_span_closure_matches_oracle(name):
    ms = SPACES[name]
    for e in ms.universe:
        got = set(span_closure(ms, seeds(ms, [e])))
        assert got == set(brute_span_closure(ms, [e]))


def test_generating_set_construction(gf3):
    with pytest.raises(DomainError):
        GeneratingSet.of(gf3, [])
    with pytest.raises(DomainError):
        GeneratingSet.of(gf3, ["9"])


def test_minimal_witnesses():
    assert is_finitely_generated(SPACES["gf3"]).generators == ("1",)
    w = is_finitely_generated(SPACES["z2z3"])
    assert w.size == 2 and w.minimal
    assert is_finitely_generated(SPACES["trivial"]).generators == ("e0",)


def test_single_elements_cannot_generate_disjoint_union(z2z3):
    for e in z2z3.universe:
        assert set(span_closure(z2z3, seeds(z2z3, [e]))) != set(z2z3.universe)


def test_the_budget_is_counted_across_components():
    """Z2 + Z3 needs two candidates in each component."""
    ms = SPACES["z2z3"]
    with pytest.raises(BoundExceeded, match="examined 3 candidate sets"):
        is_finitely_generated(ms, Limits(max_generator_candidates=3))
    assert is_finitely_generated(ms, Limits(max_generator_candidates=4)).size == 2


@given(st.sampled_from(sorted(SPACES)), st.data())
def test_span_closure_is_idempotent(name, data):
    ms = SPACES[name]
    subset = data.draw(st.sets(st.sampled_from(list(ms.universe)), min_size=1))
    once = span_closure(ms, seeds(ms, subset))
    again = span_closure(ms, seeds(ms, once))
    assert once == again


@given(st.sampled_from(sorted(SPACES)), st.data())
def test_span_closure_is_monotone(name, data):
    ms = SPACES[name]
    big = data.draw(st.sets(st.sampled_from(list(ms.universe)), min_size=1))
    small = data.draw(st.sets(st.sampled_from(sorted(big)), min_size=1))
    inner = set(span_closure(ms, seeds(ms, small)))
    outer = set(span_closure(ms, seeds(ms, big)))
    assert inner <= outer


@given(st.sampled_from(sorted(SPACES)), st.data())
def test_span_closure_is_complete_per_carrier(name, data):
    ms = SPACES[name]
    subset = data.draw(st.sets(st.sampled_from(list(ms.universe)), min_size=1))
    closed = set(span_closure(ms, seeds(ms, subset)))
    for g in ms.groups:
        inside = [e for e in closed if e in g]
        for a in inside:
            for b in inside:
                assert g.mul(a, b) in closed


# ------------------------------------ component search vs the subset scan

ESCAPE = Path(__file__).parent / "golden" / "escape.mgs"


def _generation_cases():
    cases = []
    for path in sorted(INSTANCE_DIR.glob("*.mgs")) + [ESCAPE]:
        cases.append(pytest.param(parse_instance(path.read_text(encoding="utf-8")),
                                  id=path.stem))
    for i, ms in enumerate(overlapping_pair_family()):
        cases.append(pytest.param(ms, id=f"overlap{i}"))
    for k in range(1, 6):
        cases.append(pytest.param(catalog.disjoint_union(*[catalog.cyclic(2)] * k),
                                  id=f"{k}xz2"))
    for m in range(1, 5):
        cases.append(pytest.param(
            catalog.disjoint_union(catalog.cyclic(m), catalog.symmetric_3()), id=f"z{m}+s3"))
    return cases


@pytest.mark.parametrize("ms", _generation_cases())
def test_component_search_matches_the_subset_scan(ms):
    assert outcome(is_finitely_generated, ms) == \
        outcome(scan_is_finitely_generated, ms)


def test_component_search_matches_the_subset_scan_on_every_chain_layout():
    """Every three-operation chain layout, valid or not."""
    layouts = list(chain_layouts())
    assert len(layouts) == 1350
    for ms in layouts:
        assert outcome(is_finitely_generated, ms) == \
            outcome(scan_is_finitely_generated, ms), ms.universe


@st.composite
def perturbed_unions(draw):
    """Two groups side by side plus one element in no carrier, with table
    cells rewritten to any universe element: a product may land in the
    other group's component, on the loose element, or back inside."""
    pieces = [catalog.cyclic(2), catalog.cyclic(3), catalog.klein_four(),
              catalog.symmetric_3()]
    ms = catalog.disjoint_union(draw(st.sampled_from(pieces)), draw(st.sampled_from(pieces)))
    universe = ms.universe + ("z",)
    groups = list(ms.groups)
    for _ in range(draw(st.integers(1, 3))):
        k = draw(st.integers(0, len(groups) - 1))
        g = groups[k]
        table = [list(row) for row in g.table]
        i, j = draw(st.integers(0, g.order - 1)), draw(st.integers(0, g.order - 1))
        table[i][j] = draw(st.sampled_from(universe))
        groups[k] = FiniteGroup(g.op_id, g.carrier, tuple(map(tuple, table)), g.identity)
    return MultiGroupSpace(universe, tuple(groups))


@given(perturbed_unions())
def test_perturbed_tables_match_the_subset_scan(ms):
    assert outcome(is_finitely_generated, ms) == \
        outcome(scan_is_finitely_generated, ms)


def test_a_product_outside_its_carrier_joins_the_component():
    """In escape.mgs a * a = b, and b lies in no carrier: b is no component
    of its own, so {e, a} generates and b needs no seed."""
    ms = parse_instance(ESCAPE.read_text(encoding="utf-8"))
    assert generation._components(ms) == [0b111]
    assert is_finitely_generated(ms).generators == ("e", "a")


def _closures(monkeypatch):
    calls = []
    kernel = generation._close

    def counted(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(generation, "_close", counted)
    return calls


def test_twelve_copies_of_z2_take_two_closures_each(monkeypatch):
    """The subset scan would try every set of up to 12 of 24 elements."""
    ms = catalog.disjoint_union(*[catalog.cyclic(2)] * 12)
    calls = _closures(monkeypatch)
    w = is_finitely_generated(ms)
    assert w.minimal and w.generators == tuple(f"{chr(97 + k)}1" for k in range(12))
    assert len(calls) == 24


def test_one_element_generating_costs_no_extra_closures(monkeypatch):
    """GF(23) is generated by 1: the scan stops after closing 0 and 1, and
    so does the component search."""
    gf23 = catalog.prime_field(23)
    calls = _closures(monkeypatch)
    scanned = scan_is_finitely_generated(gf23)
    expected = len(calls)
    calls.clear()
    assert is_finitely_generated(gf23) == scanned
    assert expected == 2 and len(calls) <= expected


def test_sets_beyond_size_one_use_the_first_element_of_each_class(monkeypatch):
    """In S3, (123) and (132) close to the same set, so after the six
    singletons the search skips {e, (132)} and tries four pairs before
    {(23), (12)}, where the scan tries five."""
    s3 = SPACES["s3"]
    calls = _closures(monkeypatch)
    assert is_finitely_generated(s3).generators == ("(23)", "(12)")
    assert len(calls) == 6 + 5
