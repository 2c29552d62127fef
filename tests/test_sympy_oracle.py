"""The choice routine checked against sympy.combinatorics, an oracle written
outside this repository.

Each engine group becomes a sympy PermutationGroup by its left-regular
representation: row x of the int table is the permutation y -> x y of the
carrier (Cayley), generated by the rows at the group's generators. x is
that permutation's image of the identity, so a subgroup is the same set
of indices on both sides. sympy composes left to right, so its products
are those of the opposite group; subgroups, normality, conjugacy classes
and the derived subgroup are the same sets in both. sympy is imported at
the top, so a missing sympy fails rather than skips.
"""

from collections import Counter
from functools import reduce
from itertools import permutations

import pytest
from sympy import primefactors
from sympy.combinatorics import Permutation, PermutationGroup

from multigroup import series
from multigroup.config import Limits
from multigroup.generation import is_finitely_generated
from multigroup.groups import (_bits, _derived, composition_series,
                               maximal_proper_normal_subgroups)
from multigroup.spaces import MultiGroupSpace

import catalog
from test_groups import WIDE_ORDER, _fresh

CORPUS = catalog.corpus_groups()
GROUPS = {
    **CORPUS,
    "S4": catalog.symmetric_4(),
    "S4xZ2": catalog.direct_product(catalog.symmetric_4(), catalog.cyclic(2)),
    "D12": catalog.dihedral(6),
    "D24": catalog.dihedral(12),
    "A4xZ3": catalog.direct_product(catalog.alternating(4), catalog.cyclic(3)),
    "D12xZ6": catalog.direct_product(catalog.dihedral(6), catalog.cyclic(6)),
    "A5": catalog.alternating(5),
    "A5xZ2": catalog.direct_product(catalog.alternating(5), catalog.cyclic(2)),
    "S5": catalog._permutation_group("*", list(permutations(range(5)))),
    "A5xS3": catalog.direct_product(catalog.alternating(5), catalog.symmetric_3()),
}
# the composition series of each solvable group, as many as the engine
# found when this oracle was added (the corpus groups when the sweep was
# extended to them): no sympy routine counts them
CHAINS = {"S4": 3, "S4xZ2": 30, "D12": 4, "D24": 11, "A4xZ3": 18, "D12xZ6": 261,
          **dict(zip(CORPUS, [1, 1, 1, 1, 2, 1, 1, 1, 2, 1, 3, 1, 7, 3, 3, 3]))}


def _regular(g):
    """g's left-regular representation, and the permutation of each index."""
    perms = [Permutation(row) for row in g._ints[0]]
    return PermutationGroup([perms[x] for x in g._generators]), perms


def _indices(g, group):
    e = g.index(g.identity)
    return frozenset(p.array_form[e] for p in group.generate())


def _hyperplane_count(group):
    """Σ_p (p^d_p - 1)/(p - 1), d_p counting the invariants p divides."""
    invariants = group.abelian_invariants()
    primes = set().union(*map(primefactors, invariants))
    return sum((p ** sum(n % p == 0 for n in invariants) - 1) // (p - 1) for p in primes)


@pytest.mark.parametrize("name", sorted(CHAINS))
def test_solvable_choices_match_sympy(name):
    """Every chain's factor orders are sympy's composition factors
    (Jordan-Hölder). A maximal normal subgroup of a solvable group has
    prime index, so they are as many as the hyperplanes of each G/G'G^p."""
    g = _fresh(GROUPS[name])
    group, _ = _regular(g)
    assert group.order() == g.order and group.is_solvable
    factors = Counter(a.order() // b.order()
                      for a, b in zip(group.composition_series(),
                                      group.composition_series()[1:]))
    found = composition_series(g, WIDE_ORDER)
    assert len(found) == CHAINS[name]
    for chain in found:
        assert Counter(len(a) // len(b) for a, b in zip(chain.links, chain.links[1:])) == \
            factors, chain
    assert len(maximal_proper_normal_subgroups(g, WIDE_ORDER)) == _hyperplane_count(group)


def _normal_subgroups(group, g):
    """Every normal subgroup, as index sets: the joins of the normal
    closures of the conjugacy classes, as each is the product of the
    closures of its elements' classes."""
    closures = {}
    for c in group.conjugacy_classes():
        n = group.normal_closure(list(c))
        closures[_indices(g, n)] = n
    found, fresh = dict(closures), list(closures.items())
    while fresh:
        a, ga = fresh.pop()
        for b, gb in closures.items():
            if not b <= a:
                join = PermutationGroup(ga.generators + gb.generators)
                key = _indices(g, join)
                if key not in found:
                    found[key] = join
                    fresh.append((key, join))
    return set(found)


def non_solvable_choices(g):
    """Each choice of the group API and of the walk on the non-solvable g is
    normal (its normal closure has its own order), and the choices are
    exactly the maximal proper normal subgroups, so every proper normal
    subgroup lies in one. Returns how many choices and normal subgroups
    there are. A5 x S3 takes seconds, so CI checks it outside tier-1."""
    group, perms = _regular(g)
    assert group.order() == g.order and not group.is_solvable
    normal = _normal_subgroups(group, g)
    proper = normal - {frozenset(range(g.order))}
    ms = MultiGroupSpace(g.carrier, (g,))
    walk = [frozenset(_bits(m)) for m in series._choices(ms, 0, (1 << g.order) - 1)]
    api = [frozenset(map(g.index, c))
           for c in maximal_proper_normal_subgroups(g, Limits(max_group_order=g.order))]
    assert sorted(walk, key=sorted) == sorted(api, key=sorted)
    for choice in api:
        closure = group.normal_closure(PermutationGroup([perms[x] for x in choice]))
        assert closure.order() == len(choice) < g.order
    assert set(api) == {n for n in proper if not any(n < m for m in proper)}
    return len(api), len(normal)


@pytest.mark.parametrize("name", ["A5", "A5xZ2", "S5"])
def test_non_solvable_choices_match_sympy(name):
    assert non_solvable_choices(_fresh(GROUPS[name])) == \
        {"A5": (1, 2), "A5xZ2": (2, 4), "S5": (1, 3)}[name]


@pytest.mark.parametrize("name", sorted(GROUPS))
def test_derived_subgroup_matches_sympy(name):
    g = _fresh(GROUPS[name])
    group, _ = _regular(g)
    derived = _derived(g._ints[0], list(range(g.order)), g.index(g.identity))
    assert frozenset(_bits(derived)) == _indices(g, group.derived_subgroup())


P_GROUPS = {name: CORPUS[name] for name in
            ["Z2", "Z3", "Z4", "Z5", "Z7", "Z8", "Z9", "Z11", "V4", "D4", "Q8"]}
P_GROUPS.update({"x".join(f): reduce(catalog.direct_product, map(CORPUS.get, f)) for f in
                 [("Z2",) * 3, ("Z2",) * 4, ("Z4", "Z2"), ("Z3", "Z3"), ("Q8", "Z2"),
                  ("D4", "Z2")]})


@pytest.mark.parametrize("name", list(P_GROUPS))
def test_minimal_generating_sets_of_p_groups_match_sympy(name):
    """A minimal generating set of a p-group P has d(P) elements, the rank
    of P/P'P^p (Burnside's basis theorem). P/P' is an abelian p-group, so
    that rank is the number of its invariants."""
    g = _fresh(P_GROUPS[name])
    group, _ = _regular(g)
    assert len(primefactors(group.order())) == 1
    witness = is_finitely_generated(catalog.single(g))
    assert witness.minimal
    assert witness.size == len(group.abelian_invariants())
