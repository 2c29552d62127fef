"""Spanning sets and finite generation.

The one-step span is the literal product set {a o b} over all operations
wherever defined; it deliberately does not include the seeds themselves.
Generation uses its iterated closure, under which every finite space is
finitely generated; the search returns a minimal-cardinality witness.

The search is exact and returns the first minimal generating set in
combination order over the universe, but it never scans the whole universe:

* Components. Every defined product x o y joins x, y and x o y, so a
  product may leave its carrier and still stays in one connected
  component. A product of two elements of different components is
  undefined, so a span closure never leaves a component and a set
  generates the space iff its share of each component generates that
  component. Each share of a minimal set then has a forced size, the
  minimal size of its component. Of two sets of equal size the one that
  comes first holds the least element of their symmetric difference, so
  swapping one share for its component's first minimal set moves the set
  forward: the first minimal set of the space is the union of the first
  minimal sets of its components.
* Classes. The closure of a set depends only on the closures of its
  members, so two elements with equal singleton closures can replace each
  other. A minimal set holds at most one element of a class, and swapping
  it for the class's first element moves the set forward, so beyond size 1
  only the first element of each class is tried. The classes come from the
  singleton closures the size-1 pass computes anyway, so a component that
  one element generates costs no more closures than a plain scan.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import combinations

from .config import DEFAULT_LIMITS, Limits
from .errors import BoundExceeded, DomainError
from .groups import _bits, _close
from .spaces import Element, MultiGroupSpace


class GeneratingSet(namedtuple("GeneratingSet", ["seeds"])):
    __slots__ = ()

    @staticmethod
    def of(ms: MultiGroupSpace, seeds) -> "GeneratingSet":
        seeds = ms._elements(ms._mask(seeds))
        if not seeds:
            raise DomainError("a generating set must be nonempty")
        return GeneratingSet(seeds)


def span_once(ms: MultiGroupSpace, a: GeneratingSet) -> tuple[Element, ...]:
    """The literal one-step product set: {x o y} over all defined products."""
    seeds = _bits(ms._mask(a.seeds))
    out = 0
    for t in ms._tables:
        for x in seeds:
            for y in seeds:
                out |= 1 << t[x][y]
    return ms._elements(out)


def span_closure(ms: MultiGroupSpace, a: GeneratingSet) -> tuple[Element, ...]:
    """Least fixed point of S -> S | span_once(S), starting from the seeds.

    The seed mask is closed under every operation's int table at once by
    the kernel shared with the subgroup lattice; the undefined product is
    one more absorbing index, dropped at the end.
    """
    return ms._elements(_close(ms._tables, 0, ms._mask(a.seeds)))


class GenerationWitness(namedtuple("GenerationWitness", ["generators", "minimal"])):
    __slots__ = ()

    @property
    def size(self) -> int:
        return len(self.generators)


def _components(ms: MultiGroupSpace) -> list[int]:
    """The connected components of the universe, as bitmasks ordered by
    their least element. A table's defined products join its carrier and
    every product of it at once, so one merge per operation suffices; none
    is empty, as every carrier holds its identity."""
    n = len(ms.universe)
    components = [1 << i for i in range(n)]
    for t, carrier in zip(ms._tables, ms._carriers):
        merged = carrier | (sum(1 << x for x in set().union(*t)) & ~(1 << n))
        rest = []
        for c in components:
            if c & merged:
                merged |= c
            else:
                rest.append(c)
        components = rest + [merged]
    return sorted(components, key=lambda c: c & -c)


def _candidates(tables, component: int):
    """(seeds, closure) bitmask pairs of one component in combination order:
    every single element, then the sets of two or more first elements of
    their singleton-closure classes."""
    firsts: dict[int, int] = {}  # singleton closure -> its first element
    for x in _bits(component):
        closure = _close(tables, 0, 1 << x)
        yield 1 << x, closure
        firsts.setdefault(closure, x)
    reps = [(x, c) for c, x in firsts.items()]
    for size in range(2, len(reps) + 1):
        for combo in combinations(reps, size):
            seeds = union = 0
            for x, c in combo:
                seeds |= 1 << x
                union |= c
            yield seeds, _close(tables, combo[0][1], union)


def is_finitely_generated(ms: MultiGroupSpace,
                          limits: Limits = DEFAULT_LIMITS) -> GenerationWitness:
    """The first minimal-cardinality generating set in combination order.

    Each connected component is searched on its own by increasing size, and
    the first minimal sets of the components are joined (see the module
    docstring). Finite spaces always generate themselves, so the search
    always ends; it refuses with BoundExceeded, rather than guess, when it
    would examine more than max_generator_candidates candidates, counted
    across components.
    """
    witness = examined = 0
    for component in _components(ms):
        candidates = _candidates(ms._tables, component)
        closure = 0
        while closure & component != component:  # the last candidate generates
            if examined == limits.max_generator_candidates:
                raise BoundExceeded(
                    f"generating-set search examined {examined} candidate sets "
                    f"without confirming a minimal one; the bound is "
                    f"max_generator_candidates = {limits.max_generator_candidates}",
                    limits.max_generator_candidates)
            examined += 1
            seeds, closure = next(candidates)
        witness |= seeds
    return GenerationWitness(ms._elements(witness), minimal=True)
