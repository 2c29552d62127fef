"""Spanning sets and finite generation.

The one-step span is the literal product set {a o b} over all operations
wherever defined; it deliberately does not include the seeds themselves.
Generation uses its iterated closure, under which every finite space is
finitely generated; the search returns a minimal-cardinality witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .config import DEFAULT_LIMITS, Limits
from .errors import DomainError
from .groups import _bits, _close
from .spaces import Element, MultiGroupSpace


@dataclass(frozen=True)
class GeneratingSet:
    seeds: tuple[Element, ...]

    @staticmethod
    def of(ms: MultiGroupSpace, seeds) -> "GeneratingSet":
        seeds = ms.sorted_elements(set(seeds))
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
    return tuple(ms.universe[i] for i in _bits(out) if i < len(ms.universe))


def span_closure(ms: MultiGroupSpace, a: GeneratingSet) -> tuple[Element, ...]:
    """Least fixed point of S -> S | span_once(S), starting from the seeds.

    The seed mask is closed under every operation's int table at once by
    the kernel shared with the subgroup lattice; the undefined product is
    one more absorbing index, dropped at the end.
    """
    n = len(ms.universe)
    mask = _close(ms._tables, 0, ms._mask(a.seeds))
    return tuple(ms.universe[i] for i in _bits(mask) if i < n)


@dataclass(frozen=True)
class GenerationWitness:
    generators: tuple[Element, ...]
    minimal: bool

    @property
    def size(self) -> int:
        return len(self.generators)


def is_finitely_generated(ms: MultiGroupSpace,
                          limits: Limits = DEFAULT_LIMITS) -> GenerationWitness:
    """A minimal-cardinality generating set, by increasing-size subset search.

    Finite spaces always generate themselves, so this cannot fail; if the
    search budget runs out before a minimal witness is confirmed, the whole
    universe is returned flagged non-minimal rather than guessing.
    """
    target = set(ms.universe)
    examined = 0
    for size in range(1, len(ms.universe) + 1):
        for seeds in combinations(ms.universe, size):
            examined += 1
            if examined > limits.max_generator_candidates:
                return GenerationWitness(tuple(ms.universe), minimal=False)
            if set(span_closure(ms, GeneratingSet(seeds))) == target:
                return GenerationWitness(seeds, minimal=True)
    return GenerationWitness(tuple(ms.universe), minimal=False)
