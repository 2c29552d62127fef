"""Enumeration size bounds.

Exhaustive searches refuse (raise BoundExceeded) rather than silently
truncate when an input is larger than the relevant bound.
"""

from __future__ import annotations

from collections import namedtuple


class Limits(namedtuple("Limits", [
        # largest group order for subgroup-lattice enumeration
        "max_group_order",
        # largest universe for exhaustive series / interposition search
        "max_exhaustive_universe",
        # cap on candidate subsets examined by the generating-set search
        "max_generator_candidates",
], defaults=(24, 12, 200_000))):
    __slots__ = ()


DEFAULT_LIMITS = Limits()
