"""Subspace criteria, cosets and the representation-set decomposition.

A subset with a retained operation subset is a subspace when it is itself
a union of one group per retained operation: for each retained op there
must be a nonempty subgroup of that op's group lying inside the subset,
and together the chosen parts must cover the subset exactly. Two
independent routes decide this:

 * the intersection route finds candidate parts among the subgroups of
   each component group under the subset: on a group, the closed sets
   inside the subset's share of its carrier, over the group's own table
   and indices; on a table that is not a group, its whole subgroup
   lattice, whose inverse checks name an element without an inverse
   wherever it lies;
 * the completeness route finds candidate parts as product-closed subsets
   (closure only; finiteness makes a closed nonempty set a group).

For finite instances the two routes agree everywhere. The literal raw
reading, closure of the whole subset under every retained operation, is
kept as is_subspace_by_completeness because it genuinely differs: in the
field-of-three space the subset {0,1} with both operations retained is a
subspace (parts {0} and {1}) while raw closure fails on 1+1=2.

Both routes, the cover search and cosets work on universe bitmasks;
element names appear only in the results. Both routes' candidates on a
group come from the kernel that also builds the subgroup lattice, and
both hand it the same subset, the target's share of the carrier: each
allowed element is closed, each closed set found is joined with each
element closure not inside it (on a table that is a group, walked over
cosets, once per coset), and the maximal closures inside the allowed set
are kept. The completeness route runs it on the operation's table in the
space; the intersection route on the group's own table, mapping its
carrier indices to universe bits, and the tests check both against the
whole-lattice filter, kept as an oracle. Below the public functions an
operation is its position and parts are a tuple shaped like the
carriers. Decompositions are computed on each call; each operation's
completeness candidates are kept through MultiGroupSpace._kept by
(operation, allowed bitmask), so they are freed with the space. The
series walk covers inside induced spaces with the same candidates, and
its interposition candidates also come from the kernel, run on each
carrier.
"""

from __future__ import annotations

from collections import namedtuple
from functools import reduce
from itertools import chain, product
from operator import or_

from .config import DEFAULT_LIMITS, Limits
from .errors import DecompositionFailure, DomainError, PreconditionError
from .groups import (Element, _bits, _check_order, _close, _closed_subsets,
                     _maximal)
from .spaces import MultiGroupSpace, is_complete


class SubsetRef(namedtuple("SubsetRef", ["elements", "retained_ops"])):
    """A subset of the universe tagged with the operations it retains."""

    __slots__ = ()

    @staticmethod
    def of(ms: MultiGroupSpace, elements, ops=None) -> "SubsetRef":
        """Canonicalized construction against a space.

        With ops=None every operation whose carrier meets the subset is
        retained (the convention used for series links). An explicitly
        retained operation must act on at least one element of the subset.
        """
        mask = ms._mask(elements)
        if ops is None:
            ops = [op for op in ms.op_set if mask & ms._carriers[ms._position(op)]]
        else:
            ops = list(dict.fromkeys(ops))
            for op in ops:
                ms.group_of(op)  # raises DomainError on unknown ids
            ops = [op for op in ms.op_set if op in ops]
            for op in ops:
                if not mask & ms._carriers[ms._position(op)]:
                    raise ValueError(
                        f"retained operation {op!r} acts on no element of the subset")
        return SubsetRef(ms._elements(mask), tuple(ops))


def _closed_part_candidates(ms: MultiGroupSpace, k: int, within: int) -> list[int]:
    """Maximal nonempty product-closed subsets of within, a part of the
    carrier of groups[k], as universe bitmasks (completeness route).

    Raises DomainError naming the first product outside the carrier, in
    row-major table order, that the closure of an allowed element or of two
    maximal closed sets reaches: exactly what joining every two closed sets
    reaches, as each such join lies inside one of the latter. When the
    table is a group, element closures are powers and joins are walked
    over cosets, one per coset; Light's verdict is then computed if no
    earlier call cached it. Kept through _kept by (k, within), once no
    escape is found: a raise is never kept, so every call raises alike.
    """
    def compute():
        g, t = ms.groups[k], ms._tables[k]
        maximal = _maximal(_closed_subsets(t, within, g._generators is not None))
        if g._ints[1]:
            escaped = 0
            for closed, union in [(0, 1 << x) for x in _bits(within)] + \
                    [(a, a | b) for i, a in enumerate(maximal) for b in maximal[:i]]:
                escaped |= _close((t,), closed, union)
            for name in g._ints[1]:  # the products outside the carrier, in table order
                if escaped >> ms.index(name) & 1:
                    raise DomainError(f"{name!r} is not in the carrier of {g.op_id!r}")
        return maximal

    return ms._kept(("candidates", k, within), compute)


def _subgroups_under(ms: MultiGroupSpace, k: int, allowed: int) -> list[int]:
    """Maximal subgroups of groups[k] inside `allowed` (the intersection
    route), as universe bitmasks. On a group they are the maximal closed
    sets of the group's own table inside allowed's share of its carrier, so
    only the lattice's down-set under it is built: exact, as every nonempty
    closed set of a finite group is a subgroup. A table that is not a group
    filters its whole lattice, whose inverse checks name an element without
    an inverse wherever it lies."""
    g, at = ms.groups[k], ms._at[k]  # carrier index -> universe index
    within = sum(1 << i for i, x in enumerate(at) if allowed >> x & 1)
    found = _closed_subsets(g._ints[0], within, True) if g._generators is not None \
        else [m for m in g._lattice if not m & ~within]
    return [sum(1 << at[i] for i in _bits(m)) for m in _maximal(list(found))]


def _decomposition(ms: MultiGroupSpace, target: int, ks, carriers: tuple[int, ...]):
    """The first assignment of one candidate part inside the given carriers
    per position in ks (candidates in canonical order, in product order over
    ks) whose parts cover the target, shaped like carriers; or None."""
    if not target or not ks:
        return None
    candidates = []
    for k in ks:
        cands = _closed_part_candidates(ms, k, target & carriers[k])
        if not cands:
            return None  # the op cannot contribute a nonempty group
        candidates.append(sorted(cands, key=_bits))
    # cheap necessary condition: every element must lie in some candidate
    if target & ~reduce(or_, chain.from_iterable(candidates), 0):
        return None
    for choice in product(*candidates):
        if reduce(or_, choice) == target:
            parts = dict(zip(ks, choice))
            return tuple(parts.get(k, 0) for k in range(len(carriers)))
    return None


def _parts(ms: MultiGroupSpace, mask: int, ops: tuple[str, ...]):
    """subspace_decomposition over universe bitmasks: the parts shaped like
    the space's carriers, or None. Computed on each call, from the
    candidates the space keeps per operation."""
    return _decomposition(ms, mask, tuple(dict.fromkeys(map(ms._position, ops))),
                          ms._carriers)


def subspace_decomposition(ms: MultiGroupSpace, s: SubsetRef):
    """The canonical per-op part assignment, or None if s is not a subspace.

    Deterministic: operations in operation-set order, candidate parts in
    canonical element order, first full cover wins.
    """
    parts = _parts(ms, ms._mask(s.elements), s.retained_ops)
    return None if parts is None else \
        {op: ms._elements(parts[ms._position(op)]) for op in s.retained_ops}


def is_subspace(ms: MultiGroupSpace, s: SubsetRef) -> bool:
    """The authoritative subspace predicate (completeness route).

    Candidate parts are computed by product closure alone; a nonempty
    closed subset of a finite group is automatically a subgroup, which is
    what makes this route agree with the intersection route.
    """
    return _parts(ms, ms._mask(s.elements), s.retained_ops) is not None


class SubspaceEvidence(namedtuple("SubspaceEvidence", [
        "ok",
        "intersections",  # tuple[tuple[str, tuple[Element, ...]], ...]
        "parts",          # the same, or None
        "reason",         # str | None
], defaults=(None,))):
    """Per-operation evidence for the intersection-route subspace test."""

    __slots__ = ()

    def __bool__(self) -> bool:
        return self.ok


def _cover(target: int, candidates: dict[int, list[int]], covered: int = 0):
    """The intersection route's search: one candidate per position, from
    its sorted list, such that the candidates cover the target, as a dict
    by position; or None. It satisfies the smallest uncovered element
    first, trying the positions in order; positions left over once the
    target is covered take their first candidate."""
    if covered == target:
        return {k: cands[0] for k, cands in candidates.items()}
    left = target & ~covered
    for k, cands in candidates.items():
        for cand in cands:
            if cand & left & -left:
                rest = {j: c for j, c in candidates.items() if j != k}
                if (cover := _cover(target, rest, covered | cand)) is not None:
                    return {k: cand, **cover}
    return None


def is_subspace_by_intersection(ms: MultiGroupSpace, s: SubsetRef,
                                limits: Limits = DEFAULT_LIMITS) -> SubspaceEvidence:
    """Subspace test on the subgroups of each retained operation.

    Independent of the completeness route: candidate parts are the maximal
    subgroups under the subset, on a group found over its own table and
    indices, and otherwise read off the whole subgroup lattice with its
    explicit inverse checks; the search walks uncovered elements instead
    of operations.
    """
    target = ms._mask(s.elements)
    ks = [ms._position(op) for op in s.retained_ops]
    intersections = tuple((op, ms._elements(target & ms._carriers[k]))
                          for op, k in zip(s.retained_ops, ks))
    if not target or not ks:
        return SubspaceEvidence(False, intersections, None,
                                "a subspace needs elements and a retained operation")

    candidates: dict[int, list[int]] = {}
    for op, k in zip(s.retained_ops, ks):
        _check_order(ms.groups[k].order, limits, "subgroup enumeration bounded at order")
        cands = _subgroups_under(ms, k, target)
        if not cands:
            return SubspaceEvidence(
                False, intersections, None,
                f"no subgroup of {op!r} lies inside the subset")
        candidates[k] = sorted(cands, key=_bits)

    cover = _cover(target, candidates)
    if cover is None:
        return SubspaceEvidence(False, intersections, None,
                                "no per-operation assignment of subgroups covers the subset")
    parts = tuple((op, ms._elements(cover[k])) for op, k in zip(s.retained_ops, ks))
    return SubspaceEvidence(True, intersections, parts)


def is_subspace_by_completeness(ms: MultiGroupSpace, s: SubsetRef) -> bool:
    """The literal raw reading: the whole subset closed under each retained op.

    Kept for the documented divergence from the other two routes; see the
    module docstring for the pinned {0,1} example.
    """
    return all(is_complete(ms, s.elements, op) for op in s.retained_ops)


def induced_space(ms: MultiGroupSpace, s: SubsetRef) -> MultiGroupSpace:
    """The multi-group space a subspace forms in its own right.

    Carriers are the canonical decomposition parts, restricted from the
    parent's tables.
    """
    decomp = subspace_decomposition(ms, s)
    if decomp is None:
        raise PreconditionError("induced space requires a subspace")
    groups = tuple(ms.group_of(op).restrict(part) for op, part in decomp.items())
    return MultiGroupSpace(s.elements, groups)


def _coset(ms: MultiGroupSpace, parts: tuple[int, ...], x: int) -> int:
    """coset over universe bitmasks: the defined products of the element at
    index x with the parts, or that element alone."""
    out = 0
    for t, part in zip(ms._tables, parts):
        row = t[x]  # all undefined when x is outside the carrier
        for member in _bits(part):
            out |= 1 << row[member]
    return out & ~(1 << len(ms.universe)) or 1 << x


def coset(ms: MultiGroupSpace, h: SubsetRef, g: Element) -> tuple[Element, ...]:
    """All defined products g * h' over the subspace's decomposition parts.

    An element with no defined product against the parts yields {g}, so a
    transversal can still cover the whole universe.
    """
    x = ms.index(g)
    parts = _parts(ms, ms._mask(h.elements), h.retained_ops)
    if parts is None:
        raise PreconditionError("coset requires a subspace")
    return ms._elements(_coset(ms, parts, x))


class CosetDecomposition(namedtuple("CosetDecomposition",
                                    ["subspace", "transversal", "cosets"])):
    __slots__ = ()


def coset_decomposition(ms: MultiGroupSpace, h: SubsetRef) -> CosetDecomposition:
    """Greedy transversal in canonical order; raises if cosets overlap.

    Partial operations can break the coset dichotomy, in which case the
    failure surfaces as DecompositionFailure with the offending pair
    instead of a silently wrong partition.
    """
    parts = _parts(ms, ms._mask(h.elements), h.retained_ops)
    if parts is None:
        raise PreconditionError("coset decomposition requires a subspace")
    covered = 0
    transversal: list[int] = []
    cosets: list[int] = []
    for x in range(len(ms.universe)):
        if not covered >> x & 1:
            transversal.append(x)
            cosets.append(_coset(ms, parts, x))
            covered |= cosets[-1]
    for i, a in enumerate(cosets):
        for j in range(i + 1, len(cosets)):
            if overlap := a & cosets[j]:
                raise DecompositionFailure(ms.universe[transversal[i]],
                                           ms.universe[transversal[j]],
                                           ms._elements(overlap))
    return CosetDecomposition(h, tuple(ms.universe[x] for x in transversal),
                              tuple(map(ms._elements, cosets)))

