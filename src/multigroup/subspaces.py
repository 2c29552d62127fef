"""Subspace criteria, cosets and the representation-set decomposition.

A subset with a retained operation subset is a subspace when it is itself
a union of one group per retained operation: for each retained op there
must be a nonempty subgroup of that op's group lying inside the subset,
and together the chosen parts must cover the subset exactly. Two
independent routes decide this:

 * the intersection route finds candidate parts on the subgroup lattice of
   each component group (the inverses of each closed set checked explicitly);
 * the completeness route finds candidate parts as product-closed subsets
   (closure only; finiteness makes a closed nonempty set a group).

For finite instances the two routes agree everywhere. The literal raw
reading, closure of the whole subset under every retained operation, is
kept as is_subspace_by_completeness because it genuinely differs: in the
field-of-three space the subset {0,1} with both operations retained is a
subspace (parts {0} and {1}) while raw closure fails on 1+1=2.

Both routes, the cover search and cosets work on universe bitmasks over
the space's tables; element names appear only in the results. The
completeness route's candidates come from the bitmask closure kernel that
also builds the subgroup lattice and span_closure: on the operation's
table in the space, each allowed element is closed, each closed set found
is joined with each element closure not inside it (as words over its
generators on a table already known to be associative), and the maximal
closures inside the allowed set are kept. Decompositions are cached on the
space by (bitmask, retained ops, carriers), so the cache is freed with it;
the series walk covers inside induced spaces with lattice members instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from itertools import chain, product
from operator import or_

from .config import DEFAULT_LIMITS, Limits
from .errors import DecompositionFailure, DomainError, PreconditionError
from .groups import (Element, FiniteGroup, _bits, _close, _closed_subsets,
                     _maximal, subgroups)
from .spaces import MultiGroupSpace, is_complete


@dataclass(frozen=True)
class SubsetRef:
    """A subset of the universe tagged with the operations it retains."""

    elements: tuple[Element, ...]
    retained_ops: tuple[str, ...]

    @staticmethod
    def of(ms: MultiGroupSpace, elements, ops=None) -> "SubsetRef":
        """Canonicalized construction against a space.

        With ops=None every operation whose carrier meets the subset is
        retained (the convention used for series links). An explicitly
        retained operation must act on at least one element of the subset.
        """
        mask = ms._mask(elements)
        if ops is None:
            ops = [op for op in ms.op_set if mask & ms._carrier(op)]
        else:
            ops = list(dict.fromkeys(ops))
            for op in ops:
                ms.group_of(op)  # raises DomainError on unknown ids
            ops = [op for op in ms.op_set if op in ops]
            for op in ops:
                if not mask & ms._carrier(op):
                    raise ValueError(
                        f"retained operation {op!r} acts on no element of the subset")
        return SubsetRef(ms._elements(mask), tuple(ops))


def _closed_part_candidates(ms: MultiGroupSpace, op: str, within: int) -> list[int]:
    """Maximal nonempty product-closed subsets of within, a part of op's
    carrier, as universe bitmasks (completeness route).

    Raises DomainError naming the first product outside the carrier, in
    row-major table order, that the closure of an allowed element or of two
    maximal closed sets reaches: exactly what joining every two closed sets
    reaches, as each such join lies inside one of the latter. Closures are
    words only if validation or the lattice already cached Light's verdict:
    on a small allowed set the test costs more than the closures it saves.
    """
    g, t = ms.group_of(op), ms._table(op)
    maximal = _maximal(_closed_subsets(t, within, vars(g).get("_associative", False)))
    if g._ints[1]:
        escaped = 0
        for closed, union in [(0, 1 << x) for x in _bits(within)] + \
                [(a, a | b) for i, a in enumerate(maximal) for b in maximal[:i]]:
            escaped |= _close((t,), closed, union)
        for name in g._ints[1]:  # the products outside the carrier, in table order
            if escaped >> ms.index(name) & 1:
                raise DomainError(f"{name!r} is not in the carrier of {g.op_id!r}")
    return maximal


def _lattice_part_candidates(ms: MultiGroupSpace, op: str, allowed: int,
                             limits: Limits) -> list[int]:
    """Maximal subgroups of op's group inside `allowed` (the intersection
    route), as universe bitmasks, read off the lattice cached on the space."""
    lattice = ms._lattice(ms.groups.index(ms.group_of(op)), limits)
    return _maximal([m for m in lattice if not m & ~allowed])


def _select_cover(target: int, candidates_by_op: dict[str, list[int]]):
    """First per-op assignment (candidates in canonical order) whose parts
    cover the target, in product order."""
    # cheap necessary condition: every element must lie in some candidate
    if target & ~reduce(or_, chain.from_iterable(candidates_by_op.values()), 0):
        return None
    for choice in product(*candidates_by_op.values()):
        if reduce(or_, choice) == target:
            return dict(zip(candidates_by_op, choice))
    return None


def _decomposition(ms: MultiGroupSpace, target: int, ops: tuple[str, ...],
                   carriers: tuple[int, ...], part_candidates=_closed_part_candidates):
    if not target or not ops:
        return None
    candidates: dict[str, list[int]] = {}
    for op in ops:
        carrier = carriers[ms.groups.index(ms.group_of(op))]
        cands = part_candidates(ms, op, target & carrier)
        if not cands:
            return None  # the op cannot contribute a nonempty group
        candidates[op] = sorted(cands, key=_bits)
    return _select_cover(target, candidates)


def _parts(ms: MultiGroupSpace, mask: int, ops: tuple[str, ...]):
    """subspace_decomposition over universe bitmasks: one part per retained
    operation, or None. Cached on the space by (mask, ops, carriers), so the
    cache is freed with it."""
    key = mask, ops, ms._carriers
    if key not in ms._decompositions:
        ms._decompositions[key] = _decomposition(ms, *key)
    return ms._decompositions[key]


def subspace_decomposition(ms: MultiGroupSpace, s: SubsetRef):
    """The canonical per-op part assignment, or None if s is not a subspace.

    Deterministic: operations in operation-set order, candidate parts in
    canonical element order, first full cover wins.
    """
    parts = _parts(ms, ms._mask(s.elements), s.retained_ops)
    return None if parts is None else \
        {op: ms._elements(part) for op, part in parts.items()}


def is_subspace(ms: MultiGroupSpace, s: SubsetRef) -> bool:
    """The authoritative subspace predicate (completeness route).

    Candidate parts are computed by product closure alone; a nonempty
    closed subset of a finite group is automatically a subgroup, which is
    what makes this route agree with the intersection route.
    """
    return _parts(ms, ms._mask(s.elements), s.retained_ops) is not None


@dataclass(frozen=True)
class SubspaceEvidence:
    """Per-operation evidence for the intersection-route subspace test."""

    ok: bool
    intersections: tuple[tuple[str, tuple[Element, ...]], ...]
    parts: tuple[tuple[str, tuple[Element, ...]], ...] | None
    reason: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def is_subspace_by_intersection(ms: MultiGroupSpace, s: SubsetRef,
                                limits: Limits = DEFAULT_LIMITS) -> SubspaceEvidence:
    """Subspace test on the subgroup lattice of each retained operation.

    Independent of the completeness route: candidate parts come from full
    subgroup enumeration with explicit inverse checks, and the search walks
    uncovered elements instead of operations.
    """
    target = ms._mask(s.elements)
    intersections = tuple((op, ms._elements(target & ms._carrier(op)))
                          for op in s.retained_ops)
    if not target or not s.retained_ops:
        return SubspaceEvidence(False, intersections, None,
                                "a subspace needs elements and a retained operation")

    candidates: dict[str, list[int]] = {}
    for op in s.retained_ops:
        cands = _lattice_part_candidates(ms, op, target, limits)
        if not cands:
            return SubspaceEvidence(
                False, intersections, None,
                f"no subgroup of {op!r} lies inside the subset")
        candidates[op] = sorted(cands, key=_bits)

    # element-driven search: repeatedly satisfy the smallest uncovered element
    def assign(remaining_ops: tuple[str, ...], covered: int, chosen: dict[str, int]):
        if covered == target:
            # unassigned ops still need a part; any candidate will do
            for op in remaining_ops:
                chosen[op] = candidates[op][0]
            return dict(chosen)
        left = target & ~covered
        uncovered = left & -left
        for op in remaining_ops:
            for cand in candidates[op]:
                if cand & uncovered:
                    chosen[op] = cand
                    rest = tuple(o for o in remaining_ops if o != op)
                    result = assign(rest, covered | cand, chosen)
                    if result is not None:
                        return result
                    chosen.pop(op, None)
        return None

    cover = assign(s.retained_ops, 0, {})
    if cover is None:
        return SubspaceEvidence(False, intersections, None,
                                "no per-operation assignment of subgroups covers the subset")
    parts = tuple((op, ms._elements(cover[op])) for op in s.retained_ops)
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


def coset(ms: MultiGroupSpace, h: SubsetRef, g: Element) -> tuple[Element, ...]:
    """All defined products g * h' over the subspace's decomposition parts.

    An element with no defined product against the parts yields {g}, so a
    transversal can still cover the whole universe.
    """
    x = ms.index(g)
    parts = _parts(ms, ms._mask(h.elements), h.retained_ops)
    if parts is None:
        raise PreconditionError("coset requires a subspace")
    out = 0
    for op, part in parts.items():
        row = ms._table(op)[x]  # all undefined when g is outside the carrier
        for member in _bits(part):
            out |= 1 << row[member]
    return ms._elements(out) or (g,)


@dataclass(frozen=True)
class CosetDecomposition:
    subspace: SubsetRef
    transversal: tuple[Element, ...]
    cosets: tuple[tuple[Element, ...], ...]


def coset_decomposition(ms: MultiGroupSpace, h: SubsetRef) -> CosetDecomposition:
    """Greedy transversal in canonical order; raises if cosets overlap.

    Partial operations can break the coset dichotomy, in which case the
    failure surfaces as DecompositionFailure with the offending pair
    instead of a silently wrong partition.
    """
    if not is_subspace(ms, h):
        raise PreconditionError("coset decomposition requires a subspace")
    covered: set[Element] = set()
    transversal: list[Element] = []
    cosets: list[tuple[Element, ...]] = []
    for x in ms.universe:
        if x in covered:
            continue
        c = coset(ms, h, x)
        transversal.append(x)
        cosets.append(c)
        covered.update(c)
    for i in range(len(cosets)):
        for j in range(i + 1, len(cosets)):
            overlap = ms._mask(cosets[i]) & ms._mask(cosets[j])
            if overlap:
                raise DecompositionFailure(transversal[i], transversal[j],
                                           ms._elements(overlap))
    return CosetDecomposition(h, tuple(transversal), tuple(cosets))


def lagrange_check(g: FiniteGroup,
                   limits: Limits = DEFAULT_LIMITS) -> tuple[bool, tuple | None]:
    """Every enumerated subgroup order divides the group order.

    Always true for a valid group; a witness would indicate an engine bug,
    which is exactly what the acceptance suite wants surfaced.
    """
    for sub in subgroups(g, limits):
        if g.order % len(sub) != 0:
            return False, (sub, len(sub), g.order)
    return True, None
