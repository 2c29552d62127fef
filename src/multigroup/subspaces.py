"""Subspace criteria, cosets and the representation-set decomposition.

A subset with a retained operation subset is a subspace when it is itself
a union of one group per retained operation: for each retained op there
must be a nonempty subgroup of that op's group lying inside the subset,
and together the chosen parts must cover the subset exactly. Two
independent routes decide this:

 * the intersection route finds candidate parts on the subgroup lattice of
   each component group (subgroup axioms checked explicitly);
 * the completeness route finds candidate parts as product-closed subsets
   (closure only; finiteness makes a closed nonempty set a group).

For finite instances the two routes agree everywhere. The literal raw
reading, closure of the whole subset under every retained operation, is
kept as is_subspace_by_completeness because it genuinely differs: in the
field-of-three space the subset {0,1} with both operations retained is a
subspace (parts {0} and {1}) while raw closure fails on 1+1=2.

The completeness route's candidates come from the bitmask closure kernel
that also builds the subgroup lattice and span_closure: on the group's int
table, each allowed element is closed, every two closed sets found are
joined, and the maximal closures inside the allowed set are kept.
Decompositions are cached on the space, so the cache is freed with it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import DEFAULT_LIMITS, Limits
from .errors import DecompositionFailure, DomainError, PreconditionError
from .groups import Element, FiniteGroup, _bits, _closed_subsets, subgroups
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
        elems = ms.sorted_elements(set(elements))
        if ops is None:
            ops = [op for op in ms.op_set
                   if set(elems) & set(ms.group_of(op).carrier)]
        else:
            ops = list(dict.fromkeys(ops))
            for op in ops:
                ms.group_of(op)  # raises DomainError on unknown ids
            ops = [op for op in ms.op_set if op in ops]
            for op in ops:
                if not set(elems) & set(ms.group_of(op).carrier):
                    raise ValueError(
                        f"retained operation {op!r} acts on no element of the subset")
        return SubsetRef(elems, tuple(ops))


def _closed_part_candidates(g: FiniteGroup, allowed: frozenset) -> list[frozenset]:
    """Maximal nonempty product-closed subsets of `allowed` (completeness route).

    Raises DomainError naming the first product outside the carrier, in
    row-major table order, that a closure on the way reaches.
    """
    t, outside = g._ints
    found, rejected = _closed_subsets(t, sum(1 << g.index(e) for e in allowed))
    escaped = rejected >> g.order
    if escaped:
        first = outside[(escaped & -escaped).bit_length() - 1]
        raise DomainError(f"{first!r} is not in the carrier of {g.op_id!r}")
    maximal = [m for m in found
               if not any(m != o and m & o == m for o in found)]
    return [frozenset(g.carrier[i] for i in _bits(m)) for m in maximal]


def _lattice_part_candidates(g: FiniteGroup, allowed: frozenset,
                             limits: Limits) -> list[frozenset]:
    """Maximal subgroups of g inside `allowed` (the intersection route)."""
    inside = [frozenset(s) for s in subgroups(g, limits) if frozenset(s) <= allowed]
    return [s for s in inside if not any(s < t for t in inside)]


def _select_cover(ms: MultiGroupSpace, target: frozenset,
                  candidates_by_op: dict[str, list[frozenset]]):
    """First per-op assignment (canonical order) whose parts cover the target."""
    ops = list(candidates_by_op)
    for op in ops:
        candidates_by_op[op] = sorted(candidates_by_op[op], key=ms.sort_key)
    # cheap necessary condition: every element must lie in some candidate
    reachable: set[Element] = set()
    for cands in candidates_by_op.values():
        for c in cands:
            reachable |= c
    if not target <= reachable:
        return None

    chosen: dict[str, frozenset] = {}

    def backtrack(i: int, covered: frozenset):
        if i == len(ops):
            return covered == target
        for cand in candidates_by_op[ops[i]]:
            chosen[ops[i]] = cand
            if backtrack(i + 1, covered | cand):
                return True
        chosen.pop(ops[i], None)
        return False

    if backtrack(0, frozenset()):
        return dict(chosen)
    return None


def _decomposition(ms: MultiGroupSpace, s: SubsetRef):
    target = frozenset(s.elements)
    if not target or not s.retained_ops:
        return None
    candidates: dict[str, list[frozenset]] = {}
    for op in s.retained_ops:
        g = ms.group_of(op)
        allowed = target & frozenset(g.carrier)
        cands = _closed_part_candidates(g, allowed)
        if not cands:
            return None  # the op cannot contribute a nonempty group
        candidates[op] = cands
    cover = _select_cover(ms, target, candidates)
    if cover is None:
        return None
    return {op: ms.sorted_elements(cover[op]) for op in s.retained_ops}


def subspace_decomposition(ms: MultiGroupSpace, s: SubsetRef):
    """The canonical per-op part assignment, or None if s is not a subspace.

    Deterministic: operations in operation-set order, candidate parts in
    canonical element order, first full cover wins.
    """
    for e in s.elements:
        ms.index(e)
    cache = ms._decompositions
    if s not in cache:
        cache[s] = _decomposition(ms, s)
    return cache[s]


def is_subspace(ms: MultiGroupSpace, s: SubsetRef) -> bool:
    """The authoritative subspace predicate (completeness route).

    Candidate parts are computed by product closure alone; a nonempty
    closed subset of a finite group is automatically a subgroup, which is
    what makes this route agree with the intersection route.
    """
    return subspace_decomposition(ms, s) is not None


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
    for e in s.elements:
        ms.index(e)
    target = frozenset(s.elements)
    intersections = tuple(
        (op, ms.sorted_elements(target & frozenset(ms.group_of(op).carrier)))
        for op in s.retained_ops)
    if not target or not s.retained_ops:
        return SubspaceEvidence(False, intersections, None,
                                "a subspace needs elements and a retained operation")

    candidates: dict[str, list[frozenset]] = {}
    for op in s.retained_ops:
        g = ms.group_of(op)
        allowed = target & frozenset(g.carrier)
        cands = _lattice_part_candidates(g, allowed, limits)
        if not cands:
            return SubspaceEvidence(
                False, intersections, None,
                f"no subgroup of {op!r} lies inside the subset")
        candidates[op] = sorted(cands, key=ms.sort_key)

    # element-driven search: repeatedly satisfy the smallest uncovered element
    def assign(remaining_ops: tuple[str, ...], covered: frozenset,
               chosen: dict[str, frozenset]):
        if covered == target:
            # unassigned ops still need a part; any candidate will do
            for op in remaining_ops:
                chosen[op] = candidates[op][0]
            return dict(chosen)
        uncovered = min(target - covered, key=ms.index)
        for op in remaining_ops:
            for cand in candidates[op]:
                if uncovered in cand:
                    chosen[op] = cand
                    rest = tuple(o for o in remaining_ops if o != op)
                    result = assign(rest, covered | cand, chosen)
                    if result is not None:
                        return result
                    chosen.pop(op, None)
        return None

    cover = assign(s.retained_ops, frozenset(), {})
    if cover is None:
        return SubspaceEvidence(False, intersections, None,
                                "no per-operation assignment of subgroups covers the subset")
    parts = tuple((op, ms.sorted_elements(cover[op])) for op in s.retained_ops)
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
    ms.index(g)
    decomp = subspace_decomposition(ms, h)
    if decomp is None:
        raise PreconditionError("coset requires a subspace")
    out: set[Element] = set()
    for op, part in decomp.items():
        grp = ms.group_of(op)
        if g not in grp:
            continue
        for member in part:
            out.add(grp.mul(g, member))
    if not out:
        out = {g}
    return ms.sorted_elements(out)


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
            overlap = set(cosets[i]) & set(cosets[j])
            if overlap:
                raise DecompositionFailure(transversal[i], transversal[j],
                                           ms.sorted_elements(overlap))
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
