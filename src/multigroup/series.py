"""Normal subspaces and descending series of them.

Normality has two independent routes: the conjugation scan straight from
the definition (g * h * g^-1 stays inside, for every retained operation
and every g in that operation's carrier) and the criterion that every
decomposition part is a normal subgroup of its component group.

Series are built by the staged programming: operations are visited in the
oriented order, and at each stage the current part of that operation is
walked down a composition series, removing the stripped elements from the
whole link. Removals can clip or delete the carriers of later operations;
such anomalies are recorded on the series instead of being papered over,
and the series may legitimately terminate away from the last operation's
identity (flagged TERMINAL_MISMATCH). The walk stays in the top-level tables:
a link is a universe bitmask, the space induced on it a tuple of carriers.
The space is valid, so every closed set is a subgroup: a link's parts are
covered by the completeness route's candidates, a carrier's subgroups are
the closed sets the closure kernel finds inside it (_subgroups), and
normality conjugates with the generators it keeps: the elements that
conjugate a set onto itself form a subgroup. An edge's interposition
verdict, a part's maximal normal subgroups, a carrier's subgroups and a
link's SubsetRef are kept through MultiGroupSpace._kept.

A maximal-series enumeration returns its accepted series and its
rejected ones with the reason. The length-invariance check returns each
ordering's lengths and constant (None when its series differ in length
or it has none, the lengths being the witness) and whether the
constants agree.

Three rules let the walk decide by the structure of a step, each exact:
1. A step of op k from its part P to nxt removes P & ~nxt. A carrier that
   misses those elements stays whole, a subgroup and normal in itself; a
   clipped carrier that the link misses is lost, with nothing to cover or
   conjugate; and op k's part becomes nxt, normal in P. So when the link
   misses every other carrier that meets them, the link's carriers are
   the parent's with nxt at k and those carriers lost, and otherwise only
   the clipped carriers are conjugation-tested (_link_carriers).
2. A solvable part's choices come from its abelian quotients, not its
   lattice. If P is solvable, every simple quotient of P is cyclic of
   prime order, so the maximal normal subgroups of P are the preimages of
   the hyperplanes of P/N_p, N_p = P'·P^p, for each prime p dividing
   |P : P'|; on an abelian operation P' is the identity. A part of prime
   order has only the identity below it, and a part that is not solvable
   (its derived series stalls above the identity) filters the subgroups
   under itself (_choices, groups._maximal_normal). An abelian group
   conjugates every subset onto itself, so its carriers are never
   conjugation-tested (_normalised).
3. When a parent's carriers are pairwise disjoint, a normal subspace M
   strictly between it and a link would make M & P a normal subgroup of P
   strictly between nxt and P, against the choice of nxt as maximal; so
   such an edge is decided without a search (_interposable).
"""

from __future__ import annotations

from collections import namedtuple
from functools import reduce
from itertools import permutations
from operator import or_

from .config import DEFAULT_LIMITS, Limits
from .errors import (BoundExceeded, DomainError, InternalConsistencyError,
                     PreconditionError)
from .groups import (Element, _bits, _check_order, _closed_subsets, _maximal_normal,
                     _normalises, _not_in_carrier, is_normal_subgroup)
from .spaces import MultiGroupSpace, validate_multigroup
from .subspaces import SubsetRef, _decomposition, is_subspace, subspace_decomposition

ANOMALY_TERMINAL_MISMATCH = "TERMINAL_MISMATCH"
ANOMALY_CARRIER_LOST = "CARRIER_LOST"
ANOMALY_REJECTED_STEP = "INTERPOSABLE_STEP"

# the comparison across all oriented sequences is refused above this many
# operations (factorial blowup)
MAX_CROSS_SEQUENCE_OPS = 4


class OrientedOperationSequence(namedtuple("OrientedOperationSequence", ["order"])):
    """A total order on the operation identifiers."""

    __slots__ = ()

    @staticmethod
    def of(ms: MultiGroupSpace, order=None) -> "OrientedOperationSequence":
        if order is None:
            return OrientedOperationSequence(ms.op_set)
        order = tuple(order)
        if sorted(order) != sorted(ms.op_set):
            raise DomainError(
                f"sequence {order!r} is not a permutation of the operation set "
                f"{ms.op_set!r}")
        return OrientedOperationSequence(order)


class NormalityEvidence(namedtuple("NormalityEvidence", [
        "ok",
        "witness",  # (op, g, h, conjugate) or None
], defaults=(None,))):
    __slots__ = ()

    def __bool__(self) -> bool:
        return self.ok


def _subgroups(ms: MultiGroupSpace, k: int, carrier: int) -> dict[int, list[int]]:
    """The subgroups of op k's group inside carrier, a subgroup of it, as
    universe bitmasks, each with the elements it was joined from, which
    generate it: the closure kernel run on carrier, kept through _kept. The
    space is valid, so each closed set it finds is a subgroup."""
    return ms._kept(("subgroups", k, carrier),
                    lambda: _closed_subsets(ms._tables[k], carrier, True))


def _normalised(ms: MultiGroupSpace, members: int, carriers: tuple[int, ...]) -> bool:
    """Whether each carrier conjugates the members inside it onto themselves.
    The space is valid, so the elements that do form a group, and the
    elements the carrier was joined from, which generate it, suffice. An
    abelian operation conjugates every subset onto itself (rule 2), so its
    carriers are skipped."""
    return all(_normalises(ms._tables[k], x, _bits(members & carrier))
               for k, carrier in enumerate(carriers)
               if members & carrier and not ms.groups[k].is_abelian
               for x in _subgroups(ms, k, carrier)[carrier])


def is_normal_subspace(ms: MultiGroupSpace, h: SubsetRef) -> NormalityEvidence:
    """Conjugation route: g * h' * g^-1 stays inside for every retained op.

    h' ranges over the subset's intersection with the op's carrier and g
    over the whole carrier; membership of the conjugate is tested against
    the subset itself.
    """
    if not is_subspace(ms, h):
        raise PreconditionError("normality requires a subspace")
    u, n, members = ms.universe, len(ms.universe), ms._mask(h.elements)
    ok = members | 1 << n
    for op in h.retained_ops:
        k = ms._position(op)
        g, t, at = ms.groups[k], ms._tables[k], ms._at[k]
        inside = _bits(members & ms._carriers[k])
        for i, x in enumerate(at):
            xi, row = at[g._inverse_of(i)], t[x]
            for m in inside:
                conjugate = t[row[m]][xi]
                if conjugate == n and row[m] != n:
                    raise _not_in_carrier(u[row[m]], op)  # x * m left the carrier
                if not ok >> conjugate & 1:
                    return NormalityEvidence(False, (op, g.carrier[i], u[m], u[conjugate]))
    return NormalityEvidence(True)


def normality_criterion(ms: MultiGroupSpace, h: SubsetRef) -> bool:
    """Criterion route: every canonical decomposition part is a normal
    subgroup of its component group."""
    decomp = subspace_decomposition(ms, h)
    if decomp is None:
        raise PreconditionError("normality requires a subspace")
    return all(is_normal_subgroup(ms.group_of(op), part)
               for op, part in decomp.items())


class NormalSeries(namedtuple("NormalSeries", ["chain", "step_ops", "anomalies"],
                              defaults=((),))):
    """A descending chain of subspaces with the operation that drove each step."""

    __slots__ = ()

    @property
    def length(self) -> int:
        return len(self.chain) - 1

    def element_chain(self) -> tuple[tuple[Element, ...], ...]:
        return tuple(link.elements for link in self.chain)


def _check_preconditions(ms: MultiGroupSpace, limits: Limits) -> None:
    _check_order(max((g.order for g in ms.groups), default=0), limits,
                 "series construction bounded at group order")
    if not validate_multigroup(ms).ok:
        raise PreconditionError(
            "series construction requires a valid multi-group space")


def _induced(ms: MultiGroupSpace, carriers: tuple[int, ...], mask: int):
    """The carriers of the space induced on mask inside the space with the
    given carriers (mask's decomposition parts there, 0 for a lost
    operation), or None if mask is no subspace there. It retains the
    operations whose carrier meets mask, as SubsetRef.of does. The cover
    is subspaces._parts' own, over the parts of the given carriers: the
    completeness candidates the space keeps per (operation, allowed set),
    each a subgroup, as the space is valid."""
    return _decomposition(ms, mask, [k for k, carrier in enumerate(carriers) if mask & carrier],
                          carriers)


def _link_carriers(ms: MultiGroupSpace, carriers: tuple[int, ...], link: int,
                   k: int, nxt: int):
    """The carriers of the space induced on a link, the step of op k from
    its part carriers[k] to nxt, a maximal normal subgroup of that part;
    the link must be a normal subspace of its parent, the space with the
    given carriers.

    Rule 1: the step removes carriers[k] & ~nxt, and clips each other
    carrier that meets those elements. A carrier it does not clip lies
    whole in the link; it is a lattice member, so it is the one candidate
    that covers its share of the link, and it conjugates itself onto
    itself. A clipped carrier that the link misses is lost (0): it has
    nothing to cover or conjugate. Op k's share is nxt, as any carrier
    that meets carriers[k] & ~nxt is clipped; nxt is also a lattice member,
    and normal in the part. So when the link misses every clipped carrier,
    the link's carriers are the parent's with nxt at k and 0 at each
    clipped one, and otherwise only the clipped carriers need the
    conjugation test.
    """
    removed = carriers[k] & ~nxt
    clipped = tuple(0 if j == k or not carrier & removed else carrier
                    for j, carrier in enumerate(carriers))
    if not any(clip & link for clip in clipped):
        spliced = [0 if clip else carrier for carrier, clip in zip(carriers, clipped)]
        spliced[k] = nxt
        return tuple(spliced)
    inner = _induced(ms, carriers, link)
    if inner is None or not _normalised(ms, link, clipped):
        relation = "a subspace of" if inner is None else "normal in"
        raise InternalConsistencyError(
            f"constructed link {ms._elements(link)!r} is not {relation} its parent")
    return inner


def _choices(ms: MultiGroupSpace, k: int, part: int) -> list[int]:
    """The maximal proper normal subgroups of op k's part, a subgroup,
    canonically smallest first, kept through _kept. They come from the
    part's prime-index quotients (rule 2, groups._maximal_normal), and
    only a part that is not solvable reads the subgroups under itself."""
    g = ms.groups[k]
    return ms._kept(("choices", k, part), lambda: _maximal_normal(
        ms._tables[k], part, ms._at[k][g._e], g.is_abelian))


def _series_stages(ms: MultiGroupSpace, seq: OrientedOperationSequence):
    """Generate (chain, step_ops, anomalies, spaces) from the staged programming,
    where chain holds universe bitmasks and spaces[i] is the carrier tuple of
    the space induced on chain[i].

    Every maximal proper normal subgroup of a part is a choice, taken on
    demand and canonically smallest first, so the first result is the
    single witness. After a step of op k, op k's part spaces[-1][k] is the
    choice taken: the one lattice member inside the new link and the part.
    """
    ks = [ms._position(op) for op in seq.order]

    def walk(i, chain, spaces, steps, anomalies):
        if i == len(ks):
            yield chain, steps, anomalies, spaces
            return
        op, k = seq.order[i], ks[i]
        part = spaces[-1][k]
        if not part & part - 1:  # one element, or none (a lost carrier): next stage
            if not part:
                anomalies = anomalies + [f"{ANOMALY_CARRIER_LOST}:{op}"]
            yield from walk(i + 1, chain, spaces, steps, anomalies)
            return
        for nxt in _choices(ms, k, part):
            link = chain[-1] & ~part | nxt
            yield from walk(i, chain + [link],
                            spaces + [_link_carriers(ms, spaces[-1], link, k, nxt)],
                            steps + [op], anomalies)

    yield from walk(0, [(1 << len(ms.universe)) - 1], [ms._carriers], [], [])


def _finish_series(ms: MultiGroupSpace, seq: OrientedOperationSequence,
                   chain, steps, anomalies) -> NormalSeries:
    # each distinct link is named once per space, as SubsetRef.of would
    refs = [ms._kept(("ref", m), lambda: SubsetRef(ms._elements(m), tuple(
        op for op, carrier in zip(ms.op_set, ms._carriers) if m & carrier)))
        for m in chain]
    k = ms._position(seq.order[-1])
    if chain[-1] != 1 << ms._at[k][ms.groups[k]._e]:  # not the last op's identity
        anomalies = anomalies + [
            f"{ANOMALY_TERMINAL_MISMATCH}: terminal {{{', '.join(refs[-1].elements)}}} "
            f"!= {{{ms.groups[k].identity}}}"]
    return NormalSeries(tuple(refs), tuple(steps), tuple(anomalies))


def build_series(ms: MultiGroupSpace, seq: OrientedOperationSequence | None = None,
                 limits: Limits = DEFAULT_LIMITS) -> NormalSeries:
    """Single-witness staged construction under an oriented sequence.

    Ties among maximal proper normal subgroups break to the canonically
    smallest, so the result is deterministic.
    """
    seq = seq if seq is not None else OrientedOperationSequence.of(ms)
    _check_preconditions(ms, limits)
    chain, steps, anomalies, _ = next(_series_stages(ms, seq))
    return _finish_series(ms, seq, chain, steps, anomalies)


def _candidates_between(ms: MultiGroupSpace, carriers: tuple[int, ...],
                        low: int) -> list[int]:
    """The unions of one subgroup (or nothing) per operation strictly between
    low and the space with the given carriers, by size and then by the gap
    positions taken. Each carrier is a subgroup of a group of ms, so its
    subgroups are the closed sets inside it (_subgroups)."""
    unions = {0}
    for k, carrier in enumerate(carriers):
        unions |= {u | p for u in unions for p in _subgroups(ms, k, carrier)}
    whole = reduce(or_, carriers)
    between = [m for m in unions if m & low == low and m not in (low, whole)]
    return sorted(between, key=lambda m: (m.bit_count(), _bits(m & ~low)))


def _interposable(ms: MultiGroupSpace, carriers: tuple[int, ...],
                  lower: int) -> int | None:
    """The first normal subspace strictly between a walk link and its
    parent, the space with the given carriers, in which the link is normal,
    or None.

    The candidates are the unions of the carriers' subgroups between link
    and parent: every subspace between them is one, as a subspace is a
    union of one subgroup (or nothing) per operation. They come in the
    order of a scan over all 2^|gap| subsets, so the witness is the one it
    finds.
    The verdict depends on the edge (carriers, lower) alone: kept through
    _kept.

    The link is normal in every subspace M between, so only M is
    conjugation-tested. The link is normal in its parent under each parent
    carrier C_j: an unclipped carrier lies whole in the link, op k's share
    is nxt, normal in the part, and a clipped carrier is either missed by
    the link (rule 1) or conjugation-tested in _link_carriers. Each
    carrier D_j of M is a subgroup inside C_j, so conjugating link & D_j
    by any x in D_j stays inside the link, as x is in C_j, and inside
    D_j: inside link & D_j. tests/oracles.scan_interposable keeps the
    full check.

    Rule 3: the link is a step of some op k from its part P to nxt, a
    maximal normal subgroup of P. When the carriers are pairwise disjoint, a
    normal subspace M strictly between would hold every other carrier
    whole, and M & P would be its part for op k: a normal subgroup of P
    strictly between nxt and P, which the choice of nxt rules out. So
    nothing is searched.
    """
    def search():
        disjoint = sum(map(int.bit_count, carriers)) == reduce(or_, carriers).bit_count()
        return None if disjoint else next(
            (mid for mid in _candidates_between(ms, carriers, lower)
             if (inner := _induced(ms, carriers, mid)) is not None
             and _normalised(ms, mid, carriers)
             and _induced(ms, inner, lower) is not None), None)

    return ms._kept(("edge", carriers, lower), search)


class MaximalSeriesResult(namedtuple("MaximalSeriesResult", [
        "series",
        "rejected",  # tuple[tuple[NormalSeries, str], ...]
], defaults=((),))):
    __slots__ = ()

    @property
    def lengths(self) -> tuple[int, ...]:
        return tuple(s.length for s in self.series)

    @property
    def constant(self) -> int | None:
        """The length every series shares, or None when they differ or
        there is none."""
        distinct = set(self.lengths)
        return distinct.pop() if len(distinct) == 1 else None


def enumerate_maximal_series(ms: MultiGroupSpace,
                             seq: OrientedOperationSequence | None = None,
                             limits: Limits = DEFAULT_LIMITS) -> MaximalSeriesResult:
    """All staged series with no normal subspace interposable between links.

    Every branching choice of maximal proper normal subgroup is explored;
    each produced chain is then re-checked link by link with the
    interposition search, which is exhaustive although it tries only unions
    of subgroups: every subspace between two links is such a union (see
    _interposable). Chains that fail it are returned separately, never
    silently dropped or silently kept. Results are kept through _kept per
    order, so mgs maximal-series enumerates each ordering once; a
    construction that raises keeps nothing.
    """
    seq = seq if seq is not None else OrientedOperationSequence.of(ms)
    if len(ms.universe) > limits.max_exhaustive_universe:
        raise BoundExceeded(
            f"exhaustive series enumeration bounded at universe size "
            f"{limits.max_exhaustive_universe}, got {len(ms.universe)}; "
            f"use build_series for a single witness", limits.max_exhaustive_universe)
    _check_preconditions(ms, limits)
    return ms._kept(("maximal", seq.order), lambda: _enumerate_maximal_series(ms, seq))


def _enumerate_maximal_series(ms: MultiGroupSpace,
                              seq: OrientedOperationSequence) -> MaximalSeriesResult:
    accepted: list[NormalSeries] = []
    rejected: list[tuple[NormalSeries, str]] = []
    for chain, steps, anomalies, spaces in _series_stages(ms, seq):
        series = _finish_series(ms, seq, chain, steps, anomalies)
        reason = None
        for upper, lower, carriers in zip(series.chain, chain[1:], spaces):
            witness = _interposable(ms, carriers, lower)
            if witness is not None:
                reason = (f"{ANOMALY_REJECTED_STEP}: {{{', '.join(ms._elements(witness))}}} "
                          f"interposes below {{{', '.join(upper.elements)}}}")
                break
        if reason is None:
            accepted.append(series)
        else:
            rejected.append((series, reason))
    return MaximalSeriesResult(tuple(accepted), tuple(rejected))


class SequenceLengths(namedtuple("SequenceLengths", [
        "order",
        "lengths",
        "constant",  # the common length, when one exists, else None
        "series_count",
        "anomalies",
])):
    __slots__ = ()


class LengthInvariance(namedtuple("LengthInvariance", [
        "per_sequence",
        "cross_sequence_constant",  # bool | None
])):
    __slots__ = ()


def length_invariance_check(ms: MultiGroupSpace,
                            limits: Limits = DEFAULT_LIMITS) -> LengthInvariance:
    """Empirical length-invariance verdict across every oriented sequence.

    Within a fixed sequence all maximal series must share one length: that
    sequence's SequenceLengths.constant, None when they differ, with its
    lengths as the witness. The comparison across different sequences is
    reported, not asserted, since its status is exactly what the
    construction leaves open: cross_sequence_constant is None unless every
    sequence has a constant. It is refused above MAX_CROSS_SEQUENCE_OPS
    operations. One sequence's verdict is
    enumerate_maximal_series(ms, seq, limits).constant.
    """
    if len(ms.op_set) > MAX_CROSS_SEQUENCE_OPS:
        raise BoundExceeded(
            f"cross-sequence comparison bounded at {MAX_CROSS_SEQUENCE_OPS} "
            f"operations, got {len(ms.op_set)}", MAX_CROSS_SEQUENCE_OPS)

    stats: list[SequenceLengths] = []
    for order in permutations(ms.op_set):
        try:
            result = enumerate_maximal_series(
                ms, OrientedOperationSequence.of(ms, order), limits)
        except InternalConsistencyError as exc:
            # an ordering whose staged construction breaks down is a fact
            # about the space, reported alongside the orderings that work
            stats.append(SequenceLengths(order, (), None, 0,
                                         (f"CONSTRUCTION_FAILED: {exc}",)))
            continue
        anomalies = tuple(dict.fromkeys(
            a for s in result.series for a in s.anomalies))
        stats.append(SequenceLengths(order, result.lengths, result.constant,
                                     len(result.series), anomalies))

    # a sequence with no series, or series of two lengths, has no constant
    constants = {s.constant for s in stats}
    within = None not in constants
    return LengthInvariance(tuple(stats), len(constants) == 1 if within else None)
