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
The space is valid, so a link's parts are covers by lattice members, and
normality conjugates with generators only: the elements that conjugate a
set onto itself form a subgroup. An edge's interposition verdict, a part's
maximal normal subgroups and a link's SubsetRef are kept on the space.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial, reduce
from itertools import permutations
from operator import or_

from .config import DEFAULT_LIMITS, Limits
from .errors import (BoundExceeded, DomainError, InternalConsistencyError,
                     PreconditionError)
from .groups import (Element, _bits, _maximal, _normalises, _proper_normal,
                     is_normal_subgroup)
from .spaces import MultiGroupSpace
from .subspaces import (SubsetRef, _decomposition, _lattice_part_candidates,
                        is_subspace, subspace_decomposition)

ANOMALY_TERMINAL_MISMATCH = "TERMINAL_MISMATCH"
ANOMALY_CARRIER_LOST = "CARRIER_LOST"
ANOMALY_REJECTED_STEP = "INTERPOSABLE_STEP"

# the comparison across all oriented sequences is refused above this many
# operations (factorial blowup)
MAX_CROSS_SEQUENCE_OPS = 4


@dataclass(frozen=True)
class OrientedOperationSequence:
    """A total order on the operation identifiers."""

    order: tuple[str, ...]

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


@dataclass(frozen=True)
class NormalityEvidence:
    ok: bool
    witness: tuple[str, Element, Element, Element] | None = None  # op, g, h, conjugate

    def __bool__(self) -> bool:
        return self.ok


def _normalised(ms: MultiGroupSpace, members: int, ops: tuple[str, ...],
                carriers: tuple[int, ...]) -> bool:
    """Whether each op's carrier conjugates the members inside it onto
    themselves. The space is valid, so the elements that do form a group,
    and the generators its lattice keeps for the carrier suffice."""
    return all(_normalises(ms._tables[k], x, _bits(members & carriers[k]))
               for k in map(ms.op_set.index, ops) for x in ms._lattices[k][carriers[k]])


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
        k = ms.groups.index(ms.group_of(op))
        g, t = ms.groups[k], ms._tables[k]
        inside = _bits(members & ms._carriers[k])
        for x in g.carrier:
            xi, row = ms.index(g.inverse(x)), t[ms.index(x)]
            for m in inside:
                conjugate = t[row[m]][xi]
                if conjugate == n and row[m] != n:
                    g.index(u[row[m]])  # x * m left the carrier: DomainError
                if not ok >> conjugate & 1:
                    return NormalityEvidence(False, (op, x, u[m], u[conjugate]))
    return NormalityEvidence(True)


def normality_criterion(ms: MultiGroupSpace, h: SubsetRef) -> bool:
    """Criterion route: every canonical decomposition part is a normal
    subgroup of its component group."""
    decomp = subspace_decomposition(ms, h)
    if decomp is None:
        raise PreconditionError("normality requires a subspace")
    return all(is_normal_subgroup(ms.group_of(op), part)
               for op, part in decomp.items())


@dataclass(frozen=True)
class NormalSeries:
    """A descending chain of subspaces with the operation that drove each step."""

    chain: tuple[SubsetRef, ...]
    step_ops: tuple[str, ...]
    anomalies: tuple[str, ...] = ()

    @property
    def length(self) -> int:
        return len(self.chain) - 1

    def element_chain(self) -> tuple[tuple[Element, ...], ...]:
        return tuple(link.elements for link in self.chain)


def _check_preconditions(ms: MultiGroupSpace, limits: Limits) -> None:
    worst = max((g.order for g in ms.groups), default=0)
    if worst > limits.max_group_order:
        raise BoundExceeded(
            f"series construction bounded at group order {limits.max_group_order}, "
            f"got {worst}", limits.max_group_order)
    if not ms._validation.ok:
        raise PreconditionError(
            "series construction requires a valid multi-group space")


def _induced(ms: MultiGroupSpace, carriers: tuple[int, ...], mask: int,
             limits: Limits, normal=True):
    """The carriers of the space induced on mask inside the space with the
    given carriers (mask's decomposition parts there, 0 for a lost
    operation), or None if mask is no subspace there, or no normal one. It
    retains the operations whose carrier meets mask, as SubsetRef.of does.
    The space is valid, so the closed sets subspaces._parts would cover mask
    with are lattice members: the same parts, cached under a key of their own."""
    ops = tuple(op for op, carrier in zip(ms.op_set, carriers) if mask & carrier)
    key = "lattice", mask, ops, carriers
    if key not in ms._decompositions:
        ms._decompositions[key] = _decomposition(
            ms, mask, ops, carriers, partial(_lattice_part_candidates, limits=limits))
    parts = ms._decompositions[key]
    if parts is None or normal and not _normalised(ms, mask, ops, carriers):
        return None
    return tuple(parts.get(op, 0) for op in ms.op_set)


def _link_carriers(ms: MultiGroupSpace, carriers: tuple[int, ...], link: int,
                   limits: Limits):
    """The carriers of the space induced on a link, which must be a normal
    subspace of its parent, the space with the given carriers."""
    for normal, relation in (False, "a subspace of"), (True, "normal in"):
        if (inner := _induced(ms, carriers, link, limits, normal)) is None:
            raise InternalConsistencyError(
                f"constructed link {ms._elements(link)!r} is not {relation} its parent")
    return inner


def _series_stages(ms: MultiGroupSpace, seq: OrientedOperationSequence,
                   limits: Limits, branch: bool):
    """Generate (chain, step_ops, anomalies, spaces) from the staged programming,
    where chain holds universe bitmasks and spaces[i] is the carrier tuple of
    the space induced on chain[i].

    With branch=False only the canonically smallest maximal proper normal
    subgroup is taken at each step (the single-witness mode); with
    branch=True every choice is explored.
    """
    whole = (1 << len(ms.universe)) - 1
    if _induced(ms, ms._carriers, whole, limits, normal=False) is None:
        raise PreconditionError("the whole space must validate as a subspace")

    def stages(spaces, current, chain, steps, anomalies, op_index):
        if op_index == len(seq.order):
            yield chain, steps, anomalies, spaces
            return
        op = seq.order[op_index]
        k = ms.op_set.index(op)
        part = spaces[-1][k]  # op's carrier in the space induced on current
        if not part:
            note = f"{ANOMALY_CARRIER_LOST}:{op}"
            yield from stages(spaces, current, chain,
                              steps, anomalies + [note], op_index + 1)
            return

        def descend(spaces, current, part, chain, steps, anomalies):
            if part.bit_count() == 1:
                yield from stages(spaces, current, chain, steps,
                                  anomalies, op_index + 1)
                return
            lattice = ms._lattice(k, limits)
            if ("choices", k, part) not in ms._walk:  # normality by generators of part
                ms._walk["choices", k, part] = sorted(_maximal(_proper_normal(
                    ms._tables[k], lattice, part, lattice[part])), key=_bits)
            choices = ms._walk["choices", k, part]
            if not branch:
                choices = choices[:1]
            for nxt in choices:
                link = current & ~part | nxt
                yield from descend(spaces + [_link_carriers(ms, spaces[-1], link, limits)],
                                   link, nxt, chain + [link], steps + [op], anomalies)

        yield from descend(spaces, current, part, chain, steps, anomalies)

    yield from stages([ms._carriers], whole, [whole], [], [], 0)


def _finish_series(ms: MultiGroupSpace, seq: OrientedOperationSequence,
                   chain, steps, anomalies) -> NormalSeries:
    for m in chain:  # each distinct link is named once per space
        if ("ref", m) not in ms._walk:
            ms._walk["ref", m] = SubsetRef.of(ms, ms._elements(m))
    chain = [ms._walk["ref", m] for m in chain]
    last_identity = ms.group_of(seq.order[-1]).identity
    terminal = chain[-1].elements
    if set(terminal) != {last_identity}:
        anomalies = anomalies + [
            f"{ANOMALY_TERMINAL_MISMATCH}: terminal {{{', '.join(terminal)}}} "
            f"!= {{{last_identity}}}"]
    return NormalSeries(tuple(chain), tuple(steps), tuple(anomalies))


def build_series(ms: MultiGroupSpace, seq: OrientedOperationSequence | None = None,
                 limits: Limits = DEFAULT_LIMITS) -> NormalSeries:
    """Single-witness staged construction under an oriented sequence.

    Ties among maximal proper normal subgroups break to the canonically
    smallest, so the result is deterministic.
    """
    seq = seq if seq is not None else OrientedOperationSequence.of(ms)
    _check_preconditions(ms, limits)
    chain, steps, anomalies, _ = next(_series_stages(ms, seq, limits, branch=False))
    return _finish_series(ms, seq, chain, steps, anomalies)


def _candidates_between(ms: MultiGroupSpace, carriers: tuple[int, ...],
                        low: int, limits: Limits) -> list[int]:
    """The unions of one subgroup (or nothing) per operation strictly between
    low and the space with the given carriers, by size and then by the gap
    positions taken. Each carrier is a subgroup of a group of ms, so its
    subgroups are the lattice members of ms inside it."""
    unions = {0}
    for k, carrier in enumerate(carriers):
        parts = [m for m in ms._lattice(k, limits) if not m & ~carrier]
        unions |= {u | p for u in unions for p in parts}
    whole = reduce(or_, carriers)
    between = [m for m in unions if m & low == low and m not in (low, whole)]
    return sorted(between, key=lambda m: (m.bit_count(), _bits(m & ~low)))


def _interposable(ms: MultiGroupSpace, carriers: tuple[int, ...],
                  lower: int, limits: Limits) -> int | None:
    """The first normal subspace strictly between a link and its parent, the
    space with the given carriers, in which the link is normal, or None.

    The candidates are the unions of lattice members between link and
    parent: every subspace between them is one, as a subspace is a union of
    one subgroup (or nothing) per operation. They come in the order of a
    scan over all 2^|gap| subsets, so the witness is the one it finds.
    The verdict depends on the edge (carriers, lower) alone: kept per space.
    """
    if ("edge", carriers, lower) not in ms._walk:
        ms._walk["edge", carriers, lower] = next(
            (mid for mid in _candidates_between(ms, carriers, lower, limits)
             if (inner := _induced(ms, carriers, mid, limits)) is not None
             and _induced(ms, inner, lower, limits) is not None), None)
    return ms._walk["edge", carriers, lower]


@dataclass(frozen=True)
class MaximalSeriesResult:
    sequence: OrientedOperationSequence
    series: tuple[NormalSeries, ...]
    rejected: tuple[tuple[NormalSeries, str], ...] = ()

    @property
    def lengths(self) -> tuple[int, ...]:
        return tuple(s.length for s in self.series)


def enumerate_maximal_series(ms: MultiGroupSpace,
                             seq: OrientedOperationSequence | None = None,
                             limits: Limits = DEFAULT_LIMITS) -> MaximalSeriesResult:
    """All staged series with no normal subspace interposable between links.

    Every branching choice of maximal proper normal subgroup is explored;
    each produced chain is then re-checked link by link with the
    interposition search, which is exhaustive although it tries only unions
    of subgroups: every subspace between two links is such a union (see
    _interposable). Chains that fail it are returned separately, never
    silently dropped or silently kept. Results are cached on the space per
    (order, limits), so mgs maximal-series enumerates each ordering once; a
    construction that raises is not cached.
    """
    seq = seq if seq is not None else OrientedOperationSequence.of(ms)
    if len(ms.universe) > limits.max_exhaustive_universe:
        raise BoundExceeded(
            f"exhaustive series enumeration bounded at universe size "
            f"{limits.max_exhaustive_universe}, got {len(ms.universe)}; "
            f"use build_series for a single witness", limits.max_exhaustive_universe)
    _check_preconditions(ms, limits)
    key = (seq.order, limits)
    if key not in ms._maximal_series:
        ms._maximal_series[key] = _enumerate_maximal_series(ms, seq, limits)
    return ms._maximal_series[key]


def _enumerate_maximal_series(ms: MultiGroupSpace, seq: OrientedOperationSequence,
                              limits: Limits) -> MaximalSeriesResult:
    accepted: list[NormalSeries] = []
    rejected: list[tuple[NormalSeries, str]] = []
    seen: set[tuple] = set()
    for chain, steps, anomalies, spaces in _series_stages(ms, seq, limits, branch=True):
        if tuple(chain) in seen:
            continue
        seen.add(tuple(chain))
        series = _finish_series(ms, seq, chain, steps, anomalies)
        reason = None
        for upper, lower, carriers in zip(series.chain, chain[1:], spaces):
            witness = _interposable(ms, carriers, lower, limits)
            if witness is not None:
                reason = (f"{ANOMALY_REJECTED_STEP}: {{{', '.join(ms._elements(witness))}}} "
                          f"interposes below {{{', '.join(upper.elements)}}}")
                break
        if reason is None:
            accepted.append(series)
        else:
            rejected.append((series, reason))
    return MaximalSeriesResult(seq, tuple(accepted), tuple(rejected))


@dataclass(frozen=True)
class SequenceLengths:
    order: tuple[str, ...]
    lengths: tuple[int, ...]
    constant: int | None            # the common length, when one exists
    series_count: int
    anomalies: tuple[str, ...]


@dataclass(frozen=True)
class LengthInvariance:
    per_sequence: tuple[SequenceLengths, ...]
    within_each_ok: bool
    cross_sequence_constant: bool | None
    counterexample: tuple[NormalSeries, NormalSeries] | None = None

    @property
    def ok(self) -> bool:
        return self.within_each_ok


def length_invariance_check(ms: MultiGroupSpace,
                            seq: OrientedOperationSequence | None = None,
                            limits: Limits = DEFAULT_LIMITS,
                            across_sequences: bool = True) -> LengthInvariance:
    """Empirical length-invariance verdict for one or all oriented sequences.

    Within a fixed sequence all maximal series must share one length; the
    comparison across different sequences is reported, not asserted, since
    its status is exactly what the construction leaves open. Comparing all
    sequences is refused above MAX_CROSS_SEQUENCE_OPS operations.
    """
    orders: list[tuple[str, ...]]
    if seq is not None:
        orders = [seq.order]
    elif across_sequences:
        if len(ms.op_set) > MAX_CROSS_SEQUENCE_OPS:
            raise BoundExceeded(
                f"cross-sequence comparison bounded at {MAX_CROSS_SEQUENCE_OPS} "
                f"operations, got {len(ms.op_set)}", MAX_CROSS_SEQUENCE_OPS)
        orders = [tuple(p) for p in permutations(ms.op_set)]
    else:
        orders = [ms.op_set]

    stats: list[SequenceLengths] = []
    counterexample = None
    for order in orders:
        try:
            result = enumerate_maximal_series(
                ms, OrientedOperationSequence.of(ms, order), limits)
        except InternalConsistencyError as exc:
            # an ordering whose staged construction breaks down is a fact
            # about the space, reported alongside the orderings that work
            stats.append(SequenceLengths(order, (), None, 0,
                                         (f"CONSTRUCTION_FAILED: {exc}",)))
            continue
        lengths = result.lengths
        distinct = sorted(set(lengths))
        constant = distinct[0] if len(distinct) == 1 else None
        anomalies = tuple(dict.fromkeys(
            a for s in result.series for a in s.anomalies))
        if constant is None and len(distinct) > 1 and counterexample is None:
            by_len = {s.length: s for s in result.series}
            counterexample = (by_len[distinct[0]], by_len[distinct[-1]])
        stats.append(SequenceLengths(order, lengths, constant,
                                     len(result.series), anomalies))

    within = all(s.constant is not None for s in stats if s.series_count > 0)
    constants = {s.constant for s in stats if s.series_count > 0}
    cross = None
    if all(s.series_count > 0 for s in stats) and within:
        cross = len(constants) == 1
    return LengthInvariance(tuple(stats), within, cross, counterexample)
