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
identity (flagged TERMINAL_MISMATCH).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

from .config import DEFAULT_LIMITS, Limits
from .errors import (BoundExceeded, DomainError, InternalConsistencyError,
                     PreconditionError)
from .groups import (Element, _bits, is_normal_subgroup,
                     maximal_proper_normal_subgroups, subgroups)
from .spaces import MultiGroupSpace
from .subspaces import (SubsetRef, induced_space, is_subspace,
                        subspace_decomposition)

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


def is_normal_subspace(ms: MultiGroupSpace, h: SubsetRef) -> NormalityEvidence:
    """Conjugation route: g * h' * g^-1 stays inside for every retained op.

    h' ranges over the subset's intersection with the op's carrier and g
    over the whole carrier; membership of the conjugate is tested against
    the subset itself.
    """
    if not is_subspace(ms, h):
        raise PreconditionError("normality requires a subspace")
    members = set(h.elements)
    for op in h.retained_ops:
        g = ms.group_of(op)
        inside = [e for e in h.elements if e in g]
        for x in g.carrier:
            xi = g.inverse(x)
            for member in inside:
                conjugate = g.mul(g.mul(x, member), xi)
                if conjugate not in members:
                    return NormalityEvidence(False, (op, x, member, conjugate))
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


def _validate_link(parent_space: MultiGroupSpace, elements) -> SubsetRef:
    """A link must be a normal subspace of the space induced on its parent."""
    ref = SubsetRef.of(parent_space, elements)
    if not is_subspace(parent_space, ref):
        raise InternalConsistencyError(
            f"constructed link {tuple(elements)!r} is not a subspace of its parent")
    if not is_normal_subspace(parent_space, ref):
        raise InternalConsistencyError(
            f"constructed link {tuple(elements)!r} is not normal in its parent")
    return ref


def _series_stages(ms: MultiGroupSpace, seq: OrientedOperationSequence,
                   limits: Limits, branch: bool):
    """Generate (chain, step_ops, anomalies) triples from the staged programming.

    With branch=False only the canonically smallest maximal proper normal
    subgroup is taken at each step (the single-witness mode); with
    branch=True every choice is explored.
    """
    whole = SubsetRef.of(ms, ms.universe)
    if not is_subspace(ms, whole):
        raise PreconditionError("the whole space must validate as a subspace")

    def stages(parent_space, current, chain, steps, anomalies, op_index):
        if op_index == len(seq.order):
            yield chain, steps, anomalies
            return
        op = seq.order[op_index]
        decomp = subspace_decomposition(ms, current)
        if op not in decomp:
            note = f"{ANOMALY_CARRIER_LOST}:{op}"
            yield from stages(parent_space, current, chain,
                              steps, anomalies + [note], op_index + 1)
            return
        part = decomp[op]

        def descend(parent_space, current, part, chain, steps, anomalies):
            if len(part) == 1:
                yield from stages(parent_space, current, chain, steps,
                                  anomalies, op_index + 1)
                return
            part_group = ms.group_of(op).restrict(part)
            choices = sorted(maximal_proper_normal_subgroups(part_group, limits),
                             key=ms.sort_key)
            if not branch:
                choices = choices[:1]
            for nxt in choices:
                removed = set(part) - set(nxt)
                new_elements = [e for e in current.elements if e not in removed]
                link = _validate_link(parent_space, new_elements)
                new_current = SubsetRef.of(ms, new_elements)
                new_space = induced_space(parent_space, link)
                yield from descend(new_space, new_current, nxt,
                                   chain + [new_current], steps + [op], anomalies)

        yield from descend(parent_space, current, part, chain, steps, anomalies)

    yield from stages(ms, whole, [whole], [], [], 0)


def _finish_series(ms: MultiGroupSpace, seq: OrientedOperationSequence,
                   chain, steps, anomalies) -> NormalSeries:
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
    chain, steps, anomalies = next(_series_stages(ms, seq, limits, branch=False))
    return _finish_series(ms, seq, chain, steps, anomalies)


def _candidates_between(upper_space: MultiGroupSpace, lower: SubsetRef,
                        limits: Limits):
    """The unions of one subgroup (or nothing) per operation, as universe
    bitmasks, strictly between lower and the whole space, in the order of
    the scan over the gap: by size, then by the gap positions taken."""
    index = upper_space.index
    low = sum(1 << index(e) for e in lower.elements)
    unions = {0}
    for g in upper_space.groups:
        parts = [sum(1 << index(e) for e in s) for s in subgroups(g, limits)]
        unions |= {u | p for u in unions for p in parts}
    whole = (1 << len(upper_space.universe)) - 1
    between = [m for m in unions if m & low == low and m not in (low, whole)]
    for m in sorted(between, key=lambda m: (m.bit_count(), _bits(m & ~low))):
        yield [upper_space.universe[i] for i in _bits(m)]


def _interposable(ms: MultiGroupSpace, upper_space: MultiGroupSpace,
                  lower: SubsetRef, limits: Limits) -> tuple[Element, ...] | None:
    """Search for a normal subspace strictly between a link and its parent.

    Returns the witness subset if one interposes, else None. The candidates
    are the unions of lattice members between link and parent: complete,
    since a subspace is a union of one subgroup (or nothing) per operation
    and every group here is finite, so every subspace between them is one.
    Each is decided by the usual subspace and normality checks, in the order
    of a scan over all 2^|gap| subsets, so the first witness is the one that
    scan finds. GF(11) has at most 15 such unions where its first gap has
    1,024 subsets.
    """
    for elems in _candidates_between(upper_space, lower, limits):
        mid = SubsetRef.of(upper_space, elems)
        if not is_subspace(upper_space, mid):
            continue
        if not is_normal_subspace(upper_space, mid):
            continue
        mid_space = induced_space(upper_space, mid)
        low_in_mid = SubsetRef.of(mid_space, lower.elements)
        if is_subspace(mid_space, low_in_mid) and \
                is_normal_subspace(mid_space, low_in_mid):
            return tuple(sorted(elems, key=ms.index))
    return None


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
    silently dropped or silently kept.
    """
    seq = seq if seq is not None else OrientedOperationSequence.of(ms)
    if len(ms.universe) > limits.max_exhaustive_universe:
        raise BoundExceeded(
            f"exhaustive series enumeration bounded at universe size "
            f"{limits.max_exhaustive_universe}, got {len(ms.universe)}; "
            f"use build_series for a single witness", limits.max_exhaustive_universe)
    _check_preconditions(ms, limits)

    accepted: list[NormalSeries] = []
    rejected: list[tuple[NormalSeries, str]] = []
    seen: set[tuple] = set()
    for chain, steps, anomalies in _series_stages(ms, seq, limits, branch=True):
        series = _finish_series(ms, seq, chain, steps, anomalies)
        key = series.element_chain()
        if key in seen:
            continue
        seen.add(key)
        reason = None
        parent_space = ms
        for upper, lower in zip(series.chain, series.chain[1:]):
            witness = _interposable(ms, parent_space, lower, limits)
            if witness is not None:
                reason = (f"{ANOMALY_REJECTED_STEP}: {{{', '.join(witness)}}} "
                          f"interposes below {{{', '.join(upper.elements)}}}")
                break
            parent_space = induced_space(parent_space,
                                         SubsetRef.of(parent_space, lower.elements))
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
