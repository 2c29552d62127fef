"""Multi-group spaces: a universe carrying several partial group operations.

A product a *_i b is defined exactly when both operands lie in the carrier
of operation i. The validation here checks, per unordered pair of distinct
operations, that at least one of the two distributes over the other on
every triple whose intermediate products are all defined; a law with no
fully defined triple holds vacuously.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations

from .errors import DomainError, PreconditionError
from .groups import Element, FiniteGroup, validate_group
from .report import DISTRIBUTION, STRUCTURAL, ValidationReport

# at most this many witness triples are kept per operation pair
MAX_DISTRIBUTION_WITNESSES = 10


@dataclass(frozen=True)
class MultiGroupSpace:
    universe: tuple[Element, ...]
    groups: tuple[FiniteGroup, ...]

    def __post_init__(self):
        if len(set(self.universe)) != len(self.universe):
            raise ValueError("duplicate element in universe")

    @property
    def op_set(self) -> tuple[str, ...]:
        return tuple(g.op_id for g in self.groups)

    @cached_property
    def _by_op(self) -> dict[str, FiniteGroup]:
        # first wins on duplicate ids; validate_multigroup flags the duplicate
        out: dict[str, FiniteGroup] = {}
        for g in self.groups:
            out.setdefault(g.op_id, g)
        return out

    @cached_property
    def _index(self) -> dict[Element, int]:
        return {e: i for i, e in enumerate(self.universe)}

    def index(self, element: Element) -> int:
        try:
            return self._index[element]
        except KeyError:
            raise DomainError(f"{element!r} is not in the universe") from None

    @cached_property
    def _tables(self) -> tuple[list[list[int]], ...]:
        """One int table per operation over universe indices.

        Index len(universe) stands for an undefined product and absorbs
        every product with it, like an escape in FiniteGroup._ints.
        """
        n, u = len(self.universe), self.universe
        return tuple([[self.index(g.mul(a, b)) if a in g and b in g else n
                       for b in u] + [n] for a in u] + [[n] * (n + 1)]
                     for g in self.groups)

    @cached_property
    def _decompositions(self) -> dict:
        # subspaces.subspace_decomposition results by SubsetRef
        return {}

    @cached_property
    def _validation(self) -> ValidationReport:
        # the space is frozen, so it is validated once; callers get copies
        return _validate(self)

    def group_of(self, op_id: str) -> FiniteGroup:
        try:
            return self._by_op[op_id]
        except KeyError:
            raise DomainError(f"unknown operation {op_id!r}") from None

    def defined(self, op_id: str, a: Element, b: Element) -> bool:
        g = self.group_of(op_id)
        return a in g and b in g

    def product(self, op_id: str, a: Element, b: Element) -> Element | None:
        """The partial product, or None when it is undefined."""
        g = self.group_of(op_id)
        if a in g and b in g:
            return g.mul(a, b)
        return None

    def sorted_elements(self, elements) -> tuple[Element, ...]:
        return tuple(sorted(elements, key=self.index))

    def sort_key(self, elements) -> tuple[int, ...]:
        return tuple(sorted(self.index(e) for e in elements))


def ops_of_element(ms: MultiGroupSpace, element: Element) -> tuple[str, ...]:
    """The operations defined at the element, in operation-set order."""
    ms.index(element)
    return tuple(op for op in ms.op_set if element in ms.group_of(op))


def is_complete(ms: MultiGroupSpace, subset, op_id: str) -> bool:
    """Closure of the partial operation restricted to the subset.

    True iff every defined product of two subset members lands back in the
    subset.
    """
    g = ms.group_of(op_id)
    sub = set(subset)
    inside = [e for e in sub if e in g]
    return all(g.mul(a, b) in sub for a in inside for b in inside)


@dataclass(frozen=True)
class LawCheck:
    """One direction of the distribution check: distributor over other."""

    distributor: str
    other: str
    holds: bool
    vacuous: bool
    tested: int
    witnesses: tuple[tuple[Element, Element, Element], ...]


def _check_one_direction(ms: MultiGroupSpace, times: str, circ: str) -> LawCheck:
    """Test x*(y o z) = (x*y) o (x*z) and its right-hand mirror.

    Only triples with every intermediate product defined count; a triple
    with any undefined product is skipped entirely.
    """
    gt = ms.group_of(times)
    gc = ms.group_of(circ)
    tested = 0
    witnesses: list[tuple[Element, Element, Element]] = []
    failed = False

    def witness(x, y, z):
        nonlocal failed
        failed = True
        if (x, y, z) not in witnesses and len(witnesses) < MAX_DISTRIBUTION_WITNESSES:
            witnesses.append((x, y, z))

    for x in ms.universe:
        for y in ms.universe:
            for z in ms.universe:
                if not (y in gc and z in gc):
                    continue
                yz = gc.mul(y, z)
                if not (x in gt and yz in gt and y in gt and z in gt):
                    continue
                # left law: x*(y o z) = (x*y) o (x*z)
                xy, xz = gt.mul(x, y), gt.mul(x, z)
                if xy in gc and xz in gc:
                    tested += 1
                    if gt.mul(x, yz) != gc.mul(xy, xz):
                        witness(x, y, z)
                # right law: (y o z)*x = (y*x) o (z*x)
                yx, zx = gt.mul(y, x), gt.mul(z, x)
                if yx in gc and zx in gc:
                    tested += 1
                    if gt.mul(yz, x) != gc.mul(yx, zx):
                        witness(x, y, z)
    return LawCheck(times, circ, holds=not failed, vacuous=tested == 0,
                    tested=tested, witnesses=tuple(witnesses))


@dataclass(frozen=True)
class DistributionCheck:
    op_a: str
    op_b: str
    a_over_b: LawCheck
    b_over_a: LawCheck

    @property
    def ok(self) -> bool:
        # one distributing operation per pair suffices
        return self.a_over_b.holds or self.b_over_a.holds

    @property
    def vacuous(self) -> bool:
        return self.a_over_b.vacuous and self.b_over_a.vacuous


def check_distribution(ms: MultiGroupSpace, op_a: str, op_b: str) -> DistributionCheck:
    """Per-pair distribution: at least one operation must distribute over
    the other, in both the left and right law, wherever products exist."""
    if op_a == op_b:
        raise DomainError("distribution check needs two distinct operations")
    return DistributionCheck(op_a, op_b,
                             _check_one_direction(ms, op_a, op_b),
                             _check_one_direction(ms, op_b, op_a))


def validate_multigroup(ms: MultiGroupSpace) -> ValidationReport:
    """Full validity check: structure, per-group axioms, pairwise distribution.

    Structural problems (orphan universe elements, duplicate operation ids,
    carrier elements outside the universe) are reported separately from
    axiom and distribution failures. The check runs once per space; each
    call returns a fresh copy of the report, so mutating it changes nothing
    later.
    """
    cached = ms._validation
    return ValidationReport(list(cached.violations), list(cached.notes))


def _validate(ms: MultiGroupSpace) -> ValidationReport:
    report = ValidationReport()
    universe = set(ms.universe)

    seen_ops: set[str] = set()
    for g in ms.groups:
        if g.op_id in seen_ops:
            report.add(STRUCTURAL, "duplicate-op",
                       f"operation id {g.op_id!r} declared twice", (g.op_id,))
        seen_ops.add(g.op_id)
        outside = [e for e in g.carrier if e not in universe]
        if outside:
            report.add(STRUCTURAL, "carrier-outside-universe",
                       f"carrier of {g.op_id!r} contains {outside[0]!r} "
                       f"which is not in the universe",
                       (g.op_id,), (outside[0],))

    covered = set()
    for g in ms.groups:
        covered.update(g.carrier)
    orphans = [e for e in ms.universe if e not in covered]
    if orphans:
        report.add(STRUCTURAL, "orphan-element",
                   f"universe element {orphans[0]!r} belongs to no carrier",
                   (), tuple(orphans))

    for g in ms.groups:
        report.merge(validate_group(g, universe))

    if not report.structural():
        for ga, gb in combinations(ms.groups, 2):
            check = check_distribution(ms, ga.op_id, gb.op_id)
            if check.vacuous:
                report.note(
                    f"distribution for ({ga.op_id}, {gb.op_id}) holds vacuously: "
                    f"no fully defined mixed triple")
            if not check.ok:
                merged = list(dict.fromkeys(check.a_over_b.witnesses
                                            + check.b_over_a.witnesses))
                for w in merged[:MAX_DISTRIBUTION_WITNESSES]:
                    report.add(DISTRIBUTION, "distribution",
                               f"neither {ga.op_id!r} nor {gb.op_id!r} distributes "
                               f"over the other at ({', '.join(w)})",
                               (ga.op_id, gb.op_id), w)
    return report


# carrier conventions recognised by the body/field classification
CONVENTION_EXACT = "exact"
CONVENTION_IDENTITY_EXCLUDED = "identity-excluded"


@dataclass(frozen=True)
class Classification:
    tag: str                      # group | body | field | general
    convention: str | None = None
    notes: tuple[str, ...] = ()


def classify_special_case(ms: MultiGroupSpace) -> Classification:
    """Name the classical structure a valid space degenerates to.

    One operation is a plain group. With two operations the space is a body
    when both carriers fill the universe, either exactly or up to the usual
    convention that one carrier omits the other operation's identity (the
    multiplicative group of a field); commutativity of both groups upgrades
    a body to a field. Everything else is tagged general.
    """
    if not ms._validation.ok:
        raise PreconditionError("classification requires a valid multi-group space")
    if len(ms.groups) == 1:
        return Classification("group")
    if len(ms.groups) == 2:
        g1, g2 = ms.groups
        u = set(ms.universe)
        c1, c2 = set(g1.carrier), set(g2.carrier)
        convention = None
        if c1 == u and c2 == u:
            convention = CONVENTION_EXACT
        elif c1 == u and c2 == u - {g1.identity}:
            convention = CONVENTION_IDENTITY_EXCLUDED
        elif c2 == u and c1 == u - {g2.identity}:
            convention = CONVENTION_IDENTITY_EXCLUDED
        if convention is not None:
            if g1.is_abelian and g2.is_abelian:
                return Classification("field", convention)
            return Classification("body", convention)
    return Classification("general")
