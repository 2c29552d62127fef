"""Multi-group spaces: a universe carrying several partial group operations.

A product a *_i b is defined exactly when both operands lie in the carrier
of operation i. The validation here checks, per unordered pair of distinct
operations, that at least one of the two distributes over the other on
every triple whose intermediate products are all defined; a law with no
fully defined triple holds vacuously. Every product lookup of the space
layer reads that rule from one place, the int tables MultiGroupSpace._tables.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations
from operator import itemgetter

from .errors import DomainError, PreconditionError
from .groups import Element, FiniteGroup, _bits, subgroups, validate_group
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
        every product with it, so t[x][t[y][z]] is undefined as soon as any
        product on the way is. The distribution scan, the raw reading, cosets,
        the one-step span, the conjugation scan and the completeness route
        read it, and so does the series walk inside every induced space.
        Precondition: every carrier element and product lies in the
        universe. The parser and the catalog ensure it, and validation
        scans distribution only without structural violations; a product
        outside the universe makes building the tables raise DomainError.
        """
        n, u = len(self.universe), self.universe
        cols = [[g._index.get(b) for b in u] for g in self.groups]  # None: not in g
        return tuple([[n if i is None or k is None else self.index(g.table[i][k])
                       for k in c] + [n] for i in c] + [[n] * (n + 1)]
                     for g, c in zip(self.groups, cols))

    def _table(self, op_id: str) -> list[list[int]]:
        return self._tables[self.groups.index(self.group_of(op_id))]

    @cached_property
    def _carriers(self) -> tuple[int, ...]:
        """One universe bitmask per operation, read from its carrier through
        _index, so it exists even where _tables raises. A carrier element
        outside the universe is left out."""
        return tuple(sum(1 << self._index[e] for e in g.carrier if e in self._index)
                     for g in self.groups)

    def _carrier(self, op_id: str) -> int:
        return self._carriers[self.groups.index(self.group_of(op_id))]

    def _mask(self, elements) -> int:
        return sum(1 << i for i in {self.index(e) for e in elements})

    def _elements(self, mask: int) -> tuple[Element, ...]:
        """The members of a universe bitmask in universe order; the bit of
        the undefined product, len(universe), is dropped."""
        n = len(self.universe)
        return tuple(self.universe[i] for i in _bits(mask) if i < n)

    @cached_property
    def _decompositions(self) -> dict:
        # subspaces._parts results by (universe bitmask, retained ops, carriers)
        return {}

    @cached_property
    def _lattices(self) -> dict:
        # by group index: _lattice
        return {}

    def _lattice(self, k: int, limits) -> dict[int, list[int]]:
        """groups[k]'s lattice over universe indices: each subgroup as a
        bitmask, in lattice order, with the indices of its generators."""
        subgroups(self.groups[k], limits)  # refuses a group above the bound
        if k not in self._lattices:
            at = [self.index(e) for e in self.groups[k].carrier]
            self._lattices[k] = {sum(1 << at[i] for i in _bits(m)): [at[i] for i in gens]
                                 for m, gens in self.groups[k]._lattice.items()}
        return self._lattices[k]

    @cached_property
    def _walk(self) -> dict:
        # series memo, by tagged key: descend's ("choices", group index, part),
        # interposition verdicts by ("edge", parent carriers, link), SubsetRefs
        # by ("ref", link bitmask)
        return {}

    @cached_property
    def _maximal_series(self) -> dict:
        # series.enumerate_maximal_series results by (order, limits)
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


def ops_of_element(ms: MultiGroupSpace, element: Element) -> tuple[str, ...]:
    """The operations defined at the element, in operation-set order."""
    ms.index(element)
    return tuple(op for op in ms.op_set if element in ms.group_of(op))


def is_complete(ms: MultiGroupSpace, subset, op_id: str) -> bool:
    """Closure of the partial operation restricted to the subset.

    True iff every defined product of two subset members lands back in the
    subset. Members outside the universe lie in no carrier and are ignored.
    """
    t, sub = ms._table(op_id), ms._mask(e for e in subset if e in ms._index)
    ok, members = sub | 1 << len(ms.universe), _bits(sub)  # undefined is fine
    return all(ok >> t[a][b] & 1 for a in members for b in members)


@dataclass(frozen=True)
class LawCheck:
    """One direction of the distribution check: distributor over other."""

    distributor: str
    other: str
    holds: bool
    vacuous: bool
    tested: int
    witnesses: tuple[tuple[Element, Element, Element], ...]


def _getter(indices):
    """itemgetter over the indices that returns a tuple of at least two
    entries: one index is doubled, where itemgetter would return a scalar."""
    return itemgetter(*indices) if len(indices) > 1 else \
        itemgetter(indices[0], indices[0])


def _check_one_direction(ms: MultiGroupSpace, times: str, circ: str) -> LawCheck:
    """Test x*(y o z) = (x*y) o (x*z) and its right-hand mirror.

    Only triples with every intermediate product defined count; a triple
    with any undefined product is skipped entirely. A law is tested exactly
    when both of its sides are defined, and that depends on carriers alone:
    x lies in the * carrier, y and z in both, y o z in the * carrier, and
    x*y, x*z (left law) or y*x, z*x (right law) in the o carrier. So
    `tested` is a bit count of two z-bitmasks per (x, y). The comparison
    builds both sides of each law for every z at once, as tuples over rows
    of the space's int tables, and only an (x, y) whose tuples differ is
    walked z by z. Witnesses come in (x, y, z) order, and the walk stops
    once MAX_DISTRIBUTION_WITNESSES are found; the count does not.
    """
    t, c, u = ms._table(times), ms._table(circ), ms.universe
    n = len(u)
    t_mask, in_c = ms._carrier(times), ms._carrier(circ)
    in_t = _bits(t_mask)
    both = [i for i in in_t if in_c >> i & 1]
    cols = [list(col) for col in zip(*t)]  # cols[x][y] = t[y][x]
    # per y: the z where y o z is defined and lies in the * carrier
    per_y = []
    for y in both:
        zs = [z for z in both if t_mask >> c[y][z] & 1]
        if zs:
            per_y.append((y, zs, sum(1 << z for z in zs),
                          _getter(zs), _getter([c[y][z] for z in zs])))
    tested = 0
    witnesses: list[tuple[Element, Element, Element]] = []
    for x in in_t:
        tx, cx = t[x], cols[x]
        x_left = sum(1 << z for z in both if in_c >> tx[z] & 1)    # x*z in o
        x_right = sum(1 << z for z in both if in_c >> cx[z] & 1)  # z*x in o
        for y, zs, z_mask, at_z, at_yz in per_y:
            xy, yx = tx[y], cx[y]
            left = in_c >> xy & 1
            right = in_c >> yx & 1
            tested += left * (z_mask & x_left).bit_count() + \
                right * (z_mask & x_right).bit_count()
            if len(witnesses) == MAX_DISTRIBUTION_WITNESSES:
                continue
            failed = set()
            # x*(y o z) against (x*y) o (x*z), then (y o z)*x against (y*x) o (z*x)
            for ok, row, product in ((left, tx, xy), (right, cx, yx)):
                if not ok:
                    continue
                lhs = at_yz(row)
                rhs = itemgetter(*at_z(row))(c[product])
                if lhs != rhs:
                    failed.update(z for z, a, b in zip(zs, lhs, rhs)
                                  if b != n and a != b)
            for z in sorted(failed)[:MAX_DISTRIBUTION_WITNESSES - len(witnesses)]:
                witnesses.append((u[x], u[y], u[z]))
    return LawCheck(times, circ, holds=not witnesses, vacuous=tested == 0,
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
