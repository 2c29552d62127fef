"""Finite groups as explicit Cayley tables over named elements.

Elements are opaque string tokens; equality is by token. A FiniteGroup is
immutable after construction and structurally permissive: the constructor
checks only table shape, while validate_group() reports every violated
group axiom with a concrete witness. All enumeration output is ordered by
first appearance in the carrier so reports and golden files are stable.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .config import DEFAULT_LIMITS, Limits
from .errors import BoundExceeded, DomainError, PreconditionError
from .report import AXIOM, STRUCTURAL, ValidationReport

# an element is just its id
Element = str


@dataclass(frozen=True)
class FiniteGroup:
    """One operation: a carrier, its Cayley table and a declared identity.

    table[i][j] is the product carrier[i] * carrier[j]. The row label is the
    left operand. Construction enforces shape only; axioms are checked by
    validate_group so that deliberately broken tables can be represented
    and reported on.
    """

    op_id: str
    carrier: tuple[Element, ...]
    table: tuple[tuple[Element, ...], ...]
    identity: Element

    def __post_init__(self):
        n = len(self.carrier)
        if len(set(self.carrier)) != n:
            raise ValueError(f"duplicate element in carrier of {self.op_id!r}")
        if len(self.table) != n or any(len(row) != n for row in self.table):
            raise ValueError(f"table of {self.op_id!r} is not {n}x{n}")
        if self.identity not in self.carrier:
            raise ValueError(
                f"identity {self.identity!r} not in carrier of {self.op_id!r}")

    @cached_property
    def _index(self) -> dict[Element, int]:
        return {e: i for i, e in enumerate(self.carrier)}

    @property
    def order(self) -> int:
        return len(self.carrier)

    def __contains__(self, element: Element) -> bool:
        return element in self._index

    def index(self, element: Element) -> int:
        try:
            return self._index[element]
        except KeyError:
            raise DomainError(
                f"{element!r} is not in the carrier of {self.op_id!r}") from None

    def mul(self, a: Element, b: Element) -> Element:
        return self.table[self.index(a)][self.index(b)]

    @cached_property
    def _inverses(self) -> list[int | None]:
        """The first two-sided inverse of each carrier index, or None."""
        t, e, n = self._ints[0], self.index(self.identity), self.order
        return [next((b for b in range(n) if t[a][b] == e and t[b][a] == e), None)
                for a in range(n)]

    def _inverse_of(self, a: int) -> int:
        b = self._inverses[a]
        if b is None:
            raise DomainError(
                f"{self.carrier[a]!r} has no inverse under {self.op_id!r}")
        return b

    def inverse(self, a: Element) -> Element:
        return self.carrier[self._inverse_of(self.index(a))]

    @cached_property
    def _ints(self) -> tuple[list[list[int]], tuple[Element, ...]]:
        """The table over carrier indices, and the products outside the carrier.

        Each product outside the carrier gets the next index past it, in
        row-major table order, and that index is absorbing: every product
        with it is itself. A closure that leaves the carrier therefore just
        carries the escaped bits along.
        """
        n, index = self.order, dict(self._index)
        t = [[index.setdefault(p, len(index)) for p in row] for row in self.table]
        size = len(index)
        t = [row + list(range(n, size)) for row in t] + \
            [[k] * size for k in range(n, size)]
        return t, tuple(index)[n:]

    @cached_property
    def _associative(self) -> bool:
        """No product leaves the carrier and Light's test passes: closures are words."""
        return not self._ints[1] and _light_associative(self._ints[0])

    @cached_property
    def _lattice(self) -> dict[int, list[int]]:
        # the subgroups as carrier-index bitmasks in subgroups() order, each
        # with the elements it was joined from, which generate it
        found = _closed_subsets(self._ints[0], (1 << self.order) - 1,
                                self._associative)
        e = 1 << self.index(self.identity)
        masks = sorted((m for m in found
                        if m & e and self.order % m.bit_count() == 0),
                       key=lambda m: (m.bit_count(), _bits(m)))
        return {m: found[m] for m in masks
                if all(m >> self._inverse_of(a) & 1 for a in _bits(m))}

    @cached_property
    def _subgroups(self) -> tuple[tuple[Element, ...], ...]:
        return tuple(map(self._names, self._lattice))

    def _names(self, mask: int) -> tuple[Element, ...]:
        return tuple(self.carrier[i] for i in _bits(mask))

    @cached_property
    def is_abelian(self) -> bool:
        # distinct products outside the carrier have distinct indices
        n = self.order
        rows = [row[:n] for row in self._ints[0][:n]]
        return rows == [list(col) for col in zip(*rows)]

    def restrict(self, subset) -> "FiniteGroup":
        """The group induced on a subgroup, reusing this table's rows."""
        rows = sorted(map(self.index, subset))
        sub = tuple(self.carrier[a] for a in rows)
        if self.identity not in sub:
            raise PreconditionError(
                f"restriction of {self.op_id!r} must contain the identity")
        table = tuple(tuple(self.table[a][b] for b in rows) for a in rows)
        return FiniteGroup(self.op_id, sub, table, self.identity)

    @staticmethod
    def from_function(op_id: str, carrier, mul, identity: Element) -> "FiniteGroup":
        carrier = tuple(carrier)
        table = tuple(tuple(mul(a, b) for b in carrier) for a in carrier)
        return FiniteGroup(op_id, carrier, table, identity)


def validate_group(g: FiniteGroup, universe=None) -> ValidationReport:
    """Check all four group axioms, reporting one witness per violated axiom.

    When a universe is supplied, table entries that are not elements of it
    at all are flagged as structural (a malformed table), distinct from the
    closure axiom failure of an entry that escapes the carrier.
    Associativity is decided by Light's test (_light_associative, cached on
    the group as _associative), which compares whole rows for the members
    of a generating set only; when it fails, the full |G|^3 scan finds the
    first witness in (a, b, c) order.
    """
    report = ValidationReport()
    members = set(g.carrier)
    known = members if universe is None else set(universe) | members

    closure_witness = None
    structural_witness = None
    for a, row in zip(g.carrier, g.table):
        for b, p in zip(g.carrier, row):
            if p not in known:
                structural_witness = structural_witness or (a, b, p)
            elif p not in members:
                closure_witness = closure_witness or (a, b, p)
    if structural_witness:
        a, b, p = structural_witness
        report.add(STRUCTURAL, "malformed-table",
                   f"table entry {a} {g.op_id} {b} = {p!r} is not a known element",
                   (g.op_id,), (a, b, p))
    if closure_witness:
        a, b, p = closure_witness
        report.add(AXIOM, "closure",
                   f"{a} {g.op_id} {b} = {p} is outside the carrier",
                   (g.op_id,), (a, b, p))
    if structural_witness or closure_witness:
        return report  # remaining axioms are meaningless on a non-closed table

    # every product is now in the carrier, so the int table has no escapes
    t, e, n = g._ints[0], g.index(g.identity), g.order
    for a in range(n):
        if t[e][a] != a or t[a][e] != a:
            report.add(AXIOM, "identity",
                       f"{g.identity} is not an identity at {g.carrier[a]}",
                       (g.op_id,), (g.carrier[a],))
            break

    assoc_witness = None if g._associative else next(
        (a, b, c) for a in range(n) for b in range(n) for c in range(n)
        if t[t[a][b]][c] != t[a][t[b][c]])
    if assoc_witness:
        a, b, c = (g.carrier[i] for i in assoc_witness)
        report.add(AXIOM, "associativity",
                   f"({a} {g.op_id} {b}) {g.op_id} {c} != {a} {g.op_id} ({b} {g.op_id} {c})",
                   (g.op_id,), (a, b, c))

    for a, inverse in zip(g.carrier, g._inverses):
        if inverse is None:
            report.add(AXIOM, "inverse",
                       f"{a} has no inverse under {g.op_id!r}",
                       (g.op_id,), (a,))
            break

    return report


def _light_associative(t: list[list[int]]) -> bool:
    """Light's associativity test on a table closed on its indices.

    The middles s with (x s) y = x (s y) for all x, y form a product-closed
    set: for two of them, (x(sr))y = ((xs)r)y = (xs)(ry) = x(s(ry)) =
    x((sr)y). So the table is associative iff every member of a generating
    set is such a middle, and each is checked a row at a time: row (x s)
    against x times row s. The generating set is greedy: every element not
    yet a right word over those before it (_close with gens); on any table
    a word lies in their closure.
    """
    closed, gens = 0, []
    for s in range(len(t)):
        if closed >> s & 1:
            continue
        gens.append(s)
        closed = _close((t,), closed, closed | 1 << s, gens)
        ts = t[s]
        if any(t[row[s]] != list(map(row.__getitem__, ts)) for row in t):
            return False
    return True


def is_subgroup(g: FiniteGroup, subset) -> bool:
    """True iff the subset is nonempty and closed under products and inverses.

    Members are visited in carrier order, so a missing inverse is reported
    for the same element on every run.
    """
    members = sorted({g.index(e) for e in subset})
    mask, t = sum(1 << a for a in members), g._ints[0]
    for a in members:
        row = t[a]
        if not mask >> g._inverse_of(a) & 1 or \
                any(not mask >> row[b] & 1 for b in members):
            return False
    return bool(members)


def is_normal_subgroup(g: FiniteGroup, subset) -> bool:
    """True iff x s x^-1 stays in the subset for every x in the carrier;
    members are visited in carrier order, so an x s outside the carrier is
    named alike on every run."""
    members = sorted({g.index(e) for e in subset})
    if not is_subgroup(g, (g.carrier[a] for a in members)):
        raise PreconditionError("normality requires a subgroup")
    mask, t, n = sum(1 << a for a in members), g._ints[0], g.order
    for x in range(n):
        xi, row = g._inverse_of(x), t[x]
        for h in members:
            if row[h] >= n:
                g.index(g.table[x][h])  # raises, naming the product
            if not mask >> t[row[h]][xi] & 1:
                return False
    return True


def _bits(mask: int) -> list[int]:
    out = []  # the set positions of a nonnegative mask, lowest first
    while mask:
        out.append((mask & -mask).bit_length() - 1)
        mask &= mask - 1
    return out


def _close(tables, closed: int, mask: int, gens=None, within: int = -1) -> int:
    """Product closure of mask under every table, given a closed part of it.

    Tables are int Cayley tables in which an index standing for "outside"
    absorbs every product with it, so the kernel only sets bits. Semi-naive:
    each new element is multiplied, on both sides, only against the elements
    taken before it, so every ordered pair is tried once per table.

    With `gens` (one associative table closed on its carrier; the gens in
    `closed` generate it, the rest of mask are gens), members are words over
    gens: old members times each new gen, then new members times every gen.
    Stops at the first bit outside `within`, returning a mask that holds it.
    """
    members = _bits(closed)
    fresh = _bits(mask & ~closed)
    if gens is not None:
        (t,) = tables
        products = [t[y][x] for x in fresh for y in members]
        while True:
            for p in products:
                if not mask >> p & 1:
                    if not within >> p & 1:
                        return mask | 1 << p
                    mask |= 1 << p
                    fresh.append(p)
            if not fresh:
                return mask
            products = map(t[fresh.pop()].__getitem__, gens)
    while fresh:
        x = fresh.pop()
        members.append(x)
        for t in tables:
            row = t[x]
            for y in members:
                p, q = row[y], t[y][x]
                if not mask >> p & 1:
                    if not within >> p & 1:
                        return mask | 1 << p
                    mask |= 1 << p
                    fresh.append(p)
                if not mask >> q & 1:
                    if not within >> q & 1:
                        return mask | 1 << q
                    mask |= 1 << q
                    fresh.append(q)
    return mask


def _closed_subsets(t: list[list[int]], within: int,
                    words: bool = False) -> dict[int, list[int]]:
    """Every nonempty product-closed subset of `within`, as bitmasks in the
    order found, each with the elements it was joined from, which generate it.

    True cyclic extension (Neubüser 1960): closes each element of `within`,
    then joins each closed set found with each element closure not inside
    it, memoised on their union; a closure stops at its first bit outside
    `within` and is dropped. Exact on any table: a closed set S is the join
    of its elements' closures added one at a time, each partial join inside
    S. With `words` (an associative table closed on its carrier) a closure
    is built as words over the elements its set was joined from.
    """
    gens: dict[int, list[int]] = {}  # each closed set found: the elements joined into it
    for x in _bits(within):
        c = _close((t,), 0, 1 << x, [x] if words else None, within)
        if not c & ~within:
            gens.setdefault(c, [x])
    cyclic = list(gens.items())
    found = list(gens)
    tried: set[int] = set()  # the closure of a union depends on nothing else
    for a in found:  # also visits the sets appended meanwhile
        for c, (x,) in cyclic:
            union = a | c
            if union == a or union in tried or union in gens:
                continue
            tried.add(union)
            g = gens[a] + [x]
            j = _close((t,), a, a | 1 << x, g if words else None, within)
            if not j & ~within and j not in gens:
                gens[j] = g
                found.append(j)
    return gens


def subgroups(g: FiniteGroup, limits: Limits = DEFAULT_LIMITS) -> list[tuple[Element, ...]]:
    """All subgroups, ordered by size and then canonical element order.

    Built by cyclic extension: every product-closed subset of the carrier
    is found by joining closed sets with element closures (_closed_subsets),
    and each one that holds the identity and has order dividing |G| is kept
    when it holds the inverse of each member. The lattice is cached on the
    group.
    Refuses groups larger than the configured bound instead of truncating.
    """
    if g.order > limits.max_group_order:
        raise BoundExceeded(
            f"subgroup enumeration bounded at order {limits.max_group_order}, "
            f"got {g.order}", limits.max_group_order)
    return list(g._subgroups)


def _normalises(t: list[list[int]], x: int, members: list[int]) -> bool:
    row = t[x]  # x * members == members * x: x conjugates them onto themselves
    return {row[h] for h in members} == {t[h][x] for h in members}


def _maximal(masks: list[int]) -> list[int]:
    return [m for m in masks if not any(m != o and m & o == m for o in masks)]


def _proper_normal(t: list[list[int]], lattice, within: int, gens) -> list[int]:
    """The lattice members strictly inside the subgroup `within` that every x
    in gens normalises. With gens generating `within` that is normality in
    it: on a group, the elements that normalise a subgroup form a subgroup."""
    inside = [m for m in lattice if m != within and not m & ~within]
    return [m for m, hs in zip(inside, map(_bits, inside))
            if all(_normalises(t, x, hs) for x in gens)]


def _normal_masks(g: FiniteGroup, limits: Limits, within) -> list[int]:
    # the core over every member of `within` as conjugator, so none need generate it
    subgroups(g, limits)
    top = (1 << g.order) - 1 if within is None else sum({1 << g.index(e) for e in within})
    return _proper_normal(g._ints[0], g._lattice, top, _bits(top))


def proper_normal_subgroups(g: FiniteGroup, limits: Limits = DEFAULT_LIMITS,
                            within=None) -> list[tuple[Element, ...]]:
    """The proper normal subgroups of the group g, or of its subgroup
    `within`: the subgroups of a subgroup are the members of g's lattice
    inside it, so its own lattice is never enumerated."""
    return list(map(g._names, _normal_masks(g, limits, within)))


def maximal_proper_normal_subgroups(g: FiniteGroup, limits: Limits = DEFAULT_LIMITS,
                                    within=None) -> list[tuple[Element, ...]]:
    """Proper normal subgroups with no strictly larger proper normal subgroup
    above them, of g or of its subgroup `within`."""
    return list(map(g._names, _maximal(_normal_masks(g, limits, within))))


def quotient_group(g: FiniteGroup, normal_subset) -> FiniteGroup:
    """The group on left cosets of a normal subgroup.

    Cosets are named by their canonically smallest member, so the quotient
    is again a plain FiniteGroup over string tokens.
    """
    sub = set(normal_subset)
    if not is_normal_subgroup(g, sub):
        raise PreconditionError("quotient requires a normal subgroup")
    coset_of: dict[Element, frozenset] = {}
    reps = []
    for x in g.carrier:
        if x in coset_of:
            continue
        coset = frozenset(g.mul(x, h) for h in sub)
        rep = min(coset, key=g.index)
        reps.append(rep)
        for y in coset:
            coset_of[y] = coset
    rep_of = {coset_of[r]: r for r in reps}
    carrier = tuple(sorted(reps, key=g.index))
    table = tuple(tuple(rep_of[coset_of[g.mul(a, b)]] for b in carrier)
                  for a in carrier)
    identity = rep_of[coset_of[g.identity]]
    return FiniteGroup(g.op_id, carrier, table, identity)


@dataclass(frozen=True)
class CompositionChain:
    """A maximal descending chain of normal subgroups, down to the identity."""

    links: tuple[tuple[Element, ...], ...]

    @property
    def length(self) -> int:
        return len(self.links) - 1


def composition_series(g: FiniteGroup,
                       limits: Limits = DEFAULT_LIMITS) -> list[CompositionChain]:
    """All composition series of g.

    Each step descends to a maximal proper normal subgroup of the previous
    link, so every returned chain ends at the trivial subgroup and cannot
    be refined. The maximal normal subgroups of every link come from g's
    own lattice, filtered to the link, so g's lattice is the only one
    enumerated.
    """
    if g.order > limits.max_group_order:
        raise BoundExceeded(
            f"composition series bounded at order {limits.max_group_order}, "
            f"got {g.order}", limits.max_group_order)

    def descend(link):
        if len(link) == 1:
            return [(link,)]
        return [(link,) + tail
                for n in maximal_proper_normal_subgroups(g, limits, within=link)
                for tail in descend(n)]

    return [CompositionChain(links) for links in descend(g.carrier)]
