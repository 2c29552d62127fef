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
    def _inverses(self) -> dict[Element, Element]:
        t, e, c = self._ints[0], self.index(self.identity), self.carrier
        inv = {}
        for a in range(self.order):
            for b in range(self.order):
                if t[a][b] == e and t[b][a] == e:
                    inv[c[a]] = c[b]
                    break
        return inv

    def inverse(self, a: Element) -> Element:
        self.index(a)
        try:
            return self._inverses[a]
        except KeyError:
            raise DomainError(
                f"{a!r} has no inverse under {self.op_id!r}") from None

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
    def _subgroups(self) -> tuple[tuple[Element, ...], ...]:
        found, _ = _closed_subsets(self._ints[0], (1 << self.order) - 1)
        e = 1 << self.index(self.identity)
        masks = sorted((m for m in found
                        if m & e and self.order % m.bit_count() == 0),
                       key=lambda m: (m.bit_count(), _bits(m)))
        subs = [tuple(self.carrier[i] for i in _bits(m)) for m in masks]
        return tuple(s for s in subs if is_subgroup(self, s))

    @cached_property
    def is_abelian(self) -> bool:
        return all(self.mul(a, b) == self.mul(b, a)
                   for a in self.carrier for b in self.carrier)

    def sort_key(self, elements) -> tuple[int, ...]:
        return tuple(sorted(self.index(e) for e in elements))

    def sorted_elements(self, elements) -> tuple[Element, ...]:
        return tuple(sorted(elements, key=self.index))

    def restrict(self, subset) -> "FiniteGroup":
        """The group induced on a subgroup, reusing this table."""
        sub = self.sorted_elements(subset)
        if self.identity not in sub:
            raise PreconditionError(
                f"restriction of {self.op_id!r} must contain the identity")
        table = tuple(tuple(self.mul(a, b) for b in sub) for a in sub)
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

    assoc_witness = next(((a, b, c) for a in range(n) for b in range(n)
                          for c in range(n) if t[t[a][b]][c] != t[a][t[b][c]]), None)
    if assoc_witness:
        a, b, c = (g.carrier[i] for i in assoc_witness)
        report.add(AXIOM, "associativity",
                   f"({a} {g.op_id} {b}) {g.op_id} {c} != {a} {g.op_id} ({b} {g.op_id} {c})",
                   (g.op_id,), (a, b, c))

    for a in g.carrier:
        if a not in g._inverses:
            report.add(AXIOM, "inverse",
                       f"{a} has no inverse under {g.op_id!r}",
                       (g.op_id,), (a,))
            break

    return report


def is_subgroup(g: FiniteGroup, subset) -> bool:
    """True iff the subset is nonempty and closed under products and inverses.

    Members are visited in carrier order, so a missing inverse is reported
    for the same element on every run.
    """
    members = [g.carrier[i] for i in sorted({g.index(e) for e in subset})]
    sub = set(members)
    if not sub:
        return False
    for a in members:
        if g.inverse(a) not in sub:
            return False
        for b in members:
            if g.mul(a, b) not in sub:
                return False
    return True


def is_normal_subgroup(g: FiniteGroup, subset) -> bool:
    """True iff x s x^-1 stays in the subset for every x in the carrier."""
    sub = set(subset)
    if not is_subgroup(g, sub):
        raise PreconditionError("normality requires a subgroup")
    for x in g.carrier:
        xi = g.inverse(x)
        for h in sub:
            if g.mul(g.mul(x, h), xi) not in sub:
                return False
    return True


def _bits(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def _close(tables, closed: int, mask: int) -> int:
    """Product closure of mask under every table, given a closed part of it.

    Tables are int Cayley tables in which an index standing for "outside"
    absorbs every product with it, so the kernel only sets bits. Semi-naive:
    each new element is multiplied, on both sides, only against the elements
    taken before it, so every ordered pair is tried once per table.
    """
    members = _bits(closed)
    fresh = _bits(mask & ~closed)
    while fresh:
        x = fresh.pop()
        members.append(x)
        for t in tables:
            row = t[x]
            for y in members:
                p, q = row[y], t[y][x]
                if not mask >> p & 1:
                    mask |= 1 << p
                    fresh.append(p)
                if not mask >> q & 1:
                    mask |= 1 << q
                    fresh.append(q)
    return mask


def _closed_subsets(t: list[list[int]], within: int) -> tuple[list[int], int]:
    """Every nonempty product-closed subset of `within`, as bitmasks.

    Closes each element of `within`, then joins every two closed sets found,
    memoised on their union, and keeps a closure only when it lies inside
    `within`. Exact on any table, group or not: a closed set S is the join
    of the closures of its elements, and every partial join stays inside S.
    Also returns the union of the closures that were not kept, so a caller
    can see which products outside the carrier were reached.
    """
    found: list[int] = []
    known: set[int] = set()
    tried: set[int] = set()  # the closure of a union depends on nothing else
    rejected = 0

    def visit(closed: int, union: int) -> None:
        nonlocal rejected
        if union in tried:
            return
        tried.add(union)
        c = _close((t,), closed, union)
        if c & ~within:
            rejected |= c
        elif c not in known:
            known.add(c)
            found.append(c)

    for x in _bits(within):
        visit(0, 1 << x)
    for i, a in enumerate(found):  # also visits the sets appended meanwhile
        for b in found[:i]:
            if a | b not in (a, b):
                visit(a, a | b)
    return found, rejected


def subgroups(g: FiniteGroup, limits: Limits = DEFAULT_LIMITS) -> list[tuple[Element, ...]]:
    """All subgroups, ordered by size and then canonical element order.

    Built by cyclic extension: every product-closed subset of the carrier
    is found by joining closures (_closed_subsets), and each one that holds
    the identity and has order dividing |G| is still checked against the
    subgroup axioms with is_subgroup. The lattice is cached on the group.
    Refuses groups larger than the configured bound instead of truncating.
    """
    if g.order > limits.max_group_order:
        raise BoundExceeded(
            f"subgroup enumeration bounded at order {limits.max_group_order}, "
            f"got {g.order}", limits.max_group_order)
    return list(g._subgroups)


def proper_normal_subgroups(g: FiniteGroup,
                            limits: Limits = DEFAULT_LIMITS) -> list[tuple[Element, ...]]:
    return [s for s in subgroups(g, limits)
            if len(s) < g.order and is_normal_subgroup(g, s)]


def maximal_proper_normal_subgroups(g: FiniteGroup,
                                    limits: Limits = DEFAULT_LIMITS) -> list[tuple[Element, ...]]:
    """Proper normal subgroups with no strictly larger proper normal subgroup above them."""
    normals = proper_normal_subgroups(g, limits)
    sets = [set(s) for s in normals]
    return [s for s, ss in zip(normals, sets)
            if not any(ss < other for other in sets)]


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
    be refined.
    """
    if g.order > limits.max_group_order:
        raise BoundExceeded(
            f"composition series bounded at order {limits.max_group_order}, "
            f"got {g.order}", limits.max_group_order)
    whole = g.sorted_elements(g.carrier)
    if g.order == 1:
        return [CompositionChain((whole,))]
    chains = []
    for n in maximal_proper_normal_subgroups(g, limits):
        for tail in composition_series(g.restrict(n), limits):
            chains.append(CompositionChain((whole,) + tail.links))
    return chains
