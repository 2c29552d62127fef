"""Finite groups as explicit Cayley tables over named elements.

Elements are opaque string tokens; equality is by token. A FiniteGroup is
immutable after construction and structurally permissive: the constructor
checks only table shape, while validate_group() reports every violated
group axiom with a concrete witness. All enumeration output is ordered by
first appearance in the carrier so reports and golden files are stable.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property
from math import gcd
from operator import itemgetter

from .config import DEFAULT_LIMITS, Limits
from .errors import BoundExceeded, DomainError, PreconditionError
from .report import AXIOM, ValidationReport, Violation

# an element is just its id
Element = str


class _Frozen:
    """Equality, hash and repr by the fields named in _fields, and no
    assignment: __init__ writes the instance __dict__ directly, the fields
    and the state every query reads, and the cached properties add what
    costs work or is not always read on first use. All are plain instance
    attributes, the fastest to read on the hot paths."""

    __slots__ = ()
    _fields: tuple[str, ...]  # set by each subclass

    def _values(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._values()))
        return f"{self.__class__.__name__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class FiniteGroup(_Frozen):
    """One operation: a carrier, its Cayley table and a declared identity.

    table[i][j] is the product carrier[i] * carrier[j]. The row label is the
    left operand. Construction enforces shape only; axioms are checked by
    validate_group so that deliberately broken tables can be represented
    and reported on.
    """

    _fields = ("op_id", "carrier", "table", "identity")

    def __init__(self, op_id: str, carrier: tuple[Element, ...],
                 table: tuple[tuple[Element, ...], ...], identity: Element):
        n = len(carrier)
        index = dict(zip(carrier, range(n)))
        if len(index) != n:
            raise ValueError(f"duplicate element in carrier of {op_id!r}")
        if len(table) != n or any(len(row) != n for row in table):
            raise ValueError(f"table of {op_id!r} is not {n}x{n}")
        if identity not in carrier:  # a scan, so an unhashable identity is refused alike
            raise ValueError(f"identity {identity!r} not in carrier of {op_id!r}")
        self.__dict__.update(op_id=op_id, carrier=carrier, table=table, identity=identity,
                             order=n, _index=index)

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
        """The first two-sided inverse of each carrier index, or None: the
        first right inverse in the row, or when that one is one-sided the
        first b after it with a b = e = b a."""
        t, e, n = self._ints[0], self.index(self.identity), self.order
        out: list[int | None] = []
        for a in range(n):
            row = t[a]
            b = row.index(e) if e in row else None  # e < n: never an escape column
            if b is not None and t[b][a] != e:
                b = next((c for c in range(b + 1, n) if row[c] == e and t[c][a] == e),
                         None)
            out.append(b)
        return out

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
        t = []
        for row in self.table:
            try:
                t.append(list(map(index.__getitem__, row)))
            except KeyError:  # a product outside the carrier gets its index
                t.append([index.setdefault(p, len(index)) for p in row])
        size = len(index)
        if size > n:
            t = [row + list(range(n, size)) for row in t] + \
                [[k] * size for k in range(n, size)]
        return t, tuple(index)[n:]

    @cached_property
    def _light(self) -> list[int] | None:
        """Light's generators when no product leaves the carrier and his test
        passes, so the table is associative; None otherwise."""
        return None if self._ints[1] else _light_generators(self._ints[0])

    @cached_property
    def _axioms(self) -> ValidationReport:
        """The identity, associativity and inverse checks of a table closed
        on its carrier, one witness per violated axiom, kept on the group:
        validate_group hands out this report whenever no product leaves the
        carrier. Associativity is decided by Light's test (_light); only
        when it fails does the full |G|^3 scan run, to find the first
        witness in (a, b, c) order."""
        found, op, carrier = [], self.op_id, self.carrier
        t, e, n = self._ints[0], self.index(self.identity), self.order
        for a in range(n):
            if t[e][a] != a or t[a][e] != a:
                found.append(Violation(AXIOM, "identity",
                                       f"{self.identity} is not an identity at {carrier[a]}",
                                       (op,), (carrier[a],)))
                break

        assoc_witness = None if self._light is not None else next(
            (a, b, c) for a in range(n) for b in range(n) for c in range(n)
            if t[t[a][b]][c] != t[a][t[b][c]])
        if assoc_witness:
            a, b, c = (carrier[i] for i in assoc_witness)
            found.append(Violation(
                AXIOM, "associativity",
                f"({a} {op} {b}) {op} {c} != {a} {op} ({b} {op} {c})", (op,), (a, b, c)))

        for a, inverse in zip(carrier, self._inverses):
            if inverse is None:
                found.append(Violation(AXIOM, "inverse", f"{a} has no inverse under {op!r}",
                                       (op,), (a,)))
                break
        return ValidationReport(tuple(found))

    @cached_property
    def _generators(self) -> list[int] | None:
        """Light's generators when the kept axiom report (_axioms) passes,
        so the table is a group; None otherwise. _light is asked first, so
        only an associative table closed on its carrier reads the report,
        and validate_group never runs from here."""
        return self._light if self._light and self._axioms.ok else None

    @cached_property
    def _lattice(self) -> dict[int, list[int]]:
        # the subgroups as carrier-index bitmasks in subgroups() order, each
        # with the elements it was joined from, which generate it; on a group
        # every closed set is one, as a member's powers hold its inverse
        group = self._generators is not None
        found = _closed_subsets(self._ints[0], (1 << self.order) - 1, group)
        e, inverse = 1 << self.index(self.identity), self._inverse_of
        bits = {m: _bits(m) for m in found if m & e and self.order % m.bit_count() == 0}
        return {m: found[m] for m in sorted(bits, key=lambda m: (len(bits[m]), bits[m]))
                if group or all(m >> inverse(a) & 1 for a in bits[m])}

    def _names(self, mask: int) -> tuple[Element, ...]:
        return tuple(self.carrier[i] for i in _bits(mask))

    @cached_property
    def is_abelian(self) -> bool:
        # a group is abelian iff its generators commute; any other table is
        # compared with its transpose, where distinct products outside the
        # carrier have distinct indices
        t, n, gens = self._ints[0], self.order, self._generators
        if gens is not None:
            return all(t[a][b] == t[b][a] for i, a in enumerate(gens) for b in gens[:i])
        rows = [row[:n] for row in t[:n]]
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


def validate_group(g: FiniteGroup) -> ValidationReport:
    """Check all four group axioms, reporting one witness per violated axiom.

    When no product leaves the carrier this is the group's kept report
    (FiniteGroup._axioms), the same object on every call. Otherwise the
    report is one closure violation at the first product outside the
    carrier in row-major order; the other axioms need a closed table, so
    they are not checked then.
    """
    t, escaped = g._ints
    if not escaped:
        return g._axioms
    n = g.order
    a, b = next((a, b) for a in range(n) for b in range(n) if t[a][b] >= n)
    x, y, p = g.carrier[a], g.carrier[b], escaped[t[a][b] - n]
    return ValidationReport((Violation(AXIOM, "closure",
                                       f"{x} {g.op_id} {y} = {p} is outside the carrier",
                                       (g.op_id,), (x, y, p)),))


def _light_generators(t: list[list[int]]) -> list[int] | None:
    """Light's associativity test on a table closed on its indices: the
    generating set it checked when the table is associative, else None.

    The middles s with (x s) y = x (s y) for all x, y form a product-closed
    set: for two of them, (x(sr))y = ((xs)r)y = (xs)(ry) = x(s(ry)) =
    x((sr)y). So the table is associative iff every member of a generating
    set is such a middle, and each is checked a row at a time: row (x s)
    against x times row s, every x at once as tuples. The generating set
    is greedy: every element not yet a right word over those before it
    (_close with gens); on any table a word lies in their closure.
    """
    closed, gens, words, identity = 0, [], [], list(range(len(t)))
    rows = list(map(tuple, t))
    for s in range(len(t)):
        if closed >> s & 1:
            continue
        gens.append(s)
        ts, column = t[s], list(map(itemgetter(s), t))
        # a two-sided identity: (x s) y = x y = x (s y), and a word times s
        # is the word, so no word is multiplied by it
        unit = ts == identity and column == identity
        if not unit:
            words.append(s)
        closed = _close((t,), closed, closed | 1 << s, words)
        if not unit and \
                list(map(rows.__getitem__, column)) != list(map(itemgetter(*ts), t)):
            return None
    return gens


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
                    group: bool = False) -> dict[int, list[int]]:
    """Every nonempty product-closed subset of `within`, as bitmasks in the
    order found, each with the elements it was joined from, which generate it.

    True cyclic extension (Neubüser 1960): closes each element of `within`,
    then joins each closed set found with each element closure not inside
    it, memoised on their union; a closure stops at its first bit outside
    `within` and is dropped. Exact on any table: a closed set S is the join
    of its elements' closures added one at a time, each partial join inside
    S. With `group` (the table is a group, `within` inside its carrier) an
    element closure is the element's powers, and a closed set a is a
    subgroup: it is joined once per coset x a, as <a, x h> = <a, x> for h
    in a and that join is found already or leaves `within`, and the join is
    walked over a's left cosets (_coset_join). When an element closure
    fills `within`, `within` is cyclic: every closed set in it is a later
    element's closure, read off that generator's powers, and no join can
    find a new one.
    """
    gens: dict[int, list[int]] = {}  # each closed set found: the elements joined into it
    elements = _bits(within)
    for i, x in enumerate(elements):
        c = _power_closure(t[x], x, within) if group else _close((t,), 0, 1 << x, None, within)
        if not c & ~within:
            gens.setdefault(c, [x])
        if group and c == within:
            later = elements[i + 1:]
            for y, s in zip(later, _cyclic_closures(t[x], x, c.bit_count(), later)):
                gens.setdefault(s, [y])
            return gens
    firsts = {x: c for c, (x,) in gens.items()}  # each element closure, by its first x
    heads, found = sum(1 << x for x in firsts), list(gens)
    bit = [1 << p for p in range(len(t))] if group else []
    tried: set[int] = set()  # the closure of a union depends on nothing else
    for a in found:  # also visits the sets appended meanwhile
        members, cosets = _bits(a), {}  # on a group: each element met, its coset z a
        rest = heads & ~a  # the x still to join with a, lowest first
        while rest:
            x = (rest & -rest).bit_length() - 1
            if group:
                xa = cosets.get(x) or _coset(t[x], members, cosets, bit)
                rest &= ~(xa | 1 << x)  # x is in x a on a group, not on any table
            else:
                rest ^= 1 << x
            union = a | firsts[x]
            if union in tried or union in gens:
                continue
            tried.add(union)
            g = gens[a] + [x]
            if group:
                j = _coset_join(t, a | xa, x, g, members, cosets, bit, within)
            else:
                j = _close((t,), a, a | 1 << x, None, within)
            if not j & ~within and j not in gens:
                gens[j] = g
                found.append(j)
    return gens


def _power_closure(row: list[int], x: int, within: int) -> int:
    """<x> in a group, given x's row: the powers x, x^2, ... up to the first
    one met again. Stops at the first power outside `within`, returning a
    mask that holds it."""
    mask, p = 0, x
    while not mask >> p & 1:
        if not within >> p & 1:
            return mask | 1 << p
        mask |= 1 << p
        p = row[p]
    return mask


def _cyclic_closures(row: list[int], x: int, m: int, ys: list[int]):
    """The closure of each y in ys, all powers of x, of order m, in a group,
    given x's row: for y = x^k, <y> = <x^d> with d = gcd(k, m)."""
    powers = [x]  # x, x^2, ..., x^m = e
    for _ in range(m - 1):
        powers.append(row[powers[-1]])
    exponent, spans = {p: k for k, p in enumerate(powers, 1)}, {}
    for y in ys:
        d = gcd(exponent[y], m)
        if d not in spans:
            spans[d] = sum(1 << p for p in powers[d - 1::d])
        yield spans[d]


def _coset(row: list[int], members: list[int], cosets: dict[int, int],
           bit: list[int]) -> int:
    """The left coset z a of a subgroup a of a group, given z's row, as a
    bitmask, kept in `cosets` under each of its elements."""
    zs = list(map(row.__getitem__, members))
    mask = sum(map(bit.__getitem__, zs))  # distinct: a row of a group permutes its carrier
    cosets.update(dict.fromkeys(zs, mask))
    return mask


def _coset_join(t: list[list[int]], mask: int, x: int, gens: list[int],
                members: list[int], cosets: dict[int, int], bit: list[int],
                within: int) -> int:
    """<a, x> on a group, where a is a subgroup (`members`), gens generate
    <a, x> and mask is a together with x a.

    The join is a union of left cosets z a, so it is walked over their
    representatives: each one met is multiplied on the left by every gen,
    and a product outside mask adds its whole coset. The union holds e and
    is closed under left products with the gens, so it is <a, x>. Stops at
    the first coset that leaves `within`, returning a mask that holds it.
    """
    rows, reps = [t[g] for g in gens], [x]
    while reps:
        y = reps.pop()
        for row in rows:
            z = row[y]
            if not mask >> z & 1:
                if not within >> z & 1:
                    return mask | bit[z]
                coset = cosets.get(z) or _coset(t[z], members, cosets, bit)
                if coset & ~within:
                    return mask | coset
                mask |= coset | bit[z]  # z is in z a on a group, not on any table
                reps.append(z)
    return mask


def subgroups(g: FiniteGroup, limits: Limits = DEFAULT_LIMITS) -> list[tuple[Element, ...]]:
    """All subgroups, ordered by size and then canonical element order.

    Built by cyclic extension: every product-closed subset of the carrier
    is found by joining closed sets with element closures (_closed_subsets),
    and each one that holds the identity and has order dividing |G| is kept
    when it holds the inverse of each member. The lattice is cached on the
    group.
    Refuses groups larger than the configured bound instead of truncating.
    """
    _check_order(g.order, limits, "subgroup enumeration bounded at order")
    return list(map(g._names, g._lattice))


def _check_order(order: int, limits: Limits, what: str) -> None:
    """Refuse an order above limits.max_group_order. `what` is the
    refusal's wording up to the bound, as "subgroup enumeration bounded at
    order"."""
    if order > limits.max_group_order:
        raise BoundExceeded(f"{what} {limits.max_group_order}, got {order}",
                            limits.max_group_order)


def _normalises(t: list[list[int]], x: int, members: list[int]) -> bool:
    row = t[x]  # x * members == members * x: x conjugates them onto themselves
    return {row[h] for h in members} == {t[h][x] for h in members}


def _maximal(masks: list[int]) -> list[int]:
    """The masks no other mask strictly contains, in input order."""
    kept: set[int] = set()
    for m in sorted(set(masks), key=int.bit_count, reverse=True):
        if all(m & k != m for k in kept):
            kept.add(m)
    return [m for m in masks if m in kept]


def _proper_normal(t: list[list[int]], lattice, within: int, gens) -> list[int]:
    """The lattice members strictly inside the subgroup `within` that every x
    in gens normalises. With gens generating `within` that is normality in
    it: on a group, the elements that normalise a subgroup form a subgroup."""
    inside = [m for m in lattice if m != within and not m & ~within]
    return [m for m, hs in zip(inside, map(_bits, inside))
            if all(_normalises(t, x, hs) for x in gens)]


def _primes(n: int) -> list[int]:
    out, q = [], 2  # the primes dividing n, smallest first
    while q * q <= n:
        if n % q == 0:
            out.append(q)
            while n % q == 0:
                n //= q
        q += 1
    return out + [n] if n > 1 else out


def _power(t: list[list[int]], x: int, p: int, e: int) -> int:
    y = e  # x^p in a group with identity e, by repeated squaring
    while True:
        if p & 1:
            y = t[y][x]
        p >>= 1
        if not p:
            return y
        x = t[x][x]


def _derived(t: list[list[int]], members: list[int], e: int) -> int:
    """The commutator subgroup of the subgroup with the given members, in a
    group with identity e: the closure of the commutators
    x^-1 y^-1 x y = (y x)^-1 (x y), one per pair, as [y, x] is the inverse
    of [x, y]."""
    inverse, out = {}, 1 << e
    for i, x in enumerate(members):
        row = t[x]
        for y in members[:i]:
            xy, yx = row[y], t[y][x]
            if xy != yx:
                if yx not in inverse:
                    inverse[yx] = t[yx].index(e)
                out |= 1 << t[inverse[yx]][xy]
    return _close((t,), 0, out)


def _hyperplanes(t: list[list[int]], members: list[int], low: int, p: int) -> list[int]:
    """The preimages of the hyperplanes of P/low, where P (members) is a
    group and low a normal subgroup with P/low elementary abelian of
    exponent p, an F_p vector space. A basis of it is taken greedily in
    member order: x is the next basis vector when it lies outside the span
    so far, and x^j times each coset so far (j = 1 .. p-1) is the coset of
    coordinates j times the new unit vector plus that coset's. So cosets[c]
    is the coset whose coordinates are the base-p digits of c, and each
    hyperplane is the kernel of one functional, the one whose leading
    nonzero coefficient is 1."""
    cosets, span, dim = [low], low, 0
    for x in members:
        if span >> x & 1:
            continue
        new, y = [], x
        for _ in range(1, p):
            row = t[y]
            new += [sum(1 << row[z] for z in _bits(c)) for c in cosets]
            y = t[y][x]
        cosets += new
        span |= sum(new)
        dim += 1
    planes = []
    for f in range(1, len(cosets)):
        lead = f
        while lead >= p:
            lead //= p
        if lead != 1:
            continue
        values = [0]  # f applied to the coordinates of each coset
        for _ in range(dim):
            f, a = divmod(f, p)
            values = [(v + j * a) % p for j in range(p) for v in values]
        planes.append(sum(c for c, v in zip(cosets, values) if not v))
    return planes


def _maximal_normal(t: list[list[int]], part: int, e: int, abelian: bool) -> list[int]:
    """The maximal proper normal subgroups of the subgroup `part` of the
    group with int table t and identity index e, canonically smallest
    first (sorted by _bits). `abelian` says that the group is.

    M is maximal normal in P exactly when P/M is simple. If P is solvable,
    so is P/M, and a simple solvable group is cyclic of prime order p. Then
    P/M is abelian of exponent p, so M holds every commutator and every
    p-th power: M contains N_p = P'·P^p. P/N_p is abelian of exponent p,
    an F_p vector space; each of its subgroups is normal in it, so its
    preimage is normal in P, and the preimages of prime index are those of
    the hyperplanes. So the maximal normal subgroups of P are the
    preimages of the hyperplanes of P/N_p over the primes p dividing
    |P : P'| (for any other p, N_p = P). P/P' is abelian, so N_p is the
    union of the cosets of P' through the p-th powers. For an abelian
    operation P' is the identity and N_p = {x^p}. A part of prime order
    has only the identity below it. The derived series decides
    solvability: it reaches the identity, or it stalls above it, and then
    P is not solvable: the closure kernel finds the subgroups under P
    (_closed_subsets), and those strictly inside it that P's generators
    normalise are filtered.
    """
    order = part.bit_count()
    primes = _primes(order)
    if primes == [order]:
        return [1 << e]
    members = _bits(part)
    derived = 1 << e if abelian else _derived(t, members, e)
    upper, lower = part, derived
    while lower != 1 << e:
        if lower == upper:  # the derived series stalls: not solvable
            lat = _closed_subsets(t, part, True)
            return sorted(_maximal(_proper_normal(t, lat, part, lat[part])), key=_bits)
        upper, lower = lower, _derived(t, _bits(lower), e)
    out, coset = [], _bits(derived)
    for p in primes if len(coset) == 1 else _primes(order // len(coset)):
        low = derived
        for x in members:
            y = _power(t, x, p, e)
            if not low >> y & 1:
                row = t[y]
                low |= sum(1 << row[d] for d in coset)
        out += _hyperplanes(t, members, low, p)
    return sorted(out, key=_bits)


def _maximal_masks(g: FiniteGroup, top: int) -> list[int]:
    """The maximal proper normal subgroups of top, g's whole carrier or a
    link of one of its composition series, by size and then canonical
    order: from the prime-index quotients when g is a group, and otherwise
    by the lattice filter, whose core takes every member of top as
    conjugator, so none need generate it."""
    if g._generators is None:
        return _maximal(_proper_normal(g._ints[0], g._lattice, top, _bits(top)))
    masks = _maximal_normal(g._ints[0], top, g.index(g.identity), g.is_abelian)
    return sorted(masks, key=lambda m: (m.bit_count(), _bits(m)))


def maximal_proper_normal_subgroups(g: FiniteGroup,
                                    limits: Limits = DEFAULT_LIMITS) -> list[tuple[Element, ...]]:
    """Proper normal subgroups of g with no strictly larger proper normal
    subgroup above them, by size and then canonical order. On a group they
    come from the prime-index quotients (_maximal_normal), which read no
    lattice of g."""
    _check_order(g.order, limits, "subgroup enumeration bounded at order")
    return list(map(g._names, _maximal_masks(g, (1 << g.order) - 1)))


class CompositionChain(namedtuple("CompositionChain", ["links"])):
    """A maximal descending chain of normal subgroups, down to the identity:
    links is a tuple of element tuples."""

    __slots__ = ()

    @property
    def length(self) -> int:
        return len(self.links) - 1


def composition_series(g: FiniteGroup,
                       limits: Limits = DEFAULT_LIMITS) -> list[CompositionChain]:
    """All composition series of g.

    Each step descends to a maximal proper normal subgroup of the previous
    link, so every returned chain ends at the trivial subgroup and cannot
    be refined. The links are bitmasks over g's own table, each link's
    maximal normal subgroups taken from its prime-index quotients
    (_maximal_normal), so a solvable link builds no lattice and any other
    link only the subgroups under itself. Each link's
    chains down to the identity are listed once, however many paths reach
    it, and they are named at the end.
    """
    _check_order(g.order, limits, "composition series bounded at order")
    tails = {}

    def descend(link):
        if link not in tails:
            tails[link] = [(link,)] if not link & link - 1 else \
                [(link,) + tail for n in _maximal_masks(g, link) for tail in descend(n)]
        return tails[link]

    return [CompositionChain(tuple(map(g._names, links)))
            for links in descend((1 << g.order) - 1)]
