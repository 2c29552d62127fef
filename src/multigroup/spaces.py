"""Multi-group spaces: a universe carrying several partial group operations.

A product a *_i b is defined exactly when both operands lie in the carrier
of operation i. The validation here checks, per unordered pair of distinct
operations, that at least one of the two distributes over the other on
every triple whose intermediate products are all defined; a law with no
fully defined triple holds vacuously. Where the distributor is a group and
the other is one too, on the distributor's carrier and its own identity
(as in a field), the direction is decided on the generators of both: the
multiplications by the distributor's generators are checked as
endomorphisms of the other on its generators; otherwise one scan over the
distributor's carrier decides it. That check on generators needs the
distributor to be a group on a carrier inside the other's, as
multiplication over addition, so validation checks such a direction first:
the other is checked only when the first fails or holds vacuously. Every
check of the space layer reads the partial-product rule from one place,
the int tables MultiGroupSpace._tables, built on first read from each
group's int table, which the parser hands over as it reads the text;
MultiGroupSpace.product and defined answer by element name for library
users. A space is well-formed when it is built: the constructor refuses a
repeated operation id, a carrier element outside the universe and a table
entry outside it, as the parser does, so validation reports only what a
built space can still get wrong. What every query reads, the element
index, the position of each operation, each carrier's universe positions
and the carrier bitmasks, a space builds when it is constructed.
"""

from __future__ import annotations

from collections import namedtuple
from functools import cached_property, reduce
from itertools import combinations, compress
from operator import itemgetter, or_

from .errors import DomainError, PreconditionError
from .groups import Element, FiniteGroup, _bits, _close, _Frozen, validate_group
from .report import DISTRIBUTION, STRUCTURAL, ValidationReport, Violation

# at most this many witness triples are kept per operation pair
MAX_DISTRIBUTION_WITNESSES = 10


class MultiGroupSpace(_Frozen):
    """A universe and one group per operation, in the file's order."""

    _fields = ("universe", "groups")

    def __init__(self, universe: tuple[Element, ...], groups: tuple[FiniteGroup, ...]):
        if not universe:
            raise ValueError("universe is empty")
        index = dict(zip(universe, range(len(universe))))
        if len(index) != len(universe):
            raise ValueError("duplicate element in universe")
        op_set = tuple(g.op_id for g in groups)
        positions = dict(zip(op_set, range(len(op_set))))
        if len(positions) != len(op_set):  # a repeated id keeps its last position
            repeated = next(op for k, op in enumerate(op_set) if positions[op] != k)
            raise ValueError(f"operation id {repeated!r} declared twice")
        # each carrier's universe positions, in carrier order, and the
        # bitmask they make; every reader maps a carrier through these
        at = tuple(tuple(map(index.get, g.carrier)) for g in groups)
        for g, where in zip(groups, at):
            if None in where:
                raise ValueError(f"carrier element {g.carrier[where.index(None)]!r} "
                                 f"of {g.op_id!r} not in universe")
            for p in g._ints[1]:  # the products outside the carrier, row-major
                if p not in index:
                    raise ValueError(f"table entry {p!r} of {g.op_id!r} not in universe")
        carriers = tuple(sum(1 << i for i in where) for where in at)
        self.__dict__.update(universe=universe, groups=groups, op_set=op_set,
                             _positions=positions, _index=index, _at=at,
                             _carriers=carriers)

    def _position(self, op_id: str) -> int:
        """The index in groups of the operation's group."""
        try:
            return self._positions[op_id]
        except KeyError:
            raise DomainError(f"unknown operation {op_id!r}") from None

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
        Each row is gathered from the group's own int table (_ints), which
        the parser hands over as it reads the text: its columns in universe
        order, then each entry mapped to its universe position. Both maps
        come from the carrier's universe positions (_at), which the
        constructor keeps, so only products outside the carrier are looked
        up by name. Where carrier index i is universe index i, a row is the
        group's row padded with undefined columns. The constructor
        guarantees that every product lies in the universe.
        """
        n, index = len(self.universe), self._index
        tables = []
        for g, where in zip(self.groups, self._at):
            t, escaped = g._ints
            size = len(t)  # the column index that stands for "not in g"
            at = [*where, *map(index.__getitem__, escaped), n]
            if not escaped and at == [*range(size), n]:
                pad = [n] * (n + 1 - size)
                tables.append([row + pad for row in t] +
                              [[n] * (n + 1) for _ in range(n + 1 - size)])
                continue
            col = [size] * n  # the carrier index of each universe element
            for i, x in enumerate(where):
                col[x] = i
            cols = itemgetter(*col, size)
            rows = [[n] * (n + 1) if i == size else
                    list(map(at.__getitem__, cols(t[i] + [size])))
                    for i in col]
            tables.append(rows + [[n] * (n + 1)])
        return tuple(tables)

    def _mask(self, elements) -> int:
        return sum(1 << i for i in {self.index(e) for e in elements})

    def _elements(self, mask: int) -> tuple[Element, ...]:
        """The members of a universe bitmask in universe order; the bit of
        the undefined product, len(universe), is dropped."""
        n = len(self.universe)
        return tuple(self.universe[i] for i in _bits(mask) if i < n)

    @cached_property
    def _memo(self) -> dict:
        # results derived from this frozen space, by keys tagged with their
        # kind, so they are freed with it; written only by _kept
        return {}

    def _kept(self, key: tuple, compute):
        """The result kept under key, a tuple whose first entry names its
        kind: compute() on the first call, stored only once it returns, so
        a compute that raises keeps nothing and every call raises alike."""
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    @cached_property
    def _validation(self) -> ValidationReport:
        # the space is frozen, so it is validated once; read it through
        # validate_multigroup
        return _validate(self)

    def group_of(self, op_id: str) -> FiniteGroup:
        return self.groups[self._position(op_id)]

    def defined(self, op_id: str, a: Element, b: Element) -> bool:
        g = self.group_of(op_id)
        return a in g and b in g

    def product(self, op_id: str, a: Element, b: Element) -> Element | None:
        """The partial product, or None when it is undefined."""
        g = self.group_of(op_id)
        if a in g and b in g:
            return g.mul(a, b)
        return None


def is_complete(ms: MultiGroupSpace, subset, op_id: str) -> bool:
    """Closure of the partial operation restricted to the subset.

    True iff every defined product of two subset members lands back in the
    subset. Members outside the universe lie in no carrier and are ignored.
    The closure kernel answers: it stops at the first product outside.
    """
    t = ms._tables[ms._position(op_id)]
    sub = ms._mask(e for e in subset if e in ms._index)
    ok = sub | 1 << len(ms.universe)  # undefined is fine
    return not _close((t,), 0, sub, None, ok) & ~ok


class LawCheck(namedtuple("LawCheck", [
        "distributor", "other", "holds", "vacuous", "tested",
        "witnesses",  # tuple[tuple[Element, Element, Element], ...]
])):
    """One direction of the distribution check: distributor over other."""

    __slots__ = ()


def _getter(indices):
    """itemgetter over the indices that returns a tuple of at least two
    entries: one index is doubled, where itemgetter would return a scalar."""
    return itemgetter(*indices) if len(indices) > 1 else \
        itemgetter(indices[0], indices[0])


def _group_inside(ms: MultiGroupSpace, times: int, circ: int) -> bool:
    """Whether * is a group on a carrier inside the o carrier, the shape
    where _endomorphism_pass can decide. * and o are positions."""
    return not ms._carriers[times] & ~ms._carriers[circ] and \
        ms.groups[times]._generators is not None


def _endomorphism_pass(ms: MultiGroupSpace, times: int, circ: int) -> int | None:
    """Whether * distributes over o, decided on the generators of both: the
    number of laws tested when it does; None when the pass does not apply
    or does not decide. * and o are positions.

    It applies when * is a group on T, o is a group on C, and C is T and
    o's identity e (as in a field), or T = C = {e}. Whether * is a group on
    a T inside C is _group_inside's answer, the one _validate orders each
    pair's directions by. Multiplication by x in T on the left or the
    right, with e -> e, maps C into C, and the maps of a product are
    composites of its factors' maps. A map m of C into C
    with m(z o y) = m(z) o m(y) for each y in C and each generator z != e
    of o is an endomorphism of (C, o), by induction on words in the z. So
    when the maps of Light's generators of * pass, every law with y, z and
    y o z in T holds. Those are the tested laws, 2 |T| (|T|^2 - |T| [e not
    in T]) of them: y o z = e for exactly |T| pairs when e is not in T.
    When a map fails, the scan decides. With e in a larger T the pass
    cannot decide, as an endomorphism fixes e and x * e = e only for *'s
    identity x, so it is skipped.
    """
    g, h = ms.groups[times], ms.groups[circ]
    t_mask, c_mask = ms._carriers[times], ms._carriers[circ]
    if not _group_inside(ms, times, circ) or h._generators is None:
        return None  # * is no group in C, or o is no group
    e = ms.index(h.identity)
    if not (c_mask & ~t_mask == 1 << e or t_mask == c_mask == 1 << e):
        return None
    t, c, cs = ms._tables[times], ms._tables[circ], _bits(c_mask)
    xs = [ms._at[times][i] for i in g._generators if g.carrier[i] != g.identity]
    at_c = _getter(cs)
    zs = [(z, _getter(list(map(c[z].__getitem__, cs))))  # z o y for y in C
          for z in map(ms._at[circ].__getitem__, h._generators) if z != e]
    outside = c_mask != t_mask  # e is not in T; else T = {e} and xs is empty
    for x in xs:
        for m in t[x][:], list(map(itemgetter(x), t)):  # y -> x*y, y -> y*x
            m[e] = e
            at_m = _getter(at_c(m))
            for z, at_zy in zs:
                if at_zy(m) != at_m(c[m[z]]):
                    return None
    size = t_mask.bit_count()
    return 2 * size * (size * size - size * outside)


def _check_one_direction(ms: MultiGroupSpace, times: int, circ: int) -> LawCheck:
    """Test x*(y o z) = (x*y) o (x*z) and its right-hand mirror, where * and
    o are the operations at positions times and circ.

    Only triples with every intermediate product defined count; a triple
    with any undefined product is skipped entirely. A law is tested exactly
    when both of its sides are defined, and that depends on carriers alone:
    x lies in the * carrier, y and z in both, y o z in the * carrier, and
    x*y, x*z (left law) or y*x, z*x (right law) in the o carrier. So
    `tested` is a bit count of two z-bitmasks per (x, y). The comparison
    builds both sides of each law for every z at once, as tuples over rows
    of the space's int tables, and only an (x, y) whose tuples differ is
    walked z by z. Witnesses come in (x, y, z) order, and the walk stops
    once MAX_DISTRIBUTION_WITNESSES are found; the count does not. When no
    y has a z, no law is defined and no row of * is read.

    Before the scan, when * is a group and o is one too, on the * carrier
    and its own identity, _endomorphism_pass decides the direction on the
    generators of both operations; the scan runs only when it does not.
    """
    t, c, u = ms._tables[times], ms._tables[circ], ms.universe
    n = len(u)
    t_mask, in_c = ms._carriers[times], ms._carriers[circ]
    ids = ms.groups[times].op_id, ms.groups[circ].op_id
    if not t_mask & in_c:  # no y lies in both carriers
        return LawCheck(*ids, holds=True, vacuous=True, tested=0, witnesses=())
    if (decided := _endomorphism_pass(ms, times, circ)) is not None:
        return LawCheck(*ids, holds=True, vacuous=decided == 0, tested=decided,
                        witnesses=())
    both = _bits(t_mask & in_c)
    is_t = [t_mask >> i & 1 for i in range(n + 1)]  # index n: undefined
    bits = [1 << z for z in both]
    # per y: the z where y o z is defined and lies in the * carrier
    per_y = []
    for y in both:
        yz = list(map(c[y].__getitem__, both))
        keep = list(map(is_t.__getitem__, yz))
        if any(keep):
            zs = list(compress(both, keep))
            per_y.append((y, zs, sum(compress(bits, keep)),
                          _getter(zs), _getter(list(compress(yz, keep)))))
    if not per_y:
        return LawCheck(*ids, holds=True, vacuous=True, tested=0, witnesses=())
    is_c = [in_c >> i & 1 for i in range(n + 1)]
    tested = 0
    witnesses: list[tuple[Element, Element, Element]] = []
    for x in _bits(t_mask):
        tx, cx = t[x], list(map(itemgetter(x), t))  # cx[y] = t[y][x]
        x_left = sum(compress(bits, map(is_c.__getitem__, map(tx.__getitem__, both))))
        x_right = sum(compress(bits, map(is_c.__getitem__, map(cx.__getitem__, both))))
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
    return LawCheck(*ids, holds=not witnesses, vacuous=tested == 0,
                    tested=tested, witnesses=tuple(witnesses))


class DistributionCheck(namedtuple("DistributionCheck",
                                   ["op_a", "op_b", "a_over_b", "b_over_a"])):
    """Both directions of the distribution check of one operation pair."""

    __slots__ = ()


def check_distribution(ms: MultiGroupSpace, op_a: str, op_b: str) -> DistributionCheck:
    """Both directions of one pair's distribution check: each operation
    over the other, in both the left and right law, wherever products
    exist. The pair verdict, one holding direction sufficing, is
    validate_multigroup's."""
    if op_a == op_b:
        raise DomainError("distribution check needs two distinct operations")
    a, b = ms._position(op_a), ms._position(op_b)
    return DistributionCheck(op_a, op_b, _check_one_direction(ms, a, b),
                             _check_one_direction(ms, b, a))


def validate_multigroup(ms: MultiGroupSpace) -> ValidationReport:
    """Full validity check: structure, per-group axioms, pairwise distribution.

    Structural problems (orphan universe elements) are reported separately
    from axiom and distribution failures; a repeated operation id, a
    carrier element outside the universe and a table entry outside it never
    get this far, as the constructor refuses them. The check runs once per
    space, and every call returns the same immutable report.
    """
    return ms._validation


def _validate(ms: MultiGroupSpace) -> ValidationReport:
    found, notes = [], []

    orphans = ms._elements((1 << len(ms.universe)) - 1 & ~reduce(or_, ms._carriers, 0))
    if orphans:
        found.append(Violation(STRUCTURAL, "orphan-element",
                               f"universe element {orphans[0]!r} belongs to no carrier",
                               (), orphans))

    for g in ms.groups:
        found.extend(validate_group(g).violations)

    # an orphan is the one structural violation a built space can hold;
    # with one the universe is no union of the carriers, so distribution
    # is not scanned
    if not orphans:
        for a, b in combinations(range(len(ms.groups)), 2):
            # b over a first when only b is a group on a carrier inside a's,
            # the shape where _endomorphism_pass can decide
            flip = _group_inside(ms, b, a) and not _group_inside(ms, a, b)
            first = _check_one_direction(ms, *((b, a) if flip else (a, b)))
            if first.holds and first.tested:
                continue  # the pair distributes, and not vacuously
            second = _check_one_direction(ms, *((a, b) if flip else (b, a)))
            ida, idb = ms.groups[a].op_id, ms.groups[b].op_id
            if first.vacuous and second.vacuous:
                notes.append(
                    f"distribution for ({ida}, {idb}) holds vacuously: "
                    f"no fully defined mixed triple")
            if not (first.holds or second.holds):
                # both were scanned and failed; witnesses of a over b first
                a_over_b, b_over_a = (second, first) if flip else (first, second)
                merged = list(dict.fromkeys(a_over_b.witnesses + b_over_a.witnesses))
                for w in merged[:MAX_DISTRIBUTION_WITNESSES]:
                    found.append(Violation(DISTRIBUTION, "distribution",
                                           f"neither {ida!r} nor {idb!r} distributes "
                                           f"over the other at ({', '.join(w)})",
                                           (ida, idb), w))
    return ValidationReport(tuple(found), tuple(notes))


# carrier conventions recognised by the field classification
CONVENTION_EXACT = "exact"
CONVENTION_IDENTITY_EXCLUDED = "identity-excluded"


class Classification(namedtuple("Classification", [
        "tag",          # group | field | general
        "convention",   # str | None
], defaults=(None,))):
    __slots__ = ()


def classify_special_case(ms: MultiGroupSpace) -> Classification:
    """Name the classical structure a valid space degenerates to.

    One operation is a plain group. With two operations the space is a
    field when both carriers fill the universe, either exactly or up to the
    usual convention that one carrier omits the other operation's identity
    (the multiplicative group of a field). Everything else is tagged
    general.

    The carriers decide alone: in a valid finite space of either
    convention both groups are abelian, so no skew field (a body) occurs.
    Exact convention, with * distributing over o, whose identity is e:
    x*(e o e) = (x*e) o (x*e) gives x*e = e for every x, so |U| = 1.
    Identity-excluded convention, + on U and * on U without 0: at |U| <= 2
    both groups are abelian outright. Otherwise "+ over *" fails: with
    y = z = 1, the identity of *, and any x not 0 or -1 it reads
    x+1 = (x+1)*(x+1), so x = 0. Under "* over +" each left and each right
    multiplication L, with 0 -> 0, is additive: for y != 0 and w not 0 or
    y, L(w) = L(y) + L(-y+w) and L(-y+w) = L(-y) + L(w) give
    L(y) + L(-y) = 0. Then (1+1)*(a+b) expanded both ways makes + abelian,
    so U is a finite division ring and, by Wedderburn's little theorem
    (1905), a field. tests/test_spaces.py searches both conventions
    exhaustively on small universes for a counterexample.
    """
    if not validate_multigroup(ms).ok:
        raise PreconditionError("classification requires a valid multi-group space")
    if len(ms.groups) == 1:
        return Classification("group")
    if len(ms.groups) == 2:
        g1, g2 = ms.groups
        full = (1 << len(ms.universe)) - 1
        c1, c2 = ms._carriers
        if c1 == full and c2 == full:
            return Classification("field", CONVENTION_EXACT)
        if (c1 == full and c2 == full & ~(1 << ms._index[g1.identity])
                or c2 == full and c1 == full & ~(1 << ms._index[g2.identity])):
            return Classification("field", CONVENTION_IDENTITY_EXCLUDED)
    return Classification("general")
