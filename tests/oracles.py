"""Independent brute-force oracles.

Everything here works on raw carrier lists and product dictionaries pulled
out of the structures under test, sharing no decision logic with the
engine: subgroup enumeration is an unpruned scan over all subsets, chains
are enumerated by direct recursion, and the subspace criterion multiplies
out every per-operation candidate assignment.

scan_subgroups, scan_closed_parts, scan_closed_subsets, scan_element_joins,
scan_word_joins, scan_validate_group, scan_interposable, scan_link_carriers,
scan_choices, scan_space_lattice, scan_lattice_filter,
scan_is_finitely_generated, scan_composition_series, scan_is_abelian,
scan_proper_normal_subgroups, scan_maximal_proper_normal_subgroups,
scan_maximal, scan_parse_instance, the staged series walk
(scan_series_stages, scan_build_series, scan_maximal_series) and the five
string-keyed product scans are the exceptions: they are code the engine
replaced, kept verbatim as oracles for their replacements.
scan_subgroups is the divisor-filtered subset scan used before cyclic
extension (the engine's is_subgroup on every identity-holding subset of
divisor size); scan_closed_parts is the string-keyed closure and join loop
the completeness route used before the bitmask closure kernel;
scan_closed_subsets joins every two closed sets found, as the lattice and
the completeness route did before they joined closed sets with element
closures only, and returns the union of the closures it dropped;
scan_element_joins joins each closed set with every element closure, as
they did before a group's closed set was joined once per coset;
scan_word_joins joins a group's closed set once per coset, builds each
join as the closure of words over its generators and closes every element
of a cyclic group, as _closed_subsets did before it walked each join over
cosets and read a cyclic group's element closures off one generator's
powers;
scan_validate_group checks the group axioms with string-keyed products, as
validate_group did before it read the int table; scan_interposable tries
every subset between a series link and its parent, as the interposition
search did before it enumerated unions of subgroups; the staged series
walk builds an induced space for every link and checks the link in it, as
the series constructions did before they walked universe bitmasks and
carrier tuples of the top-level space, and it decides interposition with
scan_interposable; scan_maximal_series returns the engine's record, its
accepted series and its rejected ones with the reason, so the two
enumerations compare whole; scan_link_carriers decomposes every link in
full and conjugation-tests it on every carrier, and scan_choices tests every
lattice member inside a part for normality, abelian or not, as the walk's
steps and choices did before they decided by the structure of the step
and took a part's choices from its prime-index quotients;
scan_space_lattice remaps a group's whole lattice into universe indices,
once per operation in the space's memo, and scan_lattice_filter keeps its
maximal members inside a set, as MultiGroupSpace._lattice and
subspaces._lattice_part_candidates did before the series walk and the
intersection route ran the closure kernel on the set asked about;
scan_is_finitely_generated scans every subset of the universe by size, as
the generating-set search did before it split the universe into connected
components; scan_composition_series recurses on the restricted group of
every maximal normal subgroup, found by the string scan, as
composition_series did before it filtered the top-level lattice to each
link and then took each link's maximal normal subgroups from its
prime-index quotients; scan_is_abelian compares
string-keyed products, as FiniteGroup.is_abelian did before it compared
the int table with its transpose; scan_maximal compares every mask with
every other, as groups._maximal did before it kept masks largest first;
scan_proper_normal_subgroups and scan_maximal_proper_normal_subgroups
filter the named lattice with a conjugation scan over every element of
the carrier or of `within`, as their engine namesakes did before they ran
on lattice bitmasks, and the maximal ones on a group before they came from
the prime-index quotients. scan_check_one_direction,
scan_is_complete, scan_span_once, scan_coset and scan_is_normal_subspace
test carrier membership and multiply with FiniteGroup.mul, as the
distribution scan, the raw reading, the one-step span, cosets and the
conjugation scan did before they read MultiGroupSpace._tables.
scan_validate scans both distribution directions of every operation pair
with _check_one_direction, by position, and applies the pair rule itself,
as validation did before it scanned the second direction only when the
first does not settle the pair. scan_ints,
scan_inverses and scan_tables build the int tables entry by entry, as
FiniteGroup._ints, FiniteGroup._inverses and MultiGroupSpace._tables did
before they gathered whole rows. scan_parse_instance reads the string
tables a row at a time and checks each row's entries against the
universe, as parse_instance did before it mapped each entry to its
carrier index and handed each group its int table.

subset_op_combinations is the one enumerator of (subset, retained ops)
pairs, shared by the tests and scripts/subspace_census.py.
"""

from collections.abc import Iterator
from itertools import combinations, product

from multigroup.config import DEFAULT_LIMITS, Limits
from multigroup.errors import (DomainError, InternalConsistencyError, ParseError,
                               PreconditionError)
from multigroup.generation import GenerationWitness, GeneratingSet, span_closure
from multigroup.groups import (CompositionChain, Element, FiniteGroup, _bits, _close,
                               _maximal, _normalises, _proper_normal,
                               is_subgroup, validate_group, subgroups)
from multigroup.report import (AXIOM, DISTRIBUTION, STRUCTURAL, ValidationReport,
                               Violation)
from multigroup.series import (ANOMALY_CARRIER_LOST, ANOMALY_REJECTED_STEP,
                               ANOMALY_TERMINAL_MISMATCH, MaximalSeriesResult,
                               NormalityEvidence, NormalSeries, _check_preconditions,
                               _induced, is_normal_subspace)
from multigroup.spaces import (MAX_DISTRIBUTION_WITNESSES, MultiGroupSpace,
                               _check_one_direction)
from multigroup.subspaces import (SubspaceEvidence, SubsetRef, induced_space,
                                  is_subspace, subspace_decomposition)


def raw_group(g):
    """(elements, product dict, identity) extracted from a Cayley table."""
    mul = {(a, b): g.table[i][j]
           for i, a in enumerate(g.carrier)
           for j, b in enumerate(g.carrier)}
    return list(g.carrier), mul, g.identity


def _sort_key(within, elements) -> tuple[int, ...]:
    """Indices in a group's carrier or a space's universe, in order."""
    return tuple(sorted(within.index(e) for e in elements))


def _sorted_elements(within, elements) -> tuple[Element, ...]:
    return tuple(sorted(elements, key=within.index))


def subset_op_combinations(ms):
    """Every constructible (subset, retained ops) pair over a space."""
    for r in range(0, len(ms.universe) + 1):
        for elems in combinations(ms.universe, r):
            present = [op for op in ms.op_set
                       if set(elems) & set(ms.group_of(op).carrier)]
            for k in range(1, len(present) + 1):
                for ops in combinations(present, k):
                    yield SubsetRef.of(ms, elems, ops)


def scan_ring_axioms(elements, add, mul) -> list[str]:
    """The ring axioms that add and mul break on the elements, by an
    unpruned scan of every pair and triple; a ring with a one breaks none."""
    es = list(elements)
    pairs, triples = list(product(es, repeat=2)), list(product(es, repeat=3))
    zeros = [z for z in es if all(add(z, a) == a for a in es)]
    laws = {
        "closure": all(add(a, b) in es and mul(a, b) in es for a, b in pairs),
        "additive associativity": all(add(add(a, b), c) == add(a, add(b, c))
                                      for a, b, c in triples),
        "additive commutativity": all(add(a, b) == add(b, a) for a, b in pairs),
        "zero": bool(zeros),
        "negatives": bool(zeros) and all(any(add(a, b) == zeros[0] for b in es) for a in es),
        "multiplicative associativity": all(mul(mul(a, b), c) == mul(a, mul(b, c))
                                            for a, b, c in triples),
        "one": any(all(mul(u, a) == a == mul(a, u) for a in es) for u in es),
        "left distributivity": all(mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
                                   for a, b, c in triples),
        "right distributivity": all(mul(add(a, b), c) == add(mul(a, c), mul(b, c))
                                    for a, b, c in triples),
    }
    return [law for law, holds in laws.items() if not holds]


def _inverses(elems, mul, identity):
    inv = {}
    for a in elems:
        for b in elems:
            if mul[(a, b)] == identity and mul[(b, a)] == identity:
                inv[a] = b
                break
    return inv


def _closed(sub, mul, inv):
    return all(inv[a] in sub and mul[(a, b)] in sub for a in sub for b in sub)


def brute_subgroups(elems, mul, identity):
    """All subgroups by scanning every subset, no pruning of any kind."""
    inv = _inverses(elems, mul, identity)
    out = []
    for r in range(1, len(elems) + 1):
        for cand in combinations(elems, r):
            s = frozenset(cand)
            if identity in s and _closed(s, mul, inv):
                out.append(s)
    return out


def scan_subgroups(g):
    """subgroups(g) as the exhaustive subset scan with the divisor prefilter."""
    n = g.order
    rest = [e for e in g.carrier if e != g.identity]
    found = []
    # every subgroup contains the identity and has order dividing |G|
    for size in range(1, n + 1):
        if n % size != 0:
            continue
        for extra in combinations(rest, size - 1):
            cand = set(extra)
            cand.add(g.identity)
            if is_subgroup(g, cand):
                found.append(_sorted_elements(g, cand))
    found.sort(key=lambda s: (len(s), _sort_key(g, s)))
    return found


def _closure(g, seed) -> frozenset:
    """Product closure of a seed set inside a group's carrier."""
    cur = set(seed)
    while True:
        new = {g.mul(a, b) for a in cur for b in cur} - cur
        if not new:
            return frozenset(cur)
        cur |= new


def scan_closed_parts(g, allowed: frozenset) -> list[frozenset]:
    """Maximal nonempty product-closed subsets of `allowed` (completeness route).

    Grown by closing single elements and then joins of already-found closed
    sets; any closed set escaping `allowed` is discarded, which prunes every
    superset as well.
    """
    found: set[frozenset] = set()
    frontier: list[frozenset] = []
    for x in sorted(allowed, key=g.index):
        c = _closure(g, {x})
        if c <= allowed and c not in found:
            found.add(c)
            frontier.append(c)
    while frontier:
        fresh: list[frozenset] = []
        for a in list(found):
            for b in frontier:
                if a is b or a >= b:
                    continue
                c = _closure(g, a | b)
                if c <= allowed and c not in found:
                    found.add(c)
                    fresh.append(c)
        frontier = fresh
    return [a for a in found if not any(a < b for b in found)]


def scan_closed_subsets(t: list[list[int]], within: int) -> tuple[list[int], int]:
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


def scan_element_joins(t: list[list[int]], within: int,
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


def scan_word_joins(t: list[list[int]], within: int,
                    group: bool = False) -> dict[int, list[int]]:
    """Every nonempty product-closed subset of `within`, as bitmasks in the
    order found, each with the elements it was joined from, which generate it.

    True cyclic extension (Neubüser 1960): closes each element of `within`,
    then joins each closed set found with each element closure not inside
    it, memoised on their union; a closure stops at its first bit outside
    `within` and is dropped. Exact on any table: a closed set S is the join
    of its elements' closures added one at a time, each partial join inside
    S. With `group` (the table is a group) a closure is built as words over
    the elements its set was joined from, and a closed set a is joined once
    per coset x a: a is a subgroup, so <a, x h> = <a, x> for h in a, and
    that join is found already or leaves `within`. On a group, `within`
    is cyclic when an element closure fills it, and then every closed set
    in it is a subgroup of a cyclic group, so an element closure: no join
    can find a new one, and none is made.
    """
    gens: dict[int, list[int]] = {}  # each closed set found: the elements joined into it
    for x in _bits(within):
        c = _close((t,), 0, 1 << x, [x] if group else None, within)
        if not c & ~within:
            gens.setdefault(c, [x])
    if group and within in gens:
        return gens
    cyclic = list(gens.items())
    found = list(gens)
    tried: set[int] = set()  # the closure of a union depends on nothing else
    for a in found:  # also visits the sets appended meanwhile
        joined, members = a, _bits(a)  # the x whose join with a is known
        for c, (x,) in cyclic:
            if joined >> x & 1:
                continue
            if group:
                joined |= sum({1 << p for p in map(t[x].__getitem__, members)})
            union = a | c
            if union in tried or union in gens:
                continue
            tried.add(union)
            g = gens[a] + [x]
            j = _close((t,), a, a | 1 << x, g if group else None, within)
            if not j & ~within and j not in gens:
                gens[j] = g
                found.append(j)
    return gens


def brute_is_normal(sub, elems, mul, inv):
    return all(mul[(mul[(g, h)], inv[g])] in sub for g in elems for h in sub)


def brute_composition_chains(elems, mul, identity):
    """All maximal descending normal chains, by direct recursion."""
    if len(elems) == 1:
        return [[frozenset(elems)]]
    inv = _inverses(elems, mul, identity)
    subs = brute_subgroups(elems, mul, identity)
    normals = [s for s in subs
               if len(s) < len(elems) and brute_is_normal(s, elems, mul, inv)]
    maximal = [n for n in normals if not any(n < m for m in normals)]
    chains = []
    whole = frozenset(elems)
    for n in maximal:
        inner = [e for e in elems if e in n]
        inner_mul = {(a, b): mul[(a, b)] for a in n for b in n}
        for tail in brute_composition_chains(inner, inner_mul, identity):
            chains.append([whole] + tail)
    return chains


def scan_composition_series(g, limits: Limits = DEFAULT_LIMITS):
    """All composition series of g, recursing on restricted groups."""
    whole = _sorted_elements(g, g.carrier)
    if g.order == 1:
        return [CompositionChain((whole,))]
    chains = []
    for n in scan_maximal_proper_normal_subgroups(g, limits):
        for tail in scan_composition_series(g.restrict(n), limits):
            chains.append(CompositionChain((whole,) + tail.links))
    return chains


def _scan_is_normal_subgroup(g: FiniteGroup, subset, within=None) -> bool:
    members = sorted({g.index(e) for e in subset})
    if not is_subgroup(g, (g.carrier[a] for a in members)):
        raise PreconditionError("normality requires a subgroup")
    mask, t, n = sum(1 << a for a in members), g._ints[0], g.order
    for x in range(n) if within is None else map(g.index, within):
        xi, row = g._inverse_of(x), t[x]
        for h in members:
            if row[h] >= n:
                g.index(g.table[x][h])  # raises, naming the product
            if not mask >> t[row[h]][xi] & 1:
                return False
    return True


def scan_proper_normal_subgroups(g: FiniteGroup, limits: Limits = DEFAULT_LIMITS,
                                 within=None) -> list[tuple[Element, ...]]:
    top = set(g.carrier if within is None else within)
    return [s for s in subgroups(g, limits)
            if len(s) < len(top) and top.issuperset(s)
            and _scan_is_normal_subgroup(g, s, within)]


def scan_maximal_proper_normal_subgroups(g: FiniteGroup, limits: Limits = DEFAULT_LIMITS,
                                         within=None) -> list[tuple[Element, ...]]:
    normals = scan_proper_normal_subgroups(g, limits, within)
    sets = [set(s) for s in normals]
    return [s for s, ss in zip(normals, sets)
            if not any(ss < other for other in sets)]


def scan_maximal(masks: list[int]) -> list[int]:
    return [m for m in masks if not any(m != o and m & o == m for o in masks)]


def scan_is_abelian(g) -> bool:
    return all(g.mul(a, b) == g.mul(b, a) for a in g.carrier for b in g.carrier)


def prime_factor_count(n):
    """Omega(n): composition length of any solvable group of order n."""
    count, d = 0, 2
    while n > 1:
        while n % d == 0:
            n //= d
            count += 1
        d += 1
    return count


def _space_groups(ms):
    return {g.op_id: raw_group(g) for g in ms.groups}


def brute_subspace(ms, elements, ops):
    """Cover existence by trying every per-op choice of inside subgroup."""
    if not elements or not ops:
        return False
    target = frozenset(elements)
    groups = _space_groups(ms)
    families = []
    for op in ops:
        elems, mul, identity = groups[op]
        inside = [s for s in brute_subgroups(elems, mul, identity) if s <= target]
        if not inside:
            return False
        families.append(inside)
    return any(frozenset().union(*pick) == target for pick in product(*families))


def brute_span_closure(ms, seeds):
    groups = [raw_group(g) for g in ms.groups]
    current = frozenset(seeds)
    while True:
        grown = set(current)
        for elems, mul, _ in groups:
            members = [e for e in current if e in elems]
            for a in members:
                for b in members:
                    grown.add(mul[(a, b)])
        if frozenset(grown) == current:
            return current
        current = frozenset(grown)


def _string_inverses(g):
    inv = {}
    for a in g.carrier:
        for b in g.carrier:
            if g.mul(a, b) == g.identity and g.mul(b, a) == g.identity:
                inv[a] = b
                break
    return inv


def scan_validate_group(g) -> ValidationReport:
    """Check all four group axioms, reporting one witness per violated axiom.

    A table entry outside the carrier is a closure failure, reported at the
    first one in row-major order, and the other axioms are not checked.
    """
    found = []
    members = set(g.carrier)

    closure_witness = None
    for a in g.carrier:
        for b in g.carrier:
            p = g.table[g.index(a)][g.index(b)]
            if p not in members:
                closure_witness = closure_witness or (a, b, p)
    if closure_witness:
        a, b, p = closure_witness
        found.append(Violation(AXIOM, "closure",
                               f"{a} {g.op_id} {b} = {p} is outside the carrier",
                               (g.op_id,), (a, b, p)))
        return ValidationReport(tuple(found))  # the other axioms need a closed table

    for a in g.carrier:
        if g.mul(g.identity, a) != a or g.mul(a, g.identity) != a:
            found.append(Violation(AXIOM, "identity",
                                   f"{g.identity} is not an identity at {a}",
                                   (g.op_id,), (a,)))
            break

    assoc_witness = None
    for a in g.carrier:
        if assoc_witness:
            break
        for b in g.carrier:
            if assoc_witness:
                break
            for c in g.carrier:
                if g.mul(g.mul(a, b), c) != g.mul(a, g.mul(b, c)):
                    assoc_witness = (a, b, c)
                    break
    if assoc_witness:
        a, b, c = assoc_witness
        found.append(Violation(
            AXIOM, "associativity",
            f"({a} {g.op_id} {b}) {g.op_id} {c} != {a} {g.op_id} ({b} {g.op_id} {c})",
            (g.op_id,), (a, b, c)))

    inverses = _string_inverses(g)
    for a in g.carrier:
        if a not in inverses:
            found.append(Violation(AXIOM, "inverse",
                                   f"{a} has no inverse under {g.op_id!r}",
                                   (g.op_id,), (a,)))
            break

    return ValidationReport(tuple(found))


def _strict_subsets_between(lower: frozenset, upper):
    """All E with lower < E < set(upper), by adding nonempty proper subsets."""
    extra = [e for e in upper if e not in lower]
    for size in range(1, len(extra)):
        for add in combinations(extra, size):
            yield lower | set(add)


def scan_interposable(ms, upper_space, lower):
    """Search for a normal subspace strictly between a link and its parent.

    Returns the witness subset if one interposes, else None. Exhaustive
    over the 2^|gap| subsets of the gap between link and parent.
    """
    lower_set = frozenset(lower.elements)
    for elems in _strict_subsets_between(lower_set, upper_space.universe):
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


def scan_space_lattice(ms: MultiGroupSpace, k: int) -> dict[int, list[int]]:
    """groups[k]'s lattice over universe indices: each subgroup as a
    bitmask, in lattice order, with the indices of its generators. The
    group's own dict when carrier index i is universe index i, as in a
    single-group space, kept on the space through _kept. Callers check the
    order bound and only read it."""
    def remap():
        g = ms.groups[k]
        at = [ms.index(e) for e in g.carrier]
        return g._lattice if at == list(range(len(at))) else {
            sum(1 << at[i] for i in _bits(m)): [at[i] for i in gens]
            for m, gens in g._lattice.items()}

    return ms._kept(("lattice", k), remap)


def scan_lattice_filter(ms: MultiGroupSpace, k: int, allowed: int) -> list[int]:
    """Maximal subgroups of groups[k] inside `allowed` (the intersection
    route), as universe bitmasks, read off the lattice cached on the space."""
    return _maximal([m for m in scan_space_lattice(ms, k) if not m & ~allowed])


def _scan_normalised(ms: MultiGroupSpace, members: int, carriers: tuple[int, ...]) -> bool:
    """Whether each carrier conjugates the members inside it onto themselves,
    by the generators the lattice keeps for the carrier, abelian or not."""
    return all(_normalises(ms._tables[k], x, _bits(members & carrier))
               for k, carrier in enumerate(carriers) if members & carrier
               for x in scan_space_lattice(ms, k)[carrier])


def scan_link_carriers(ms: MultiGroupSpace, carriers: tuple[int, ...], link: int):
    """The carriers of the space induced on a link, which must be a normal
    subspace of its parent, the space with the given carriers."""
    inner = _induced(ms, carriers, link)
    if inner is None or not _scan_normalised(ms, link, carriers):
        relation = "a subspace of" if inner is None else "normal in"
        raise InternalConsistencyError(
            f"constructed link {ms._elements(link)!r} is not {relation} its parent")
    return inner


def scan_choices(ms: MultiGroupSpace, k: int, part: int) -> list[int]:
    """The maximal proper normal subgroups of op k's part, canonically
    smallest first, normality tested with the part's generators."""
    lattice = scan_space_lattice(ms, k)
    return sorted(_maximal(_proper_normal(ms._tables[k], lattice, part, lattice[part])),
                  key=_bits)


def scan_check_one_direction(ms: MultiGroupSpace, times: str, circ: str) -> tuple[int, tuple]:
    """Test x*(y o z) = (x*y) o (x*z) and its right-hand mirror: the number
    of laws tested and the first witnesses of those that fail.

    Only triples with every intermediate product defined count; a triple
    with any undefined product is skipped entirely.
    """
    gt = ms.group_of(times)
    gc = ms.group_of(circ)
    tested = 0
    witnesses: list[tuple[Element, Element, Element]] = []

    def witness(x, y, z):
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
    return tested, tuple(witnesses)


def scan_validate(ms: MultiGroupSpace) -> ValidationReport:
    """Structure, per-group axioms, then both distribution directions of
    every operation pair."""
    found, notes = [], []

    covered = set()
    for g in ms.groups:
        covered.update(g.carrier)
    orphans = [e for e in ms.universe if e not in covered]
    if orphans:
        found.append(Violation(STRUCTURAL, "orphan-element",
                               f"universe element {orphans[0]!r} belongs to no carrier",
                               (), tuple(orphans)))

    for g in ms.groups:
        found.extend(validate_group(g).violations)

    if not any(v.category == STRUCTURAL for v in found):
        for (a, ga), (b, gb) in combinations(enumerate(ms.groups), 2):
            a_tested, a_over_b = _check_one_direction(ms, a, b)
            b_tested, b_over_a = _check_one_direction(ms, b, a)
            # the pair is vacuous when both directions test no law, and one
            # direction without a witness suffices
            if not (a_tested or b_tested):
                notes.append(
                    f"distribution for ({ga.op_id}, {gb.op_id}) holds vacuously: "
                    f"no fully defined mixed triple")
            if a_over_b and b_over_a:
                merged = list(dict.fromkeys(a_over_b + b_over_a))
                for w in merged[:MAX_DISTRIBUTION_WITNESSES]:
                    found.append(Violation(DISTRIBUTION, "distribution",
                                           f"neither {ga.op_id!r} nor {gb.op_id!r} distributes "
                                           f"over the other at ({', '.join(w)})",
                                           (ga.op_id, gb.op_id), w))
    return ValidationReport(tuple(found), tuple(notes))


def scan_ints(g: FiniteGroup) -> tuple[list[list[int]], tuple[Element, ...]]:
    """g's table over carrier indices, each product outside the carrier
    given the next index past it in row-major order, absorbing."""
    n, index = g.order, dict(g._index)
    t = [[index.setdefault(p, len(index)) for p in row] for row in g.table]
    size = len(index)
    t = [row + list(range(n, size)) for row in t] + \
        [[k] * size for k in range(n, size)]
    return t, tuple(index)[n:]


def scan_inverses(g: FiniteGroup) -> list[int | None]:
    """The first two-sided inverse of each carrier index, or None."""
    t, e, n = scan_ints(g)[0], g.index(g.identity), g.order
    return [next((b for b in range(n) if t[a][b] == e and t[b][a] == e), None)
            for a in range(n)]


def scan_tables(ms: MultiGroupSpace) -> tuple[list[list[int]], ...]:
    """One int table per operation over universe indices, index
    len(universe) for an undefined product, each entry looked up by name."""
    n, u = len(ms.universe), ms.universe
    cols = [[g._index.get(b) for b in u] for g in ms.groups]  # None: not in g
    return tuple([[n if i is None or k is None else ms.index(g.table[i][k])
                   for k in c] + [n] for i in c] + [[n] * (n + 1)]
                 for g, c in zip(ms.groups, cols))


def scan_is_complete(ms: MultiGroupSpace, subset, op_id: str) -> bool:
    """Closure of the partial operation restricted to the subset.

    True iff every defined product of two subset members lands back in the
    subset.
    """
    g = ms.group_of(op_id)
    sub = set(subset)
    inside = [e for e in sub if e in g]
    return all(g.mul(a, b) in sub for a in inside for b in inside)


def scan_span_once(ms: MultiGroupSpace, a: GeneratingSet) -> tuple[Element, ...]:
    """The literal one-step product set: {x o y} over all defined products."""
    out: set[Element] = set()
    for g in ms.groups:
        inside = [e for e in a.seeds if e in g]
        for x in inside:
            for y in inside:
                out.add(g.mul(x, y))
    return _sorted_elements(ms, out)


def scan_is_finitely_generated(ms: MultiGroupSpace,
                               limits: Limits = DEFAULT_LIMITS) -> GenerationWitness:
    """A minimal-cardinality generating set, by increasing-size subset search.

    Finite spaces always generate themselves, so this cannot fail; if the
    search budget runs out before a minimal witness is confirmed, the whole
    universe is returned flagged non-minimal rather than guessing.
    """
    target = set(ms.universe)
    examined = 0
    for size in range(1, len(ms.universe) + 1):
        for seeds in combinations(ms.universe, size):
            examined += 1
            if examined > limits.max_generator_candidates:
                return GenerationWitness(tuple(ms.universe), minimal=False)
            if set(span_closure(ms, GeneratingSet(seeds))) == target:
                return GenerationWitness(seeds, minimal=True)
    return GenerationWitness(tuple(ms.universe), minimal=False)


def scan_coset(ms: MultiGroupSpace, h: SubsetRef, g: Element) -> tuple[Element, ...]:
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
    return _sorted_elements(ms, out)


def scan_is_normal_subspace(ms: MultiGroupSpace, h: SubsetRef) -> NormalityEvidence:
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


def _scan_closed_part_candidates(g: FiniteGroup, allowed: frozenset) -> list[frozenset]:
    """Maximal nonempty product-closed subsets of `allowed` (completeness route).

    Raises DomainError naming the first product outside the carrier, in
    row-major table order, that the closure of an allowed element or of two
    maximal closed sets reaches: exactly what joining every two closed sets
    reaches, as each such join lies inside one of the latter. Closures are
    words only if validation or the lattice already cached Light's verdict:
    on a small allowed set the test costs more than the closures it saves.
    """
    t, outside = g._ints
    within = sum(1 << g.index(e) for e in allowed)
    found = scan_element_joins(t, within, vars(g).get("_light") is not None)
    maximal = [m for m in found
               if not any(m != o and m & o == m for o in found)]
    if outside:
        escaped = 0
        for closed, union in [(0, 1 << x) for x in _bits(within)] + \
                [(a, a | b) for i, a in enumerate(maximal) for b in maximal[:i]]:
            escaped |= _close((t,), closed, union) >> g.order
        if escaped:
            first = outside[(escaped & -escaped).bit_length() - 1]
            raise DomainError(f"{first!r} is not in the carrier of {g.op_id!r}")
    return [frozenset(g.carrier[i] for i in _bits(m)) for m in maximal]


def _scan_lattice_part_candidates(g: FiniteGroup, allowed: frozenset,
                                  limits: Limits) -> list[frozenset]:
    """Maximal subgroups of g inside `allowed` (the intersection route)."""
    inside = [frozenset(s) for s in subgroups(g, limits) if frozenset(s) <= allowed]
    return [s for s in inside if not any(s < t for t in inside)]


def _scan_select_cover(ms: MultiGroupSpace, target: frozenset,
                       candidates_by_op: dict[str, list[frozenset]]):
    """First per-op assignment (canonical order) whose parts cover the target."""
    ops = list(candidates_by_op)
    for op in ops:
        candidates_by_op[op] = sorted(candidates_by_op[op],
                                      key=lambda c: _sort_key(ms, c))
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


def _scan_decomposition(ms: MultiGroupSpace, s: SubsetRef):
    target = frozenset(s.elements)
    if not target or not s.retained_ops:
        return None
    candidates: dict[str, list[frozenset]] = {}
    for op in s.retained_ops:
        g = ms.group_of(op)
        allowed = target & frozenset(g.carrier)
        cands = _scan_closed_part_candidates(g, allowed)
        if not cands:
            return None  # the op cannot contribute a nonempty group
        candidates[op] = cands
    cover = _scan_select_cover(ms, target, candidates)
    if cover is None:
        return None
    return {op: _sorted_elements(ms, cover[op]) for op in s.retained_ops}


def scan_subspace_decomposition(ms: MultiGroupSpace, s: SubsetRef):
    """The canonical per-op part assignment, or None if s is not a subspace.

    Deterministic: operations in operation-set order, candidate parts in
    canonical element order, first full cover wins.
    """
    for e in s.elements:
        ms.index(e)
    return _scan_decomposition(ms, s)


def scan_is_subspace_by_intersection(ms: MultiGroupSpace, s: SubsetRef,
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
        (op, _sorted_elements(ms, target & frozenset(ms.group_of(op).carrier)))
        for op in s.retained_ops)
    if not target or not s.retained_ops:
        return SubspaceEvidence(False, intersections, None,
                                "a subspace needs elements and a retained operation")

    candidates: dict[str, list[frozenset]] = {}
    for op in s.retained_ops:
        g = ms.group_of(op)
        allowed = target & frozenset(g.carrier)
        cands = _scan_lattice_part_candidates(g, allowed, limits)
        if not cands:
            return SubspaceEvidence(
                False, intersections, None,
                f"no subgroup of {op!r} lies inside the subset")
        candidates[op] = sorted(cands, key=lambda c: _sort_key(ms, c))

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
    parts = tuple((op, _sorted_elements(ms, cover[op])) for op in s.retained_ops)
    return SubspaceEvidence(True, intersections, parts)


# ------------------------------------------------------ staged series walk

def _scan_validate_link(parent_space: MultiGroupSpace, elements) -> SubsetRef:
    """A link must be a normal subspace of the space induced on its parent."""
    ref = SubsetRef.of(parent_space, elements)
    if not is_subspace(parent_space, ref):
        raise InternalConsistencyError(
            f"constructed link {tuple(elements)!r} is not a subspace of its parent")
    if not is_normal_subspace(parent_space, ref):
        raise InternalConsistencyError(
            f"constructed link {tuple(elements)!r} is not normal in its parent")
    return ref


def scan_series_stages(ms: MultiGroupSpace, seq, limits: Limits, branch: bool):
    """Generate (chain, step_ops, anomalies, spaces) from the staged programming,
    where spaces[i] is the space induced on chain[i].

    With branch=False only the canonically smallest maximal proper normal
    subgroup is taken at each step (the single-witness mode); with
    branch=True every choice is explored.
    """
    whole = SubsetRef.of(ms, ms.universe)
    if not is_subspace(ms, whole):
        raise PreconditionError("the whole space must validate as a subspace")

    def stages(spaces, current, chain, steps, anomalies, op_index):
        if op_index == len(seq.order):
            yield chain, steps, anomalies, spaces
            return
        op = seq.order[op_index]
        # op's carrier in the space induced on current, not current's
        # decomposition against the top-level carriers
        if op not in spaces[-1].op_set:
            note = f"{ANOMALY_CARRIER_LOST}:{op}"
            yield from stages(spaces, current, chain,
                              steps, anomalies + [note], op_index + 1)
            return
        part = spaces[-1].group_of(op).carrier

        def descend(spaces, current, part, chain, steps, anomalies):
            if len(part) == 1:
                yield from stages(spaces, current, chain, steps,
                                  anomalies, op_index + 1)
                return
            choices = sorted(scan_maximal_proper_normal_subgroups(ms.group_of(op), limits,
                                                                  within=part),
                             key=lambda s: _bits(ms._mask(s)))
            if not branch:
                choices = choices[:1]
            for nxt in choices:
                removed = set(part) - set(nxt)
                new_elements = [e for e in current.elements if e not in removed]
                link = _scan_validate_link(spaces[-1], new_elements)
                new_current = SubsetRef.of(ms, new_elements)
                new_space = induced_space(spaces[-1], link)
                yield from descend(spaces + [new_space], new_current, nxt,
                                   chain + [new_current], steps + [op], anomalies)

        yield from descend(spaces, current, part, chain, steps, anomalies)

    yield from stages([ms], whole, [whole], [], [], 0)


def _scan_finish_series(ms: MultiGroupSpace, seq, chain, steps, anomalies) -> NormalSeries:
    last_identity = ms.group_of(seq.order[-1]).identity
    terminal = chain[-1].elements
    if set(terminal) != {last_identity}:
        anomalies = anomalies + [
            f"{ANOMALY_TERMINAL_MISMATCH}: terminal {{{', '.join(terminal)}}} "
            f"!= {{{last_identity}}}"]
    return NormalSeries(tuple(chain), tuple(steps), tuple(anomalies))


def scan_build_series(ms: MultiGroupSpace, seq, limits: Limits = DEFAULT_LIMITS) -> NormalSeries:
    """build_series over scan_series_stages."""
    _check_preconditions(ms, limits)
    chain, steps, anomalies, _ = next(scan_series_stages(ms, seq, limits, branch=False))
    return _scan_finish_series(ms, seq, chain, steps, anomalies)


def scan_maximal_series(ms: MultiGroupSpace, seq,
                        limits: Limits = DEFAULT_LIMITS) -> MaximalSeriesResult:
    """enumerate_maximal_series over scan_series_stages, deciding every link
    with scan_interposable in the space induced on its parent."""
    _check_preconditions(ms, limits)
    accepted: list[NormalSeries] = []
    rejected: list[tuple[NormalSeries, str]] = []
    seen: set[tuple] = set()
    for chain, steps, anomalies, spaces in scan_series_stages(ms, seq, limits, branch=True):
        series = _scan_finish_series(ms, seq, chain, steps, anomalies)
        key = series.element_chain()
        if key in seen:
            continue
        seen.add(key)
        reason = None
        for upper, lower, parent_space in zip(chain, chain[1:], spaces):
            witness = scan_interposable(ms, parent_space, lower)
            if witness is not None:
                reason = (f"{ANOMALY_REJECTED_STEP}: {{{', '.join(witness)}}} "
                          f"interposes below {{{', '.join(upper.elements)}}}")
                break
        if reason is None:
            accepted.append(series)
        else:
            rejected.append((series, reason))
    return MaximalSeriesResult(tuple(accepted), tuple(rejected))


_SCAN_RESERVED = set(":#,")


def _scan_tokens(line: str) -> list[str]:
    return line.split("#", 1)[0].split()


def _scan_check_token(token: str, lineno: int) -> str:
    if not _SCAN_RESERVED.isdisjoint(token):
        raise ParseError(f"invalid element token {token!r} "
                         f"(':', ',' and '#' are reserved)", lineno)
    return token


def _scan_lines(text: str) -> Iterator[tuple[int, list[str]]]:
    """(line number, tokens) of each line that holds a token."""
    for lineno, raw in enumerate(text.splitlines(), 1):
        if tokens := _scan_tokens(raw):
            yield lineno, tokens


def _scan_keyword_line(tokens: list[str], keyword: str) -> list[str] | None:
    if tokens and tokens[0] == f"{keyword}:":
        return tokens[1:]
    return None


def scan_parse_instance(text: str) -> MultiGroupSpace:
    """Parse instance text, enforcing structural invariants with line numbers;
    the string tables only, read a row at a time."""
    lines = _scan_lines(text)

    first = next(lines, None)
    if first is None:
        raise ParseError("no universe declared")
    lineno, tokens = first
    universe_tokens = _scan_keyword_line(tokens, "elements")
    if universe_tokens is None:
        raise ParseError("expected 'elements:' declaration", lineno)
    if not universe_tokens:
        raise ParseError("universe is empty", lineno)
    known: set[str] = set()
    for tok in universe_tokens:
        _scan_check_token(tok, lineno)
        if tok in known:
            raise ParseError(f"duplicate element {tok!r} in universe", lineno)
        known.add(tok)

    groups = []
    while True:
        item = next(lines, None)
        if item is None:
            break
        lineno, tokens = item
        if len(tokens) != 2 or tokens[0] != "group" or not tokens[1].endswith(":"):
            raise ParseError("expected 'group <op>:'", lineno)
        op_id = tokens[1][:-1]
        if not op_id:
            raise ParseError("empty operation id", lineno)
        if op_id in (g.op_id for g in groups):
            raise ParseError(f"operation id {op_id!r} declared twice", lineno)
        groups.append(_scan_parse_group(lines, op_id, known, lineno))

    return MultiGroupSpace(tuple(universe_tokens), tuple(groups))


def _scan_parse_group(lines: Iterator[tuple[int, list[str]]], op_id: str,
                 universe: set[str], header_line: int) -> FiniteGroup:
    item = next(lines, None)
    carrier_tokens = item and _scan_keyword_line(item[1], "carrier")
    if carrier_tokens is None:
        raise ParseError(f"group {op_id!r} missing 'carrier:' line",
                         item[0] if item else header_line)
    lineno = item[0]
    if not carrier_tokens:
        raise ParseError("carrier is empty", lineno)
    members: set[str] = set()
    for tok in carrier_tokens:
        _scan_check_token(tok, lineno)
        if tok not in universe:
            raise ParseError(f"carrier element {tok!r} not in universe", lineno)
        if tok in members:
            raise ParseError(f"duplicate element {tok!r} in carrier", lineno)
        members.add(tok)
    carrier = tuple(carrier_tokens)

    item = next(lines, None)
    identity_tokens = item and _scan_keyword_line(item[1], "identity")
    if identity_tokens is None:
        raise ParseError(f"group {op_id!r} missing 'identity:' line",
                         item[0] if item else lineno)
    if len(identity_tokens) != 1:
        raise ParseError("identity line must name exactly one element", item[0])
    identity = identity_tokens[0]
    if identity not in members:
        raise ParseError(f"identity {identity!r} not in carrier", item[0])

    item = next(lines, None)
    if item is None or _scan_keyword_line(item[1], "table") is None:
        raise ParseError(f"group {op_id!r} missing 'table:' line",
                         item[0] if item else lineno)
    if _scan_keyword_line(item[1], "table"):
        raise ParseError("'table:' line takes no inline entries", item[0])

    rows: dict[str, tuple[str, ...]] = {}
    for _ in carrier:
        item = next(lines, None)
        if item is None:
            raise ParseError(
                f"table of {op_id!r} has {len(rows)} rows, expected {len(carrier)}")
        lineno, tokens = item
        if not tokens[0].endswith(":"):
            raise ParseError("expected a table row '<element>: <entries>'", lineno)
        label = tokens[0][:-1]
        if label not in members:
            raise ParseError(f"row label {label!r} not in carrier", lineno)
        if label in rows:
            raise ParseError(f"duplicate table row for {label!r}", lineno)
        entries = tokens[1:]
        if len(entries) != len(carrier):
            raise ParseError(
                f"row {label!r} has {len(entries)} entries, expected {len(carrier)}",
                lineno)
        if not universe.issuperset(entries):
            unknown = next(tok for tok in entries if tok not in universe)
            raise ParseError(f"unknown element {unknown!r} in table", lineno)
        rows[label] = tuple(entries)

    table = tuple(rows[label] for label in carrier)
    return FiniteGroup(op_id, carrier, table, identity)
