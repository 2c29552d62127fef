"""Independent brute-force oracles.

Everything here works on raw carrier lists and product dictionaries pulled
out of the structures under test, sharing no decision logic with the
engine: subgroup enumeration is an unpruned scan over all subsets, chains
are enumerated by direct recursion, and the subspace criterion multiplies
out every per-operation candidate assignment.

scan_subgroups, scan_closed_parts, scan_closed_subsets, scan_validate_group,
scan_interposable, scan_is_finitely_generated, scan_composition_series,
scan_is_abelian, scan_proper_normal_subgroups,
scan_maximal_proper_normal_subgroups, the staged series walk (scan_series_stages,
scan_build_series, scan_maximal_series) and the five string-keyed product
scans are the exceptions: they are code the engine replaced, kept verbatim
as oracles for their replacements.
scan_subgroups is the divisor-filtered subset scan used before cyclic
extension (the engine's is_subgroup on every identity-holding subset of
divisor size); scan_closed_parts is the string-keyed closure and join loop
the completeness route used before the bitmask closure kernel;
scan_closed_subsets joins every two closed sets found, as the lattice and
the completeness route did before they joined closed sets with element
closures only, and returns the union of the closures it dropped;
scan_validate_group checks the group axioms with string-keyed products, as
validate_group did before it read the int table; scan_interposable tries
every subset between a series link and its parent, as the interposition
search did before it enumerated unions of subgroups; the staged series
walk builds an induced space for every link and checks the link in it, as
the series constructions did before they walked universe bitmasks and
carrier tuples of the top-level space, and it decides interposition with
scan_interposable;
scan_is_finitely_generated scans every subset of the universe by size, as
the generating-set search did before it split the universe into connected
components; scan_composition_series recurses on the restricted group of
every maximal normal subgroup, as composition_series did before it
filtered the top-level lattice to each link; scan_is_abelian compares
string-keyed products, as FiniteGroup.is_abelian did before it compared
the int table with its transpose; scan_proper_normal_subgroups and
scan_maximal_proper_normal_subgroups filter the named lattice with a
conjugation scan over every element of the carrier or of `within`, as
their engine namesakes did before they ran on lattice bitmasks. scan_check_one_direction,
scan_is_complete, scan_span_once, scan_coset and scan_is_normal_subspace
test carrier membership and multiply with FiniteGroup.mul, as the
distribution scan, the raw reading, the one-step span, cosets and the
conjugation scan did before they read MultiGroupSpace._tables.

subset_op_combinations is the one enumerator of (subset, retained ops)
pairs, shared by the tests and scripts/subspace_census.py.
"""

from itertools import combinations, product

from multigroup.config import DEFAULT_LIMITS, Limits
from multigroup.errors import (DomainError, InternalConsistencyError,
                               PreconditionError)
from multigroup.generation import GenerationWitness, GeneratingSet, span_closure
from multigroup.groups import (CompositionChain, Element, FiniteGroup, _bits, _close,
                               _closed_subsets, is_subgroup,
                               maximal_proper_normal_subgroups, subgroups)
from multigroup.report import AXIOM, STRUCTURAL, ValidationReport
from multigroup.series import (ANOMALY_CARRIER_LOST, ANOMALY_REJECTED_STEP,
                               ANOMALY_TERMINAL_MISMATCH, MaximalSeriesResult,
                               NormalityEvidence, NormalSeries, _check_preconditions,
                               is_normal_subspace)
from multigroup.spaces import MAX_DISTRIBUTION_WITNESSES, LawCheck, MultiGroupSpace
from multigroup.subspaces import (SubspaceEvidence, SubsetRef, induced_space,
                                  is_subspace, subspace_decomposition)


def raw_group(g):
    """(elements, product dict, identity) extracted from a Cayley table."""
    mul = {(a, b): g.table[i][j]
           for i, a in enumerate(g.carrier)
           for j, b in enumerate(g.carrier)}
    return list(g.carrier), mul, g.identity


def raw_space(ms):
    return list(ms.universe), [(g.op_id, *raw_group(g)) for g in ms.groups]


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
    for n in maximal_proper_normal_subgroups(g, limits):
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


def scan_validate_group(g, universe=None) -> ValidationReport:
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
    for a in g.carrier:
        for b in g.carrier:
            p = g.table[g.index(a)][g.index(b)]
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

    for a in g.carrier:
        if g.mul(g.identity, a) != a or g.mul(a, g.identity) != a:
            report.add(AXIOM, "identity",
                       f"{g.identity} is not an identity at {a}",
                       (g.op_id,), (a,))
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
        report.add(AXIOM, "associativity",
                   f"({a} {g.op_id} {b}) {g.op_id} {c} != {a} {g.op_id} ({b} {g.op_id} {c})",
                   (g.op_id,), (a, b, c))

    inverses = _string_inverses(g)
    for a in g.carrier:
        if a not in inverses:
            report.add(AXIOM, "inverse",
                       f"{a} has no inverse under {g.op_id!r}",
                       (g.op_id,), (a,))
            break

    return report


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


def scan_check_one_direction(ms: MultiGroupSpace, times: str, circ: str) -> LawCheck:
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
    found = _closed_subsets(t, within, vars(g).get("_associative", False))
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
    return MaximalSeriesResult(seq, tuple(accepted), tuple(rejected))
