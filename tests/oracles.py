"""Independent brute-force oracles.

Everything here works on raw carrier lists and product dictionaries pulled
out of the structures under test, sharing no decision logic with the
engine: subgroup enumeration is an unpruned scan over all subsets, chains
are enumerated by direct recursion, and the subspace criterion multiplies
out every per-operation candidate assignment.

scan_subgroups, scan_closed_parts, scan_validate_group and
scan_interposable are the exceptions: they are code the engine replaced,
kept verbatim as oracles for their replacements. scan_subgroups is the
divisor-filtered subset scan used before cyclic extension (the engine's
is_subgroup on every identity-holding subset of divisor size);
scan_closed_parts is the string-keyed closure and join loop the
completeness route used before the bitmask closure kernel;
scan_validate_group checks the group axioms with string-keyed products,
as validate_group did before it read the int table; scan_interposable
tries every subset between a series link and its parent, as the
interposition search did before it enumerated unions of subgroups.
"""

from itertools import combinations, product

from multigroup.groups import is_subgroup
from multigroup.report import AXIOM, STRUCTURAL, ValidationReport
from multigroup.series import is_normal_subspace
from multigroup.subspaces import SubsetRef, induced_space, is_subspace


def raw_group(g):
    """(elements, product dict, identity) extracted from a Cayley table."""
    mul = {(a, b): g.table[i][j]
           for i, a in enumerate(g.carrier)
           for j, b in enumerate(g.carrier)}
    return list(g.carrier), mul, g.identity


def raw_space(ms):
    return list(ms.universe), [(g.op_id, *raw_group(g)) for g in ms.groups]


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
                found.append(g.sorted_elements(cand))
    found.sort(key=lambda s: (len(s), g.sort_key(s)))
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
