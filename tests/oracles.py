"""Independent brute-force oracles.

Everything here works on raw carrier lists and product dictionaries pulled
out of the structures under test, sharing no decision logic with the
engine: subgroup enumeration is an unpruned scan over all subsets, chains
are enumerated by direct recursion, and the subspace criterion multiplies
out every per-operation candidate assignment.

scan_subgroups and scan_closed_parts are the exceptions: they are code
the engine replaced, kept verbatim as oracles for their replacements.
scan_subgroups is the divisor-filtered subset scan used before cyclic
extension (the engine's is_subgroup on every identity-holding subset of
divisor size); scan_closed_parts is the string-keyed closure and join loop
the completeness route used before the bitmask closure kernel.
"""

from itertools import combinations, product

from multigroup.groups import is_subgroup


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
