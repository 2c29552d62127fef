"""Instance corpus of the benchmark, built without the engine.

A space is a plain universe plus Cayley tables, written out in the .mgs
format the `mgs` CLI reads. The same objects carry the attributes
`tests/oracles.py` reads (`universe`, `groups`, `op_id`, `carrier`,
`table`, `identity`), so the oracles can check verdicts on them without
going through the engine.
"""

from __future__ import annotations

import random
from itertools import permutations
from pathlib import Path
from typing import NamedTuple

SHIPPED_DIR = Path(__file__).resolve().parent / "shipped"

# Relabelled element names: one capital Q and six lowercase consonants.
# No report text of the engine contains such a token, so mapping a report
# back to canonical names is a plain token substitution.
NAME_ALPHABET = "bcdfghjkmnpqrstvwxz"
NAME_PATTERN = r"Q[bcdfghjkmnpqrstvwxz]{6}"


class Group(NamedTuple):
    op_id: str
    carrier: tuple
    table: tuple
    identity: str

    @property
    def order(self) -> int:
        return len(self.carrier)


class Space(NamedTuple):
    universe: tuple
    groups: tuple


def group_from(op_id, carrier, mul, identity) -> Group:
    carrier = tuple(carrier)
    return Group(op_id, carrier,
                 tuple(tuple(mul(a, b) for b in carrier) for a in carrier), identity)


def cyclic(n: int, op_id: str = "*", prefix: str = "") -> Group:
    names = [f"{prefix}{i}" for i in range(n)]
    return group_from(op_id, names,
                      lambda a, b: names[(names.index(a) + names.index(b)) % n],
                      names[0])


def _cycle_name(perm) -> str:
    seen, cycles = set(), []
    for start in range(len(perm)):
        if start in seen or perm[start] == start:
            seen.add(start)
            continue
        cycle, nxt = [start], perm[start]
        seen.add(start)
        while nxt != start:
            cycle.append(nxt)
            seen.add(nxt)
            nxt = perm[nxt]
        cycles.append("(" + "".join(str(p + 1) for p in cycle) + ")")
    return "".join(cycles) if cycles else "e"


def permutation_group(perms, op_id: str = "*") -> Group:
    names = {p: _cycle_name(p) for p in perms}
    by_name = {v: k for k, v in names.items()}

    def mul(a, b):
        pa, pb = by_name[a], by_name[b]
        return names[tuple(pa[pb[i]] for i in range(len(pa)))]

    return group_from(op_id, [names[p] for p in perms], mul,
                      names[tuple(range(len(perms[0])))])


def _even(p) -> bool:
    return sum(1 for i in range(len(p)) for j in range(i + 1, len(p))
               if p[i] > p[j]) % 2 == 0


def symmetric(n: int) -> Group:
    return permutation_group(list(permutations(range(n))))


def alternating(n: int) -> Group:
    return permutation_group([p for p in permutations(range(n)) if _even(p)])


def dihedral(n: int) -> Group:
    """Symmetries of the n-gon: rotations r<k> and reflections s<k>."""
    names = [f"r{k}" for k in range(n)] + [f"s{k}" for k in range(n)]

    def mul(x, y):
        i, a = int(x[1:]), x[0] == "s"
        j, b = int(y[1:]), y[0] == "s"
        k = (i + (-j if a else j)) % n
        return f"{'s' if a != b else 'r'}{k}"

    return group_from("*", names, mul, "r0")


def quaternion() -> Group:
    names = ["1", "-1", "i", "-i", "j", "-j", "k", "-k"]
    base = {("1", "1"): "1", ("1", "i"): "i", ("1", "j"): "j", ("1", "k"): "k",
            ("i", "1"): "i", ("j", "1"): "j", ("k", "1"): "k",
            ("i", "i"): "-1", ("j", "j"): "-1", ("k", "k"): "-1",
            ("i", "j"): "k", ("j", "k"): "i", ("k", "i"): "j",
            ("j", "i"): "-k", ("k", "j"): "-i", ("i", "k"): "-j"}

    def mul(x, y):
        sign = -1 if (x.startswith("-") ^ y.startswith("-")) else 1
        r = base[(x.lstrip("-"), y.lstrip("-"))]
        if r.startswith("-"):
            sign, r = -sign, r[1:]
        return r if sign == 1 else "-" + r

    return group_from("*", names, mul, "1")


def direct_product(g: Group, h: Group, op_id: str = "*") -> Group:
    """g x h on names 'a.b'; the carrier runs over g first."""
    gi = {e: i for i, e in enumerate(g.carrier)}
    hi = {e: i for i, e in enumerate(h.carrier)}
    pair = {f"{a}.{b}": (a, b) for a in g.carrier for b in h.carrier}

    def mul(x, y):
        (a1, b1), (a2, b2) = pair[x], pair[y]
        return f"{g.table[gi[a1]][gi[a2]]}.{h.table[hi[b1]][hi[b2]]}"

    return group_from(op_id, list(pair), mul, f"{g.identity}.{h.identity}")


def renamed(g: Group, op_id: str, prefix: str) -> Group:
    """A copy of g with its own operation id and prefixed element names."""
    m = {e: f"{prefix}{e}" for e in g.carrier}
    return Group(op_id, tuple(m[e] for e in g.carrier),
                 tuple(tuple(m[e] for e in row) for row in g.table), m[g.identity])


def single(g: Group) -> Space:
    return Space(g.carrier, (g,))


def disjoint_union(*groups: Group) -> Space:
    """Groups on disjoint carriers with operations a, b, c, ..."""
    parts = tuple(renamed(g, chr(ord("a") + i), chr(ord("a") + i))
                  for i, g in enumerate(groups))
    return Space(tuple(e for g in parts for e in g.carrier), parts)


def prime_field(p: int) -> Space:
    names = [str(i) for i in range(p)]
    add = group_from("+", names, lambda a, b: str((int(a) + int(b)) % p), "0")
    mul = group_from("*", names[1:], lambda a, b: str((int(a) * int(b)) % p), "1")
    return Space(tuple(names), (add, mul))


def serialize(ms: Space) -> str:
    out = [f"elements: {' '.join(ms.universe)}"]
    for g in ms.groups:
        out += [f"group {g.op_id}:", f"  carrier: {' '.join(g.carrier)}",
                f"  identity: {g.identity}", "  table:"]
        out += [f"    {a}: {' '.join(row)}" for a, row in zip(g.carrier, g.table)]
    return "\n".join(out) + "\n"


def parse(text: str) -> Space:
    """Read a well-formed .mgs file in the canonical layout."""
    lines = [ln.split("#", 1)[0].split() for ln in text.splitlines()]
    lines = [t for t in lines if t]
    universe = tuple(lines[0][1:])
    groups, i = [], 1
    while i < len(lines):
        op_id = lines[i][1][:-1]
        carrier = tuple(lines[i + 1][1:])
        identity = lines[i + 2][1]
        rows = {t[0][:-1]: tuple(t[1:]) for t in lines[i + 4:i + 4 + len(carrier)]}
        groups.append(Group(op_id, carrier, tuple(rows[a] for a in carrier), identity))
        i += 4 + len(carrier)
    return Space(universe, tuple(groups))


def shipped(name: str) -> Space:
    return parse((SHIPPED_DIR / f"{name}.mgs").read_text(encoding="utf-8"))


def fresh_names(rng: random.Random, count: int) -> list[str]:
    names: set[str] = set()
    while len(names) < count:
        names.add("Q" + "".join(rng.choice(NAME_ALPHABET) for _ in range(6)))
    out = sorted(names)
    rng.shuffle(out)
    return out


def relabel(ms: Space, mapping: dict) -> Space:
    """The same space with every element renamed; positions are kept."""
    return Space(tuple(mapping[e] for e in ms.universe),
                 tuple(Group(g.op_id, tuple(mapping[e] for e in g.carrier),
                             tuple(tuple(mapping[e] for e in row) for row in g.table),
                             mapping[g.identity])
                       for g in ms.groups))
