"""The tests' one builder of groups and spaces.

Groups use conventional element names (cycle notation for the permutation
groups up to A5, one-line notation for S4, unit names for the quaternions)
so witnesses in reports read like textbook elements. The shipped spaces are
defined once, by instances/*.mgs, and read here through shipped().
"""

from __future__ import annotations

from itertools import permutations
from pathlib import Path

from multigroup.groups import FiniteGroup
from multigroup.instances import parse_instance
from multigroup.spaces import MultiGroupSpace

INSTANCE_DIR = Path(__file__).resolve().parent.parent / "instances"


def from_function(op_id: str, carrier, mul, identity: str) -> FiniteGroup:
    """The group whose table is mul over the carrier, in carrier order."""
    carrier = tuple(carrier)
    table = tuple(tuple(mul(a, b) for b in carrier) for a in carrier)
    return FiniteGroup(op_id, carrier, table, identity)


def cyclic(n: int, op_id: str = "+", prefix: str = "") -> FiniteGroup:
    names = [f"{prefix}{i}" for i in range(n)]
    return from_function(
        op_id, names,
        lambda a, b: f"{prefix}{(int(a[len(prefix):]) + int(b[len(prefix):])) % n}",
        names[0])


def klein_four() -> FiniteGroup:
    names = "eabc"  # the product of two elements is the xor of their indices
    return from_function(
        "*", names, lambda x, y: names[names.index(x) ^ names.index(y)], "e")


def _cycle_name(perm: tuple[int, ...]) -> str:
    """Cycle notation over 1-based points; the identity is 'e'."""
    cycles, seen = "", set()
    for start in range(len(perm)):
        point, cycle = start, ""
        while point not in seen and perm[start] != start:
            seen.add(point)
            cycle, point = cycle + str(point + 1), perm[point]
        cycles += f"({cycle})" if cycle else ""
    return cycles or "e"


def _permutation_group(op_id: str, perms: list[tuple[int, ...]]) -> FiniteGroup:
    names = {p: _cycle_name(p) for p in perms}
    by_name = {v: k for k, v in names.items()}

    def mul(a, b):
        pa, pb = by_name[a], by_name[b]
        return names[tuple(pa[pb[i]] for i in range(len(pa)))]

    identity = names[tuple(range(len(perms[0])))]
    return from_function(op_id, [names[p] for p in perms], mul, identity)


def symmetric_3() -> FiniteGroup:
    return _permutation_group("*", list(permutations(range(3))))


def symmetric_4() -> FiniteGroup:
    """S4 with each permutation named by its images, the identity '0123'."""
    perms = list(permutations(range(4)))
    names = {p: "".join(map(str, p)) for p in perms}
    mul = {(names[p], names[q]): names[tuple(p[q[i]] for i in range(4))]
           for p in perms for q in perms}
    return from_function("*", names.values(), lambda a, b: mul[(a, b)], "0123")


def alternating(n: int) -> FiniteGroup:
    """The even permutations of n points, in cycle notation."""
    return _permutation_group("*", [
        p for p in permutations(range(n))
        if sum(p[i] > p[j] for i in range(n) for j in range(i + 1, n)) % 2 == 0])


def dihedral(n: int) -> FiniteGroup:
    """The symmetries of the n-gon: rotations rk, and reflections sk = rk s,
    with s rk = r(-k) s."""
    def mul(x, y):
        a, b = int(x[1:]), int(y[1:])
        flip = (x[0] == "s") != (y[0] == "s")
        return ("s" if flip else "r") + str((a - b if x[0] == "s" else a + b) % n)

    return from_function("*", [f"{c}{k}" for c in "rs" for k in range(n)], mul, "r0")


def dihedral_4() -> FiniteGroup:
    """Symmetries of the square: r^4 = s^2 = e, s r s = r^-1."""
    return relabel(dihedral(4), ["e", "r", "r2", "r3", "s", "rs", "r2s", "r3s"], "*")


def quaternion_8() -> FiniteGroup:
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

    return from_function("*", names, mul, "1")


def direct_product(g: FiniteGroup, h: FiniteGroup) -> FiniteGroup:
    """g x h on pairs named 'a|b'; the last '|' splits a name."""
    carrier = [f"{a}|{b}" for a in g.carrier for b in h.carrier]

    def mul(x, y):
        (a, b), (c, d) = x.rsplit("|", 1), y.rsplit("|", 1)
        return f"{g.mul(a, c)}|{h.mul(b, d)}"

    return from_function(g.op_id, carrier, mul, f"{g.identity}|{h.identity}")


def relabel(group: FiniteGroup, names, op_id: str) -> FiniteGroup:
    """The same group structure over fresh element names."""
    mapping = dict(zip(group.carrier, names))
    table = tuple(tuple(mapping[x] for x in row) for row in group.table)
    return FiniteGroup(op_id, tuple(mapping[e] for e in group.carrier), table,
                       mapping[group.identity])


def corpus_groups() -> dict[str, FiniteGroup]:
    """All groups of the acceptance corpus: Z2..Z12, S3, D4, Q8, A4, Klein."""
    corpus = {f"Z{n}": cyclic(n) for n in range(2, 13)}
    corpus["S3"] = symmetric_3()
    corpus["D4"] = dihedral_4()
    corpus["Q8"] = quaternion_8()
    corpus["A4"] = alternating(4)
    corpus["V4"] = klein_four()
    return corpus


# ----------------------------------------------------------------- spaces

def single(group: FiniteGroup) -> MultiGroupSpace:
    return MultiGroupSpace(group.carrier, (group,))


def prime_field(p: int) -> MultiGroupSpace:
    """The field of p elements: addition on everything, units under product."""
    names = [str(i) for i in range(p)]
    add = from_function(
        "+", names, lambda a, b: str((int(a) + int(b)) % p), "0")
    mul = from_function(
        "*", names[1:], lambda a, b: str((int(a) * int(b)) % p), "1")
    return MultiGroupSpace(tuple(names), (add, mul))


def disjoint_union(*groups: FiniteGroup) -> MultiGroupSpace:
    """The disjoint union of groups, renamed apart: the k-th group's
    operation is the k-th letter, and its elements that letter and an index."""
    renamed = [relabel(g, [f"{chr(97 + k)}{i}" for i in range(g.order)], chr(97 + k))
               for k, g in enumerate(groups)]
    return MultiGroupSpace(tuple(e for g in renamed for e in g.carrier), tuple(renamed))


def shipped(name: str) -> MultiGroupSpace:
    """The space of instances/<name>.mgs, parsed afresh."""
    return parse_instance((INSTANCE_DIR / f"{name}.mgs").read_text(encoding="utf-8"))
