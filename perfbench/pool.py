"""Query pools of the three workloads and the seeded draw over them.

A pool is a list of slots. A slot holds interchangeable canonical queries
of about the same cost and says how many of them a round asks. The seed
picks the variant for each draw and the order of the whole list; the seed
and the round pick the element names of every instance file. So two seeds
ask the same amount of work of each kind, no two queries share an
instance, and each round of a run asks its queries on fresh names.
"""

from __future__ import annotations

import random
from functools import lru_cache
from typing import NamedTuple

import corpus as C

WORKLOADS = ("series-survey", "lattice", "queries")
# rounds of a run of RUN_S seconds; a run of --seconds asks this many times
# seconds / RUN_S, whatever the machine's speed. A round takes about 7.5 s
# (series-survey), 9.5 s (lattice) and 3.75 s (queries) on the 2-core
# reference VM.
RUN_S = 30
ROUNDS = {"series-survey": 4, "lattice": 4, "queries": 8}
BOUND = ("--exhaustive-bound", "24")

SHIPPED = ("gf3", "gf3_corrupt", "gf5", "klein", "s3", "trivial", "z12",
           "z2link", "z2z2", "z2z3", "z4z4", "z6", "z6units")


class Query(NamedTuple):
    command: str
    space: str          # key into space()
    args: tuple         # canonical element names; --set values are relabelled

    @property
    def id(self) -> str:
        return " ".join((self.command, self.space) + self.args)


class Slot(NamedTuple):
    count: int
    variants: tuple


def _groups():
    Z = C.cyclic
    return {
        "Z16": lambda: Z(16), "Z18": lambda: Z(18), "Z20": lambda: Z(20),
        "Z21": lambda: Z(21), "Z12": lambda: Z(12), "Z14": lambda: Z(14),
        "Z25": lambda: Z(25),
        "D6": lambda: C.dihedral(6), "D8": lambda: C.dihedral(8),
        "D9": lambda: C.dihedral(9), "D10": lambda: C.dihedral(10),
        "A4": lambda: C.alternating(4), "S4": lambda: C.symmetric(4),
        "Q8xZ2": lambda: C.direct_product(C.quaternion(), Z(2)),
        "D4xZ2": lambda: C.direct_product(C.dihedral(4), Z(2)),
        "Z2xZ8": lambda: C.direct_product(Z(2), Z(8)),
        "Z4xZ4": lambda: C.direct_product(Z(4), Z(4)),
        "S3xZ3": lambda: C.direct_product(C.symmetric(3), Z(3)),
        "S3xZ2": lambda: C.direct_product(C.symmetric(3), Z(2)),
        "Z2xZ2xZ4": lambda: C.direct_product(C.direct_product(Z(2), Z(2)), Z(4)),
    }


@lru_cache(maxsize=None)
def space(key: str) -> C.Space:
    """Canonical space by key: gf<p>, z<m>+s3, z<m>+a4, <k>xz2, shipped/<name>,
    a group name from _groups(), or two group names joined by '+'."""
    if key.startswith("shipped/"):
        return C.shipped(key.split("/", 1)[1])
    if key.startswith("gf"):
        return C.prime_field(int(key[2:]))
    if key.endswith("xz2"):
        return C.disjoint_union(*[C.cyclic(2)] * int(key[:-3]))
    if key.startswith("z") and key[1:].split("+")[0].isdigit():
        m, other = key[1:].split("+")
        return C.disjoint_union(C.cyclic(int(m)),
                                C.symmetric(3) if other == "s3" else C.alternating(4))
    groups = _groups()
    parts = [groups[name]() for name in key.split("+")]
    return C.single(parts[0]) if len(parts) == 1 else C.disjoint_union(*parts)


def cyclic_subgroup(g: C.Group, k: int) -> list:
    """<x> for the k-th carrier element x, in carrier order."""
    index = {e: i for i, e in enumerate(g.carrier)}
    x = g.carrier[k % g.order]
    members, y = {g.identity}, x
    while y not in members:
        members.add(y)
        y = g.table[index[y]][index[x]]
    return [e for e in g.carrier if e in members]


def _set(elements) -> tuple:
    return ("--set", ",".join(elements))


def cyc(key: str, k: int) -> tuple:
    """--set naming <x_k> inside every group of the space."""
    return _set([e for g in space(key).groups for e in cyclic_subgroup(g, k)])


def pair(key: str, k: int) -> tuple:
    """--set of the first group's identity and its k-th element."""
    g = space(key).groups[0]
    return _set([g.identity, g.carrier[k % g.order]])


def _slot(count, *variants) -> Slot:
    return Slot(count, tuple(variants))


def _series_survey() -> list:
    q = lambda cmd, key, *args: Query(cmd, key, tuple(args) + BOUND)

    def series(keys, orders=("a,b", "b,a")):
        return tuple(q("series", k, "--order", o) for k in keys for o in orders)

    def maximal(*keys):
        return tuple(q("maximal-series", k) for k in keys)

    gf = ("+,*", "*,+")
    # Slots group queries of about equal cost (ms at the reference speed):
    # under 9, 10-21, 22-24 (the median is the sixth of these twelve, so the
    # draw hardly moves it), 25-65, 150, and the maximal-series of 300 ms
    # and more.
    return (
        [_slot(17, *(series(("gf5", "gf7"), gf) + series(("z2+s3", "z3+s3"))
                     + series(("z4+s3",), ("b,a",)) + maximal("gf5"))),
         _slot(6, *(series(("z8+s3", "z10+s3")) + series(("z6+s3",), ("a,b",))
                    + series(("z2+a4", "z3+a4"), ("b,a",))
                    + maximal("z2+s3", "z3+s3", "z4+s3"))),
         _slot(12, *(series(("z12+s3",)) + series(("gf11",), gf)
                     + series(("z6+a4",), ("b,a",)) + series(("z2+a4",), ("a,b",))
                     + maximal("gf7"))),
         _slot(6, *(series(("z8+a4", "z12+a4", "z14+s3", "z16+s3")) + series(("gf13",), gf)
                    + series(("z6+a4", "z3+a4"), ("a,b",)) + maximal("z6+s3", "z8+s3"))),
         _slot(1, *series(("z18+s3",)))]
        # seven copies of the lightest heavy query put the tail percentile
        # in the middle of like-cost queries
        + [_slot(1, v) for v in maximal(
            "gf13", "z10+s3", "z12+s3", "z2+a4", "z3+a4", "z4+a4", "z6+a4", "z8+a4")]
        + [_slot(7, *maximal("gf11"))])


def _lattice() -> list:
    q = Query
    big = ("Z20", "D10", "D9", "Z18", "S3xZ3", "Z21")
    mid = ("Z16", "Q8xZ2", "D8", "Z2xZ2xZ4", "Z4xZ4", "Z2xZ8", "D4xZ2")
    small = ("Z12", "Z14", "D6", "A4", "S3xZ2")

    def series(*groups):
        return tuple(q("series", g, ()) for g in groups)

    def subspace(g, ks=(1, 2, 3)):
        return tuple(q("subspace", g, cyc(g, k)) for k in ks)

    def either(g, ks=(1, 2, 3, 5)):
        """series or subspace on g: both scan g's whole subgroup lattice."""
        return series(g) + subspace(g, ks)

    # Slots group queries of about equal cost (ms at the reference speed):
    # 21 under 15, twelve scans of order-16 groups at 18-22 whose sixth and
    # seventh give the median, 4 at 29-65, thirteen scans of order 18-21 at
    # 76-83 whose seventh is the tail, and the 4 scans above 95, S4 among
    # them. Bands of like-cost queries keep the draw from moving the median
    # and the tail.
    return [
        _slot(15, *(q(cmd, g, s) for cmd in ("normal", "cosets")
                    for g in mid + small + big
                    for s in (cyc(g, 1), cyc(g, 2), pair(g, 1), pair(g, 3)))),
        _slot(2, *(subspace("Z12+A4") + subspace("D6+Z12"))),
        _slot(4, *series(*small)),
        _slot(12, *(v for g in ("Z16", "Z2xZ2xZ4", "Z2xZ8", "D8", "D4xZ2")
                    for v in subspace(g))),
        _slot(4, *(series("Z16", "Z2xZ8", "Z4xZ4", "D8", "Q8xZ2", "Z12+A4", "D6+Z12")
                   + subspace("Z16+Q8xZ2"))),
        _slot(13, *(subspace("Z18") + subspace("S3xZ3", (3, 5)) + subspace("Z21", (3,)))),
        _slot(1, *series("Z21", "D9", "S3xZ3")),
        _slot(1, *either("Z20")),
        _slot(1, *either("D10")),
        _slot(1, *either("S4", (3, 7, 9, 16))),
    ]


def _queries() -> list:
    q = Query
    shipped = [f"shipped/{name}" for name in SHIPPED]
    valid = [s for s in shipped if s not in ("shipped/gf3_corrupt", "shipped/z4z4")]
    small_gf = ("gf7", "gf11", "gf13")

    def per_instance(cmd, keys, *extra):
        return tuple(q(cmd, key, e) for key in keys for e in (extra or ((),)))

    return [
        _slot(16, *per_instance("validate", shipped)),
        _slot(12, *per_instance("classify", valid)),
        _slot(21, *(q("subspace", k, cyc(k, i)) for k in shipped for i in (0, 1, 2))),
        _slot(10, *(q("subspace", k, pair(k, i)) for k in shipped for i in (1, 2))),
        _slot(14, *(q("cosets", k, cyc(k, i)) for k in valid for i in (0, 1, 2))),
        _slot(14, *(q("normal", k, cyc(k, i)) for k in valid for i in (0, 1, 2))),
        _slot(12, *(q("span", k, pair(k, i)) for k in shipped for i in (0, 1, 2))),
        _slot(12, *per_instance("generators", shipped)),
        _slot(14, *per_instance("series", valid)),
        _slot(8, *per_instance("maximal-series", [s for s in valid if s != "shipped/z12"])),
        _slot(2, q("maximal-series", "shipped/z12", ())),
        # prime fields: the O(|U|^3) distribution scan grows with p
        _slot(8, *(q(cmd, p, ()) for cmd in ("validate", "classify", "series")
                   for p in small_gf)),
        _slot(8, *(q(cmd, p, pair(p, i)) for cmd in ("span", "subspace")
                   for p in small_gf for i in (2, 3))),
        _slot(4, *(q("generators", p, ()) for p in small_gf + ("gf17", "gf19", "gf23"))),
        _slot(4, *(q("cosets", p, pair(p, 1) + ("--ops", "+,*")) for p in small_gf)),
        # the eight heaviest (with the two maximal-series on shipped/z12 above)
        # and five like-cost queries at 64-73 ms whose third is the tail
        _slot(2, q("validate", "gf23", ())),
        _slot(2, q("validate", "gf19", ())),
        _slot(1, q("classify", "gf23", ()), q("series", "gf23", ())),
        _slot(1, q("validate", "gf17", ())),
        _slot(5, q("classify", "gf19", ()), q("series", "gf19", ()),
              q("generators", "6xz2", ())),
        _slot(2, q("classify", "gf17", ()), q("series", "gf17", ())),
        # generation over k disjoint copies of Z2
        _slot(2, q("generators", "5xz2", ()), q("validate", "6xz2", ())),
        _slot(6, *(q(cmd, f"{k}xz2", ()) for cmd in ("generators", "validate")
                   for k in (2, 3, 4))),
        _slot(4, *(q("span", f"{k}xz2", pair(f"{k}xz2", 1)) for k in (3, 4, 5, 6))),
        # expected refusals (exit 3) and input errors (exit 2)
        _slot(6, *(q("maximal-series", p, ()) for p in ("gf13", "gf17", "gf19", "gf23"))),
        _slot(2, q("subspace", "Z25", cyc("Z25", 5)),
              q("series", "gf29", ())),
        _slot(8, q("subspace", "shipped/gf3", ("--set", "0,nope")),
              q("subspace", "shipped/gf3", ("--set", "0", "--ops", "nope")),
              q("subspace", "shipped/z6", ()),
              q("classify", "shipped/gf3_corrupt", ()),
              q("classify", "shipped/z4z4", ()),
              q("series", "shipped/z4z4", ()),
              q("series", "shipped/z2z3", ("--order", "a")),
              q("cosets", "gf7", ("--set", "0,1", "--ops", "+")),
              q("normal", "shipped/s3", ("--set", "e,(12),(13)"))),
    ]


POOLS = {"series-survey": _series_survey, "lattice": _lattice, "queries": _queries}


def pool(workload: str) -> list:
    return POOLS[workload]()


def canonical_queries(workload: str) -> list:
    """Every distinct query the pool can draw, in pool order."""
    return list(dict.fromkeys(v for slot in pool(workload) for v in slot.variants))


class Drawn(NamedTuple):
    query: Query
    names: dict         # canonical element -> fresh element name


def draw(workload: str, seed: int, round_: int = 0) -> list:
    """A round's query list. The seed picks the queries and their order, the
    same in every round; the seed and the round pick the element names."""
    rng = random.Random(f"{workload}:{seed}")
    picked = [rng.choice(slot.variants) for slot in pool(workload)
              for _ in range(slot.count)]
    rng.shuffle(picked)
    rng = random.Random(f"{workload}:{seed}:{round_}")
    out = []
    for query in picked:
        universe = space(query.space).universe
        out.append(Drawn(query, dict(zip(universe, C.fresh_names(rng, len(universe))))))
    return out


def argv(query: Query, names: dict, path: str) -> list:
    """The mgs argument vector for one query, with --set relabelled."""
    args = list(query.args)
    for i in range(len(args) - 1):
        if args[i] == "--set":
            args[i + 1] = ",".join(names.get(e, e) for e in args[i + 1].split(","))
    return [query.command, path, *args, "--json"]
