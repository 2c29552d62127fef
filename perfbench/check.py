"""Output checks: reference reports and brute-force oracle cross-checks.

A report is checked in two ways. Mapped back to canonical element names,
it must equal the reference captured for its canonical query, byte for
byte, with the same exit code. Where an oracle of `tests/oracles.py` is
cheap on the instance, the verdict in the report is also recomputed from
the Cayley tables alone. Expected refusals (exit 3) and input errors
(exit 2) are correct answers, not failures.
"""

from __future__ import annotations

import json
import re
import sys
from itertools import combinations
from math import comb
from pathlib import Path

import corpus as C
import pool

ROOT = Path(__file__).resolve().parent.parent
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
INSTANCE_PLACEHOLDER = "INSTANCE"

# brute_subgroups scans every subset, so it is cheap only on small groups
ORACLE_MAX_ORDER = 16
# cap on generating sets one smaller than a witness that the oracle closes
ORACLE_MAX_SUBSETS = 5000

_NAME = re.compile(C.NAME_PATTERN)


def canonical_report(text: str, names: dict, path: str) -> str:
    """The report as the canonical instance would have produced it."""
    back = {v: k for k, v in names.items()}
    text = text.replace(path, INSTANCE_PLACEHOLDER)
    return _NAME.sub(lambda m: back.get(m.group(0), m.group(0)), text)


def reference_path(workload: str) -> Path:
    return REFERENCE_DIR / f"{workload}.json"


def load_reference(workload: str) -> dict:
    return json.loads(reference_path(workload).read_text(encoding="utf-8"))


def _members(text: str) -> list:
    inner = text.strip()[1:-1]
    return inner.split(", ") if inner else []


def _retained(ms: C.Space, query: pool.Query, elements) -> list:
    args = list(query.args)
    if "--ops" in args:
        wanted = args[args.index("--ops") + 1].split(",")
        return [g.op_id for g in ms.groups if g.op_id in wanted]
    return [g.op_id for g in ms.groups if set(elements) & set(g.carrier)]


def _groups_ok(ms: C.Space) -> bool:
    """Every table is a group; the oracles assume inverses exist."""
    for g in ms.groups:
        index = {e: i for i, e in enumerate(g.carrier)}
        for row in g.table:
            if g.identity not in row or any(e not in index for e in row):
                return False
    return True


def _disjoint(ms: C.Space) -> bool:
    return sum(g.order for g in ms.groups) == len(ms.universe)


class Oracle:
    """Recomputes the verdicts of canonical reports from the tables alone."""

    def __init__(self):
        sys.path.insert(0, str(ROOT / "tests"))
        import oracles
        self.o = oracles

    def _small(self, ms: C.Space, ops) -> bool:
        return all(g.order <= ORACLE_MAX_ORDER for g in ms.groups if g.op_id in ops)

    def problems(self, query: pool.Query, exit_code: int, report: str) -> list:
        ms = pool.space(query.space)
        if exit_code == 3 or not _groups_ok(ms):
            return []
        rep = json.loads(report)
        cmd, out = query.command, []
        if cmd in ("subspace", "cosets", "normal") and "--set" in query.args:
            elements = query.args[query.args.index("--set") + 1].split(",")
            known = set(ms.universe)
            ops = _retained(ms, query, elements)
            if set(elements) <= known and ops and self._small(ms, ops):
                truth = self.o.brute_subspace(ms, elements, ops)
                if cmd == "subspace" and exit_code in (0, 1):
                    if rep["completeness_route"] != truth \
                            or rep["intersection_route"]["verdict"] != truth:
                        out.append(f"subspace verdict != brute_subspace ({truth})")
                elif cmd != "subspace":
                    refused = exit_code == 2 and "requires a subspace" in rep["error"]
                    if refused == truth:
                        out.append(f"{cmd} precondition != brute_subspace ({truth})")
        if cmd == "span" and exit_code == 0:
            seeds = _members(rep["seeds"])
            if set(_members(rep["span_closure"])) != set(self.o.brute_span_closure(ms, seeds)):
                out.append("span_closure != brute_span_closure")
        if cmd == "generators" and exit_code == 0:
            witness = _members(rep["witness"])
            universe = set(ms.universe)
            if set(self.o.brute_span_closure(ms, witness)) != universe:
                out.append("generator witness does not generate the universe")
            size = len(witness)
            if rep["minimal"] and size > 1 and comb(len(universe), size - 1) <= ORACLE_MAX_SUBSETS:
                if any(set(self.o.brute_span_closure(ms, s)) == universe
                       for s in combinations(ms.universe, size - 1)):
                    out.append("a smaller generating set exists")
        if cmd in ("series", "maximal-series") and exit_code in (0, 1) and _disjoint(ms):
            # on pairwise disjoint carriers every staged series strips each
            # group down a composition series of its own
            expected = sum(self.o.prime_factor_count(g.order) for g in ms.groups)
            lengths = [rep["length"]] if cmd == "series" else rep["lengths"]
            if any(n != expected for n in lengths):
                out.append(f"series length != sum of prime_factor_count ({expected})")
            if cmd == "series" and len(ms.groups) == 1 and ms.groups[0].order <= ORACLE_MAX_ORDER:
                subgroups = set(self.o.brute_subgroups(*self.o.raw_group(ms.groups[0])))
                if any(frozenset(_members(link["elements"])) not in subgroups
                       for link in rep["chain"]):
                    out.append("series link is not a subgroup by brute_subgroups")
        return out
