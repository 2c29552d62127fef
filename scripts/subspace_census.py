#!/usr/bin/env python3
"""Exhaustive subspace census over small instances.

Counts, for every subset/retained-op combination of each instance in
instances/ with a universe of at most BOUND elements: how many are
subspaces, whether the two subspace routes ever disagree, and how often
the literal raw closure reading diverges from them.

    python scripts/subspace_census.py
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "tests"))

from multigroup.instances import parse_instance
from multigroup.spaces import validate_multigroup
from multigroup.subspaces import (is_subspace, is_subspace_by_completeness,
                                  is_subspace_by_intersection)
from oracles import subset_op_combinations

# the largest universe censused: 2^8 subsets times the retained-op choices
BOUND = 8


def census(name: str, ms) -> None:
    total = subspaces = disagreements = raw_divergences = 0
    for s in subset_op_combinations(ms):
        total += 1
        implemented = is_subspace(ms, s)
        lattice = is_subspace_by_intersection(ms, s).ok
        raw = is_subspace_by_completeness(ms, s)
        subspaces += implemented
        disagreements += implemented != lattice
        raw_divergences += raw != implemented
    print(f"{name:<18} combos={total:<5} subspaces={subspaces:<4} "
          f"route-disagreements={disagreements} raw-divergences={raw_divergences}")


def main() -> int:
    for path in sorted((ROOT / "instances").glob("*.mgs")):
        ms = parse_instance(path.read_text())
        if len(ms.universe) > BOUND:
            print(f"{path.name:<18} skipped (universe {len(ms.universe)} "
                  f"> bound {BOUND})")
            continue
        if not validate_multigroup(ms).ok:
            print(f"{path.name:<18} skipped (not a valid multi-group space)")
            continue
        census(path.name, ms)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
