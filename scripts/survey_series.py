#!/usr/bin/env python3
"""Survey series lengths across instance files and operation orderings.

For every .mgs file in instances/, enumerate maximal series under every
oriented sequence and tabulate the per-sequence length constants, rejected
chains and anomalies.

    python scripts/survey_series.py
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from multigroup.errors import BoundExceeded, PreconditionError
from multigroup.instances import parse_instance
from multigroup.series import length_invariance_check


def survey(path: Path) -> None:
    ms = parse_instance(path.read_text())
    print(f"== {path.name}  (universe {len(ms.universe)}, "
          f"ops {', '.join(ms.op_set)})")
    try:
        inv = length_invariance_check(ms)
    except (BoundExceeded, PreconditionError) as exc:
        print(f"   skipped: {exc}")
        return
    for stat in inv.per_sequence:
        order = " > ".join(stat.order)
        constant = stat.constant if stat.constant is not None else "NOT CONSTANT"
        print(f"   {order:<16} series={stat.series_count:<3} "
              f"lengths={sorted(set(stat.lengths))} constant={constant}")
        for anomaly in stat.anomalies:
            print(f"      anomaly: {anomaly}")
    print(f"   cross-sequence constant: {inv.cross_sequence_constant}")


def main() -> int:
    for path in sorted((ROOT / "instances").glob("*.mgs")):
        survey(path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
