"""Command-line front end over .mgs instance files.

Exit codes: 0 the check passed, 1 the mathematical verdict is false,
2 input or structural error, 3 an enumeration bound was exceeded.
Reports are deterministic byte for byte for identical invocations; the
opt-in --timing field is the one exception and is off by default.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from .config import DEFAULT_LIMITS, Limits
from .errors import (BoundExceeded, DecompositionFailure, DomainError,
                     MultigroupError, ParseError, PreconditionError)
from .generation import GeneratingSet, is_finitely_generated, span_closure, span_once
from .instances import parse_instance
from .series import (MAX_CROSS_SEQUENCE_OPS, OrientedOperationSequence,
                     build_series, enumerate_maximal_series, is_normal_subspace,
                     length_invariance_check, normality_criterion)
from .spaces import MultiGroupSpace, classify_special_case, validate_multigroup
from .subspaces import (SubsetRef, coset_decomposition, is_subspace,
                        is_subspace_by_completeness, is_subspace_by_intersection)

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_BOUND = 3


def _fmt_set(elements) -> str:
    return "{" + ", ".join(elements) + "}"


def _render(key: str, value, indent: int, lines: list[str]) -> None:
    pad = "  " * indent
    if isinstance(value, dict):
        if not value:
            lines.append(f"{pad}{key}: {{}}")
            return
        lines.append(f"{pad}{key}:")
        for k, v in value.items():
            _render(k, v, indent + 1, lines)
    elif isinstance(value, list):
        if not value:
            lines.append(f"{pad}{key}: []")
            return
        lines.append(f"{pad}{key}:")
        for item in value:
            if isinstance(item, dict):
                lines.append(f"{pad}  -")
                for k, v in item.items():
                    _render(k, v, indent + 2, lines)
            else:
                lines.append(f"{pad}  - {_scalar(item)}")
    else:
        lines.append(f"{pad}{key}: {_scalar(value)}")


def _scalar(value) -> str:
    if value is True:
        return "true"
    if value is False:
        return "false"
    if value is None:
        return "none"
    return str(value)


def render_report(payload: dict, as_json: bool) -> str:
    if as_json:
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"
    lines: list[str] = []
    for key, value in payload.items():
        _render(key, value, 0, lines)
    return "\n".join(lines) + "\n"


def _violations_payload(report) -> list[dict]:
    return [v.to_dict() for v in report.violations]


def _subset(ms: MultiGroupSpace, args) -> SubsetRef:
    if not args.set:
        raise DomainError("--set is required for this command")
    elements = [e for e in args.set.split(",") if e]
    ops = [o for o in args.ops.split(",") if o] if args.ops else None
    return SubsetRef.of(ms, elements, ops)


def _sequence(ms: MultiGroupSpace, args) -> OrientedOperationSequence:
    order = [o for o in args.order.split(",") if o] if args.order else None
    return OrientedOperationSequence.of(ms, order)


# ------------------------------------------------------------- commands

def _cmd_validate(ms: MultiGroupSpace, args, limits: Limits):
    report = validate_multigroup(ms)
    payload = {
        "verdict": "valid" if report.ok else "invalid",
        "violations": _violations_payload(report),
        "notes": list(report.notes),
    }
    if report.ok:
        c = classify_special_case(ms)
        payload["classification"] = c.tag
        if c.convention:
            payload["carrier_convention"] = c.convention
        return payload, EXIT_PASS
    if report.structural():
        return payload, EXIT_INPUT
    return payload, EXIT_FAIL


def _cmd_classify(ms: MultiGroupSpace, args, limits: Limits):
    c = classify_special_case(ms)
    payload = {"classification": c.tag}
    if c.convention:
        payload["carrier_convention"] = c.convention
    return payload, EXIT_PASS


def _cmd_subspace(ms: MultiGroupSpace, args, limits: Limits):
    s = _subset(ms, args)
    evidence = is_subspace_by_intersection(ms, s, limits)
    raw = is_subspace_by_completeness(ms, s)
    implemented = is_subspace(ms, s)
    payload = {
        "subset": _fmt_set(s.elements),
        "retained_ops": list(s.retained_ops),
        "intersection_route": {
            "verdict": evidence.ok,
            "intersections": {op: _fmt_set(i) for op, i in evidence.intersections},
            "parts": ({op: _fmt_set(p) for op, p in evidence.parts}
                      if evidence.parts else None),
            "reason": evidence.reason,
        },
        "completeness_route": implemented,
        "raw_union_reading": raw,
        "routes_agree": evidence.ok == implemented,
        "raw_reading_disagrees": raw != implemented,
    }
    return payload, EXIT_PASS if implemented else EXIT_FAIL


def _cmd_cosets(ms: MultiGroupSpace, args, limits: Limits):
    s = _subset(ms, args)
    try:
        result = coset_decomposition(ms, s)
    except DecompositionFailure as failure:
        payload = {
            "subset": _fmt_set(s.elements),
            "verdict": "not a partition",
            "overlapping_representatives": [failure.rep_a, failure.rep_b],
            "overlap": _fmt_set(failure.overlap),
        }
        return payload, EXIT_FAIL
    payload = {
        "subset": _fmt_set(s.elements),
        "retained_ops": list(s.retained_ops),
        "transversal": list(result.transversal),
        "cosets": [_fmt_set(c) for c in result.cosets],
        "verdict": "partition",
    }
    return payload, EXIT_PASS


def _cmd_normal(ms: MultiGroupSpace, args, limits: Limits):
    s = _subset(ms, args)
    conj = is_normal_subspace(ms, s)
    crit = normality_criterion(ms, s)
    payload = {
        "subset": _fmt_set(s.elements),
        "retained_ops": list(s.retained_ops),
        "conjugation_route": conj.ok,
        "criterion_route": crit,
        "routes_agree": conj.ok == crit,
    }
    if conj.witness:
        op, g, h, out = conj.witness
        payload["witness"] = f"{g} {op} {h} {op} {g}^-1 = {out} escapes the subset"
    return payload, EXIT_PASS if conj.ok else EXIT_FAIL


def _series_payload(series) -> dict:
    return {
        "chain": [{"elements": _fmt_set(link.elements),
                   "ops": list(link.retained_ops)} for link in series.chain],
        "step_ops": list(series.step_ops),
        "length": series.length,
        "anomalies": list(series.anomalies),
    }


def _cmd_series(ms: MultiGroupSpace, args, limits: Limits):
    seq = _sequence(ms, args)
    series = build_series(ms, seq, limits)
    payload = {"order": list(seq.order)}
    payload.update(_series_payload(series))
    return payload, EXIT_PASS


def _cmd_maximal_series(ms: MultiGroupSpace, args, limits: Limits):
    seq = _sequence(ms, args)
    result = enumerate_maximal_series(ms, seq, limits)
    lengths = sorted(set(result.lengths))
    constant = lengths[0] if len(lengths) == 1 else None
    payload = {
        "order": list(seq.order),
        "series": [_series_payload(s) for s in result.series],
        "series_count": len(result.series),
        "lengths": list(result.lengths),
        "constant_length": constant,
        "rejected": [{"reason": reason, **_series_payload(s)}
                     for s, reason in result.rejected],
    }
    if len(ms.op_set) <= MAX_CROSS_SEQUENCE_OPS:
        invariance = length_invariance_check(ms, None, limits)
        payload["cross_sequence"] = {
            ",".join(s.order): s.constant for s in invariance.per_sequence}
        payload["cross_sequence_constant"] = invariance.cross_sequence_constant
    ok = bool(result.series) and constant is not None
    return payload, EXIT_PASS if ok else EXIT_FAIL


def _cmd_span(ms: MultiGroupSpace, args, limits: Limits):
    if not args.set:
        raise DomainError("--set is required for this command")
    seeds = GeneratingSet.of(ms, [e for e in args.set.split(",") if e])
    once = span_once(ms, seeds)
    closure = span_closure(ms, seeds)
    payload = {
        "seeds": _fmt_set(seeds.seeds),
        "span_once": _fmt_set(once),
        "span_closure": _fmt_set(closure),
        "generates_universe": set(closure) == set(ms.universe),
    }
    return payload, EXIT_PASS


def _cmd_generators(ms: MultiGroupSpace, args, limits: Limits):
    witness = is_finitely_generated(ms, limits)
    payload = {
        "finitely_generated": True,
        "witness": _fmt_set(witness.generators),
        "size": witness.size,
        "minimal": witness.minimal,
    }
    return payload, EXIT_PASS


_COMMANDS = {
    "validate": (_cmd_validate, False, False),
    "classify": (_cmd_classify, False, False),
    "subspace": (_cmd_subspace, True, False),
    "cosets": (_cmd_cosets, True, False),
    "normal": (_cmd_normal, True, False),
    "series": (_cmd_series, False, True),
    "maximal-series": (_cmd_maximal_series, False, True),
    "span": (_cmd_span, True, False),
    "generators": (_cmd_generators, False, False),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mgs", description="checks over multi-group space instance files")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, takes_set, takes_order) in _COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("instance", help="path to an .mgs file")
        if takes_set:
            p.add_argument("--set", help="comma-separated subset of elements")
            p.add_argument("--ops", help="comma-separated retained operations "
                                         "(default: every operation meeting the set)")
        if takes_order:
            p.add_argument("--order", help="comma-separated oriented operation "
                                           "sequence (default: file order)")
        p.add_argument("--json", action="store_true",
                       help="emit the machine-readable report")
        p.add_argument("--timing", action="store_true",
                       help="include wall-clock timing (breaks byte determinism)")
        p.add_argument("--exhaustive-bound", type=int, metavar="N",
                       help="override the exhaustive enumeration bounds")
    return parser


def run_command(args: argparse.Namespace) -> tuple[dict, int]:
    """Execute one parsed command and return (report payload, exit code)."""
    payload: dict = {"command": args.command, "instance": args.instance}
    started = time.perf_counter()
    try:
        limits = DEFAULT_LIMITS
        if args.exhaustive_bound is not None:
            if args.exhaustive_bound < 1:
                raise DomainError(f"--exhaustive-bound must be at least 1, "
                                  f"got {args.exhaustive_bound}")
            limits = Limits(max_group_order=args.exhaustive_bound,
                            max_exhaustive_universe=args.exhaustive_bound)
        path = Path(args.instance)
        try:
            if not path.exists():
                raise ParseError(f"no such file: {args.instance}")
            text = path.read_text(encoding="utf-8")
        except OSError as exc:
            raise ParseError(f"cannot read {args.instance}: "
                             f"{exc.strerror or exc}") from None
        ms = parse_instance(text)
        handler = _COMMANDS[args.command][0]
        body, code = handler(ms, args, limits)
        payload.update(body)
    except BoundExceeded as exc:
        payload.update({"error": str(exc), "error_kind": "bound-exceeded"})
        code = EXIT_BOUND
    except ParseError as exc:
        payload.update({"error": str(exc), "error_kind": "parse"})
        code = EXIT_INPUT
    except (DomainError, PreconditionError, ValueError) as exc:
        payload.update({"error": str(exc), "error_kind": "input"})
        code = EXIT_INPUT
    except MultigroupError as exc:
        payload.update({"error": str(exc), "error_kind": "internal"})
        code = EXIT_FAIL
    if args.timing:
        payload["timing_ms"] = round((time.perf_counter() - started) * 1000, 3)
    payload["exit_code"] = code
    return payload, code


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    payload, code = run_command(args)
    sys.stdout.write(render_report(payload, args.json))
    return code


if __name__ == "__main__":
    sys.exit(main())
