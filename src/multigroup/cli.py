"""Command-line front end over .mgs instance files.

Exit codes: 0 the check passed, 1 the mathematical verdict is false,
2 input or structural error, 3 an enumeration bound was exceeded.
Reports are deterministic byte for byte for identical invocations; the
opt-in --timing field is the one exception and is off by default.
"""

from __future__ import annotations

import sys
import time
from _json import encode_basestring_ascii as _quote  # what json.encoder uses on CPython
from errno import EBADF, ELOOP, ENOENT, ENOTDIR
from functools import cache
from types import SimpleNamespace

from .config import DEFAULT_LIMITS, Limits
from .errors import (BoundExceeded, DecompositionFailure, DomainError,
                     MultigroupError, ParseError, PreconditionError)
from .generation import GeneratingSet, is_finitely_generated, span_closure, span_once
from .instances import parse_instance
from .series import (OrientedOperationSequence, build_series, enumerate_maximal_series,
                     is_normal_subspace, length_invariance_check, normality_criterion)
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
    elif isinstance(value, (list, tuple)):
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


def _json(value, pad: str, out: list[str]) -> None:
    """Append the pieces of `value` as json.dumps(indent=2, sort_keys=True)
    writes it, its nested lines indented from `pad`."""
    if isinstance(value, str):
        out.append(_quote(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, float):
        out.append(float.__repr__(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = pad + "  "
        sep = "{\n" + inner
        for key in sorted(value):
            out.append(sep)
            out.append(_quote(key))
            out.append(": ")
            _json(value[key], inner, out)
            sep = ",\n" + inner
        out.append("\n" + pad + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = pad + "  "
        sep = "[\n" + inner
        for item in value:
            out.append(sep)
            _json(item, inner, out)
            sep = ",\n" + inner
        out.append("\n" + pad + "]")
    else:
        raise TypeError(f"Object of type {type(value).__name__} "
                        f"is not JSON serializable")


def render_report(payload: dict, as_json: bool) -> str:
    if as_json:
        out: list[str] = []
        _json(payload, "", out)
        out.append("\n")
        return "".join(out)
    lines: list[str] = []
    for key, value in payload.items():
        _render(key, value, 0, lines)
    return "\n".join(lines) + "\n"


def _set_elements(args) -> list[str]:
    if not args.set:
        raise DomainError("--set is required for this command")
    return [e for e in args.set.split(",") if e]


def _subset(ms: MultiGroupSpace, args) -> SubsetRef:
    elements = _set_elements(args)
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
        "violations": [v._asdict() for v in report.violations],
        "notes": report.notes,
    }
    if report.ok:
        payload.update(_cmd_classify(ms, args, limits)[0])
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
        "retained_ops": s.retained_ops,
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
        "retained_ops": s.retained_ops,
        "transversal": result.transversal,
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
        "retained_ops": s.retained_ops,
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
                   "ops": link.retained_ops} for link in series.chain],
        "step_ops": series.step_ops,
        "length": series.length,
        "anomalies": series.anomalies,
    }


def _cmd_series(ms: MultiGroupSpace, args, limits: Limits):
    seq = _sequence(ms, args)
    series = build_series(ms, seq, limits)
    payload = {"order": seq.order}
    payload.update(_series_payload(series))
    return payload, EXIT_PASS


def _cmd_maximal_series(ms: MultiGroupSpace, args, limits: Limits):
    seq = _sequence(ms, args)
    result = enumerate_maximal_series(ms, seq, limits)
    payload = {
        "order": seq.order,
        "series": [_series_payload(s) for s in result.series],
        "series_count": len(result.series),
        "lengths": result.lengths,
        "constant_length": result.constant,
        "rejected": [{"reason": reason, **_series_payload(s)}
                     for s, reason in result.rejected],
    }
    try:
        invariance = length_invariance_check(ms, limits)
        payload["cross_sequence"] = {
            ",".join(s.order): s.constant for s in invariance.per_sequence}
        payload["cross_sequence_constant"] = invariance.cross_sequence_constant
    except BoundExceeded:
        # too many operations to compare orderings: the enumeration above
        # passed every other bound the check meets, on the same space
        pass
    ok = result.constant is not None
    return payload, EXIT_PASS if ok else EXIT_FAIL


def _cmd_span(ms: MultiGroupSpace, args, limits: Limits):
    seeds = GeneratingSet.of(ms, _set_elements(args))
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


# each command with the selection options it reads
_COMMANDS = {
    "validate": (_cmd_validate, ()),
    "classify": (_cmd_classify, ()),
    "subspace": (_cmd_subspace, ("set", "ops")),
    "cosets": (_cmd_cosets, ("set", "ops")),
    "normal": (_cmd_normal, ("set", "ops")),
    "series": (_cmd_series, ("order",)),
    "maximal-series": (_cmd_maximal_series, ("order",)),
    "span": (_cmd_span, ("set",)),
    "generators": (_cmd_generators, ()),
}
_SELECTION_HELP = {
    "set": "comma-separated subset of elements",
    "ops": "comma-separated retained operations (default: every operation meeting the set)",
    "order": "comma-separated oriented operation sequence (default: file order)",
}


def build_parser():
    """The argparse parser of every command; argparse is imported here, as
    only argvs outside the plain form need it (see _plain_args)."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="mgs", description="checks over multi-group space instance files")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, selection) in _COMMANDS.items():
        p = sub.add_parser(name)
        p.add_argument("instance", help="path to an .mgs file")
        for option in selection:
            p.add_argument(f"--{option}", help=_SELECTION_HELP[option])
        p.add_argument("--json", action="store_true",
                       help="emit the machine-readable report")
        p.add_argument("--timing", action="store_true",
                       help="include wall-clock timing (breaks byte determinism)")
        p.add_argument("--exhaustive-bound", type=int, metavar="N",
                       help="override the exhaustive enumeration bounds")
    return parser


# the errors on which Path.exists() answers False: the file is not there
_ABSENT = (ENOENT, ENOTDIR, EBADF, ELOOP)


def _path(instance: str) -> str:
    """The path that pathlib's Path(instance) names, without importing
    pathlib: empty and '.' parts dropped, a leading '/' kept (two when
    exactly two lead), and '.' when nothing is left. So '' reads '.' and
    a trailing '/' is dropped."""
    lead = len(instance) - len(instance.lstrip("/"))
    root = "//" if lead == 2 else "/" * (lead > 0)
    return root + "/".join(p for p in instance.split("/") if p not in ("", ".")) or "."


def _read(instance: str) -> str:
    """The text of the instance file, decoded once from its bytes, or the
    ParseError that reports it. Line ends stay as written: the reader
    splits LF, CRLF and CR alike."""
    try:
        with open(_path(instance), "rb") as file:
            return file.read().decode("utf-8")
    except UnicodeDecodeError as exc:   # a ValueError, but the file is there
        raise ParseError(f"cannot read {instance}: {exc}") from None
    except OSError as exc:
        if exc.errno in _ABSENT:
            raise ParseError(f"no such file: {instance}") from None
        raise ParseError(f"cannot read {instance}: {exc.strerror or exc}") from None
    except ValueError:                  # a NUL or an unencodable character in the path
        raise ParseError(f"no such file: {instance}") from None


def run_command(args) -> tuple[dict, int]:
    """Execute one parsed command and return (report payload, exit code).
    args has the attributes the parser gives: command, instance, json,
    timing, exhaustive_bound and the command's --set, --ops or --order."""
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
        ms = parse_instance(_read(args.instance))
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


@cache
def _parser():
    # built on the first call rather than at import, and kept: parse_args
    # leaves the parser as it found it, even when it exits on an error
    return build_parser()


# the option strings of each command after its instance, each with the
# attribute it sets; _FLAGS take no value
_FLAGS = {"--json": "json", "--timing": "timing"}
_OPTIONS = {
    name: {**_FLAGS, "--exhaustive-bound": "exhaustive_bound",
           **{f"--{option}": option for option in selection}}
    for name, (_, selection) in _COMMANDS.items()}


def _plain_args(argv) -> SimpleNamespace | None:
    """The attributes the parser gives for an argv of the plain form
    `<command> <instance> (--flag | --option value)*`, or None for any
    other argv. In the plain form every option is spelled out in full and
    neither the instance nor a value starts with '-'; help, abbreviations,
    `--option=value`, options before the instance and every usage error
    are left to argparse."""
    if len(argv) < 2 or argv[0] not in _OPTIONS or argv[1][:1] == "-":
        return None
    options = _OPTIONS[argv[0]]
    found = dict.fromkeys(options.values())
    found.update(command=argv[0], instance=argv[1], json=False, timing=False)
    rest = iter(argv[2:])
    for option in rest:
        dest = options.get(option)
        if dest is None:
            return None
        if option in _FLAGS:
            found[dest] = True
            continue
        value = next(rest, "-")    # a missing value fails as one starting with -
        if value[:1] == "-":
            return None
        if dest == "exhaustive_bound":
            try:
                value = int(value)
            except ValueError:
                return None
        found[dest] = value
    return SimpleNamespace(**found)


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _plain_args(argv) or _parser().parse_args(argv)
    payload, code = run_command(args)
    sys.stdout.write(render_report(payload, args.json))
    return code


if __name__ == "__main__":
    sys.exit(main())
