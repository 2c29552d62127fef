"""Span recording around the public functions of the engine's modules.

install() replaces every public module-level function of each layer
module with a wrapper that records a span, and rebinds it in every
multigroup module namespace that imported it, so calls between modules
are seen. Private helpers are not wrapped: their time counts toward the
nearest public caller. The hottest leaves get count-only wrappers.
A span's self time is its duration minus the time of its child spans.
Spans stay in memory until the round writes them out.
"""

from __future__ import annotations

import inspect
import sys
from time import perf_counter_ns

LAYERS = ("instances", "groups", "spaces", "subspaces", "series", "generation", "cli")

# public functions counted without a span: the hottest leaves
COUNT_ONLY = {"groups.is_subgroup"}
# functions whose true results are counted as useful outcomes
USEFUL = ("groups.is_subgroup", "subspaces.is_subspace")


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.useful: dict[str, int] = {}
        self.distribution_tested = 0
        self.spans: list[tuple] = []      # (id, parent id, query, name, start, end)
        self.query = -1
        self._stack: list[list] = []      # [span id, child ns]

    def span(self, name: str, fn):
        calls, self_ns, stack, spans = self.calls, self.self_ns, self._stack, self.spans
        calls[name] = self_ns[name] = 0
        useful = name in USEFUL
        tested = name == "spaces.check_distribution"
        if useful:
            self.useful[name] = 0

        def wrapper(*args, **kwargs):
            span_id = len(spans)
            spans.append(None)
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0]
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                took = end - start
                calls[name] += 1
                self_ns[name] += took - frame[1]
                if stack:
                    stack[-1][1] += took
                spans[span_id] = (span_id, parent, self.query, name, start, end)
            if useful and result:
                self.useful[name] += 1
            if tested:
                self.distribution_tested += result.a_over_b.tested + result.b_over_a.tested
            return result

        return wrapper

    def counter(self, name: str, fn, count_useful: bool):
        calls = self.calls
        calls[name] = 0
        if not count_useful:
            def counted(*args):
                calls[name] += 1
                return fn(*args)
            return counted
        useful = self.useful
        useful[name] = 0

        def counted_useful(*args):
            calls[name] += 1
            result = fn(*args)
            if result:
                useful[name] += 1
            return result
        return counted_useful


def install(tracer: Tracer) -> None:
    """Wrap the engine in place; call after importing multigroup.cli."""
    from multigroup.groups import FiniteGroup

    replaced = {}
    for layer in LAYERS:
        module = sys.modules[f"multigroup.{layer}"]
        for attr, fn in list(vars(module).items()):
            if attr.startswith("_") or not inspect.isfunction(fn) \
                    or fn.__module__ != module.__name__:
                continue
            name = f"{layer}.{attr}"
            if name in COUNT_ONLY:
                replaced[fn] = tracer.counter(name, fn, name in USEFUL)
            else:
                replaced[fn] = tracer.span(name, fn)
    namespaces = [vars(m) for n, m in list(sys.modules.items())
                  if n == "multigroup" or n.startswith("multigroup.")]
    for namespace in namespaces:
        for attr, value in list(namespace.items()):
            if inspect.isfunction(value) and value in replaced:
                namespace[attr] = replaced[value]
    FiniteGroup.mul = tracer.counter("groups.mul", FiniteGroup.mul, False)


def summary(tracer: Tracer) -> dict:
    """Per-function and per-layer counts and self times of one round."""
    functions = {name: {"calls": tracer.calls[name],
                        "self_s": tracer.self_ns.get(name, 0) / 1e9,
                        "useful": tracer.useful.get(name)}
                 for name in sorted(tracer.calls)}
    layers = {}
    for layer in LAYERS:
        mine = [f for n, f in functions.items()
                if n.startswith(layer + ".") and n != "groups.mul"]
        layers[layer] = {"calls": sum(f["calls"] for f in mine),
                         "self_s": sum(f["self_s"] for f in mine)}
    return {"functions": functions, "layers": layers,
            "distribution_tested": tracer.distribution_tested,
            "spans": len(tracer.spans)}
