"""Validation reports: structured verdicts with witnesses.

A report never hides a failure behind a bool; every violation carries the
concrete elements that exhibit it, so a falsified axiom can be replayed by
hand against the Cayley tables.
"""

from __future__ import annotations

from collections import namedtuple


# violation categories
STRUCTURAL = "structural"
AXIOM = "axiom"
DISTRIBUTION = "distribution"


class Violation(namedtuple("Violation", [
        "category",         # structural | axiom | distribution
        "kind",             # e.g. closure, associativity, identity, inverse
        "message",
        "op_ids",           # tuple[str, ...]
        "witness",          # tuple[str, ...]
], defaults=((), ()))):
    __slots__ = ()


class ValidationReport(namedtuple("ValidationReport", [
        "violations",       # tuple[Violation, ...]
        "notes",            # tuple[str, ...]
], defaults=((), ()))):
    """The violations found, in the order found, and the notes."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return not self.violations

    def structural(self) -> list[Violation]:
        return [v for v in self.violations if v.category == STRUCTURAL]
