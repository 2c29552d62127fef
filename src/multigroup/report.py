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

    def to_dict(self) -> dict:
        return {
            "category": self.category,
            "kind": self.kind,
            "message": self.message,
            "op_ids": list(self.op_ids),
            "witness": list(self.witness),
        }


class ValidationReport:
    """The violations found, in the order found, and the notes; it grows as
    a validation runs and merges the reports of its parts."""

    def __init__(self, violations: list[Violation] | None = None,
                 notes: list[str] | None = None):
        self.violations = [] if violations is None else violations
        self.notes = [] if notes is None else notes

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.violations, self.notes) == (other.violations, other.notes)

    def __repr__(self) -> str:
        return f"ValidationReport(violations={self.violations!r}, notes={self.notes!r})"

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, category: str, kind: str, message: str,
            op_ids: tuple[str, ...] = (), witness: tuple[str, ...] = ()) -> None:
        self.violations.append(Violation(category, kind, message, op_ids, witness))

    def note(self, message: str) -> None:
        self.notes.append(message)

    def structural(self) -> list[Violation]:
        return [v for v in self.violations if v.category == STRUCTURAL]

    def merge(self, other: "ValidationReport") -> None:
        self.violations.extend(other.violations)
        self.notes.extend(other.notes)

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "violations": [v.to_dict() for v in self.violations],
            "notes": list(self.notes),
        }
