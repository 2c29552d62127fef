"""Validation reports: structured verdicts with witnesses.

A report never hides a failure behind a bool; every violation carries the
concrete elements that exhibit it, so a falsified axiom can be replayed by
hand against the Cayley tables.
"""

from __future__ import annotations

from dataclasses import dataclass, field


# violation categories
STRUCTURAL = "structural"
AXIOM = "axiom"
DISTRIBUTION = "distribution"


@dataclass(frozen=True)
class Violation:
    category: str          # structural | axiom | distribution
    kind: str              # e.g. closure, associativity, identity, inverse
    message: str
    op_ids: tuple[str, ...] = ()
    witness: tuple[str, ...] = ()

    def to_dict(self) -> dict:
        return {
            "category": self.category,
            "kind": self.kind,
            "message": self.message,
            "op_ids": list(self.op_ids),
            "witness": list(self.witness),
        }


@dataclass
class ValidationReport:
    violations: list[Violation] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

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
