"""Exception types shared across the package."""

from __future__ import annotations

from typing import NamedTuple


class CommonGroundError(Exception):
    """Base class for all domain errors raised by this package."""


class ConflictDetected(CommonGroundError):
    """A proposition clashes with live content.

    Carried as a signal, not a crash: the acceptance machinery consumes it
    and records conflict evidence instead of asserting the content.  Its one
    argument holds the pairs of clashing Literal objects, so it pickles; the
    text is built only when shown, as most are caught and never shown.
    """

    @property
    def clashes(self) -> tuple:
        return tuple(self.args[0])

    def __str__(self) -> str:
        return f"contradictory literals: {self.clashes!r}"


class DuplicateUtterance(CommonGroundError):
    pass


class DanglingAntecedent(CommonGroundError):
    pass


class OrderingViolation(CommonGroundError):
    pass


class SelfContradiction(CommonGroundError):
    """An utterance realizes a literal together with its negation."""


class DefeatRejected(CommonGroundError):
    """Defeat requires strictly stronger evidence than the target holds, and
    never reaches a rule, which stays in the implication graph once entered."""


class UnknownProposition(CommonGroundError):
    pass


class BadPropositionSyntax(CommonGroundError):
    pass


class ParseIssue(NamedTuple):
    """One parse problem, pinned to a 1-based line number."""

    line: int
    code: str
    message: str

    def __str__(self) -> str:
        return f"line {self.line}: {self.message} [{self.code}]"


class TranscriptError(CommonGroundError):
    """Raised when a transcript document fails to parse; carries every issue found."""

    def __init__(self, issues):
        self.issues = tuple(issues)
        super().__init__("; ".join(str(i) for i in self.issues))
