"""Belief-state trace records and their canonical text rendering.

A record holds the event and the values the engine computed for it; this
module alone turns them into text.  One block per processed event,
blank-line separated, fixed key order, strengths rendered with their
lowercase lattice names (``Strength.label``, which is also their ``str``).
The format is bit-exact: the same dialogue always renders to the same bytes.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .acceptance import AcceptanceOutcome, ConflictEvidence
from .evidence import Strength
from .grounding import ASSUMPTION_ORDER, IRUClass, UtteranceEvent
from .propositions import Proposition, RedundancyVerdict, new_record


class RecordSnapshot(NamedTuple):
    utterance_id: str
    strengths: dict[str, Strength]  # a copy of the record's, in any order
    understanding: Strength


class TraceRecord(NamedTuple):
    """After-event snapshot of everything the event touched."""

    event: UtteranceEvent
    iru_class: IRUClass
    antecedents: tuple[str, ...]
    records: tuple[RecordSnapshot, ...]
    licenses: tuple[tuple[Proposition, Proposition, Strength, str], ...]  # premise, conclusion, strength, origin
    conflict: Optional[ConflictEvidence]
    acceptances: tuple[AcceptanceOutcome, ...]
    asserted: tuple[tuple[Proposition, Strength, RedundancyVerdict], ...]
    derived: tuple[tuple[Proposition, Strength, tuple[str, ...]], ...]  # prop, strength, roots
    supports: tuple[tuple[Proposition, Proposition], ...]  # belief, goal
    retractions: tuple[tuple[str, ...], ...]

    def render(self) -> str:
        e = self.event
        # an enum member's _value_ is a plain attribute; .value is a property
        lines = [
            f"event: {e.utterance_id} (turn {e.turn_index}) {e.speaker} -> {e.addressee}",
            f"act: {e.act._value_}",
            f"intonation: {e.intonation._value_}",
            f"iru: {self.iru_class._value_}",
        ]
        if self.antecedents:
            lines.append("antecedents: " + ", ".join(self.antecedents))
        for snap in self.records:
            lines.append(f"record: {snap.utterance_id}")
            strengths = snap.strengths
            for name in ASSUMPTION_ORDER:
                if name in strengths:
                    lines.append(f"  {name}: {strengths[name].label}")
            lines.append(f"  understand: {snap.understanding.label}")
        for premise, conclusion, strength, origin in self.licenses:
            lines.append(f"license: {premise} => {conclusion} [{strength.label}] ({origin})")
        if self.conflict is not None:
            new, old = self.conflict.pair
            lines.append(f"conflict: {self.conflict.kind} ({new} vs {old})")
        for o in self.acceptances:
            if o.kind == AcceptanceOutcome.ACCEPTED:
                lines.append(f"acceptance: {o.proposition} by {o.agent} "
                             f"[{o.strength.label}] (trigger {o.trigger})")
            elif o.kind == AcceptanceOutcome.BLOCKED:
                lines.append(f"acceptance: blocked ({o.detail}) {o.proposition} by {o.agent}")
            else:
                lines.append(f"acceptance: rejected {o.proposition} by {o.agent} ({o.detail})")
        for prop, strength, verdict in self.asserted:
            note = f" (redundant: {verdict.kind} {', '.join(sorted(verdict.antecedents))})" \
                if verdict.redundant else ""
            lines.append(f"asserted: {prop} [{strength.label}]{note}")
        for prop, strength, roots in self.derived:
            lines.append(f"derived: {prop} [{strength.label}] from({', '.join(roots)})")
        for belief, goal in self.supports:
            lines.append(f"support: {belief} => {goal}")
        for defeated in self.retractions:
            lines.append("retracted: " + ", ".join(defeated))
        return "\n".join(lines)


def write_trace(records: list[TraceRecord]) -> str:
    """Render trace records to the canonical document; empty list, empty text."""
    if not records:
        return ""
    return "\n\n".join(r.render() for r in records) + "\n"


def snapshot_record(record, understanding: Strength) -> RecordSnapshot:
    """The record's id and strengths as they stand now, and its understanding."""
    return new_record(RecordSnapshot, (record.utterance_id, dict(record.strengths), understanding))


def prop_text(p: Proposition) -> str:
    """``str(p)``, kept only as a span target of ``bench/run.py``."""
    return str(p)
