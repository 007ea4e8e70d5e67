"""Belief-state trace records and their canonical text rendering.

One block per processed event, blank-line separated, fixed key order,
strengths rendered with their lowercase lattice names.  The format is
bit-exact: the same dialogue always renders to the same bytes.
"""

from __future__ import annotations

from typing import NamedTuple

from .evidence import Strength
from .grounding import ASSUMPTION_ORDER
from .propositions import Proposition


class RecordSnapshot(NamedTuple):
    utterance_id: str
    turn_index: int
    strengths: tuple[tuple[str, Strength], ...]  # in ASSUMPTION_ORDER
    understanding: Strength


class TraceRecord(NamedTuple):
    """After-event snapshot of everything the event touched."""

    event_id: str
    turn_index: int
    speaker: str
    addressee: str
    act: str
    intonation: str
    iru_class: str = "none"
    antecedents: tuple[str, ...] = ()
    records: tuple[RecordSnapshot, ...] = ()
    licenses: tuple[tuple[str, str, Strength, str], ...] = ()  # premise, conclusion, strength, origin
    conflicts: tuple[tuple[str, str, str], ...] = ()  # kind, new, old
    acceptances: tuple[tuple[str, str, str, str, str], ...] = ()  # kind, prop, agent, strength/detail, trigger
    asserted: tuple[tuple[str, Strength, str], ...] = ()  # prop, strength, redundancy note
    derived: tuple[tuple[str, Strength, tuple[str, ...]], ...] = ()  # prop, strength, roots
    supports: tuple[tuple[str, str], ...] = ()
    retractions: tuple[tuple[str, ...], ...] = ()

    def render(self) -> str:
        lines = [
            f"event: {self.event_id} (turn {self.turn_index}) {self.speaker} -> {self.addressee}",
            f"act: {self.act}",
            f"intonation: {self.intonation}",
            f"iru: {self.iru_class}",
        ]
        if self.antecedents:
            lines.append("antecedents: " + ", ".join(self.antecedents))
        for snap in self.records:
            lines.append(f"record: {snap.utterance_id}")
            for name, strength in snap.strengths:
                lines.append(f"  {name}: {strength}")
            lines.append(f"  understand: {snap.understanding}")
        for premise, conclusion, strength, origin in self.licenses:
            lines.append(f"license: {premise} => {conclusion} [{strength}] ({origin})")
        for kind, new, old in self.conflicts:
            lines.append(f"conflict: {kind} ({new} vs {old})")
        for kind, prop, agent, info, trigger in self.acceptances:
            if kind == "accepted":
                lines.append(f"acceptance: {prop} by {agent} [{info}] (trigger {trigger})")
            elif kind == "blocked":
                lines.append(f"acceptance: blocked ({info}) {prop} by {agent}")
            else:
                lines.append(f"acceptance: rejected {prop} by {agent} ({info})")
        for prop, strength, note in self.asserted:
            suffix = f" ({note})" if note else ""
            lines.append(f"asserted: {prop} [{strength}]{suffix}")
        for prop, strength, roots in self.derived:
            src = ", ".join(roots)
            lines.append(f"derived: {prop} [{strength}] from({src})")
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


def snapshot_record(record, turn_index: int, understanding: Strength) -> RecordSnapshot:
    ordered = tuple((name, record.strengths[name]) for name in ASSUMPTION_ORDER
                    if name in record.strengths)
    return RecordSnapshot(record.utterance_id, turn_index, ordered, understanding)


def prop_text(p: Proposition) -> str:
    return str(p)
