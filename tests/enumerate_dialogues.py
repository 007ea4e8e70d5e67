"""Replay every small dialogue of a fixed space and print a digest of the output.

The space (ROADMAP item 8): two atoms, speakers alternating a, b, and each
event one of 14 kinds: the 4 literals, the 8 single-antecedent rules across
the atoms, an affirmation, and a rejection of the previous turn, which at
turn 0 is ``act: other`` alone.  For each length it prints the number of
dialogues, how many end in ``ConflictDetected``, and the sha256 of every
dialogue's trace text and error text, in order.  Two checkouts that print
the same lines give the same output on the whole space.
pytest does not collect this file (its name does not start with ``test``).

    PYTHONPATH=src python3 tests/enumerate_dialogues.py [length ...]   # default: 3 4
"""

from __future__ import annotations

import hashlib
import itertools
import sys

from commonground import (ActType, CommonGroundError, ConflictDetected, DialogueEngine,
                          DiscourseState, UtteranceEvent, parse_proposition, write_trace)

LITERALS = ("p", "!p", "q", "!q")
RULES = tuple(f"{a} -> {c}" for a, c in itertools.product(LITERALS, LITERALS)
              if a.lstrip("!") != c.lstrip("!"))
#: the 14 event kinds: a proposition's text, or ``affirm`` or ``reject``
KINDS = LITERALS + RULES + ("affirm", "reject")


def event(kind: str, turn: int) -> UtteranceEvent:
    """The event of ``kind`` at ``turn``, with id ``u<turn>``."""
    uid = f"u{turn}"
    speaker, addressee = ("a", "b") if turn % 2 == 0 else ("b", "a")
    if kind == "affirm":
        return UtteranceEvent(uid, turn, speaker, addressee, "right", ActType.AFFIRMATION)
    if kind == "reject":
        return UtteranceEvent(uid, turn, speaker, addressee, "no that is wrong", ActType.OTHER,
                              rejects=f"u{turn - 1}" if turn else None)
    return UtteranceEvent(uid, turn, speaker, addressee, f"so {kind}",
                          realizes=(parse_proposition(kind),))


def replay(kinds: tuple[str, ...]) -> tuple[str, bool]:
    """The trace text of one dialogue, with its error line if an error ends
    it, and whether that error is ``ConflictDetected``."""
    engine = DialogueEngine(DiscourseState("enumerated", ("a", "b"), True))
    error = None
    try:
        for turn, kind in enumerate(kinds):
            engine.process(event(kind, turn))
    except CommonGroundError as exc:
        error = exc
    text = write_trace(engine.traces)
    if error is not None:
        text += f"error: {type(error).__name__}: {error}\n"
    return text, isinstance(error, ConflictDetected)


def main(argv: list[str]) -> int:
    for length in [int(a) for a in argv[1:]] or [3, 4]:
        digest = hashlib.sha256()
        dialogues = conflicts = 0
        for kinds in itertools.product(KINDS, repeat=length):
            text, conflict = replay(kinds)
            digest.update(text.encode("utf-8") + b"\0")
            dialogues += 1
            conflicts += conflict
        print(f"{length} events: {dialogues} dialogues, {conflicts} ConflictDetected, "
              f"sha256 {digest.hexdigest()}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
