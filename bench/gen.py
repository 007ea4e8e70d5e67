"""Seeded generator for the synthetic benchmark dialogues.

The generator turns a seed into ``.dlg`` text and nothing else: the program
under test only ever sees the text.  The same seed gives the same bytes.

The workload fixes how many events of each kind a dialogue holds
(``CONTESTED_MIX``, with the reason for each kind), so the amount of each kind
of work is the same from seed to seed and a run's figures depend on the
program rather than on the draw.  Mixes are set by the shape of the
exchange alone, never by whether the program survives it.
"""

from __future__ import annotations

import random

# --- contested --------------------------------------------------------------
#
# Many short goal-marked dialogues in which the participants disagree.  The
# seed chooses the order of kinds and what each event refers back to.
# Denials of derived literals are a known crash class of the program; they
# stay in the mix, and the crash shows as events it cuts off, which
# lower ``completed_frac``.

CONTESTED_DIALOGUES = 300
CONTESTED_OPENING = 3

#: kind -> (events per dialogue, why it is in the mix); 30 events in all
CONTESTED_MIX = {
    "fresh": (11, "new literal: content the other side can accept, check or contradict"),
    "rule": (4, "single-antecedent rule over a said literal: derived content to deny"),
    "affirm": (4, "affirmation: linguistic acceptance of the previous turn"),
    "check": (3, "rising repeat of a said literal: blocks default acceptance, pending"),
    "reject": (3, "rejects: the previous utterance: explicit rejection, defeat cascade"),
    "contradict": (4, "negation of a said literal: contrary evidence, trial closure raises"),
    "deny_derived": (1, "negation of a derived literal: defeat of an inference, then clash"),
}


def _lit(atom: str, positive: bool) -> str:
    return atom if positive else "!" + atom


def _negate(lit: str) -> str:
    return lit[1:] if lit.startswith("!") else "!" + lit


def _say(lit: str) -> str:
    return lit if not lit.startswith("!") else "not " + lit[1:]


class _Dialogue:
    """Accumulates utterance records; speakers alternate a, b."""

    def __init__(self, dialogue_id: str, require_acceptance: bool):
        self.head = (f"dialogue: {dialogue_id}\nparticipants: a, b\n"
                     f"require-acceptance: {'true' if require_acceptance else 'false'}\n")
        self.records: list[str] = []

    @property
    def turn(self) -> int:
        return len(self.records)

    def add(self, text: str, *, act: str = "assert", realizes: str = "",
            intonation: str = "", antecedents: str = "", rejects: str = "") -> str:
        turn = self.turn
        uid = f"u{turn}"
        speaker, addressee = ("a", "b") if turn % 2 == 0 else ("b", "a")
        lines = [f"id: {uid}", f"turn: {turn}", f"speaker: {speaker}",
                 f"addressee: {addressee}", f"text: {text}", f"act: {act}"]
        for key, value in (("intonation", intonation), ("realizes", realizes),
                           ("antecedents", antecedents), ("rejects", rejects)):
            if value:
                lines.append(f"{key}: {value}")
        self.records.append("\n".join(lines) + "\n")
        return uid

    def text(self) -> str:
        return "\n".join([self.head, *self.records])


def _kinds(rng: random.Random, counts: dict[str, int], opening: int) -> list[str]:
    """``opening`` fresh literals, then the remaining quota in seeded order."""
    rest = [kind for kind, n in counts.items() for _ in range(n)]
    for _ in range(opening):
        rest.remove("fresh")
    rng.shuffle(rest)
    return ["fresh"] * opening + rest


def contested(seed: int) -> list[str]:
    """CONTESTED_DIALOGUES short disputed dialogues, each with the
    CONTESTED_MIX quota."""
    rng = random.Random(f"contested/{seed}")
    counts = {kind: n for kind, (n, _) in CONTESTED_MIX.items()}
    return [_contested_one(rng, f"contested_{seed}_{i}", counts)
            for i in range(CONTESTED_DIALOGUES)]


def _contested_one(rng: random.Random, dialogue_id: str, counts: dict[str, int]) -> str:
    d = _Dialogue(dialogue_id, require_acceptance=True)
    atoms = 0
    said: list[tuple[str, str, str]] = []  # (uid, text, literal)
    derived: list[str] = []  # consequents of rules whose antecedent was said

    def fresh() -> None:
        nonlocal atoms
        lit = _lit(f"y{atoms}", rng.random() < 0.5)
        atoms += 1
        text = f"it is so that {_say(lit)}"
        said.append((d.add(text, realizes=lit), text, lit))

    for kind in _kinds(rng, counts, CONTESTED_OPENING):
        # a denial drawn before any rule falls back to a fresh literal, so
        # that quota is a ceiling; the opening supplies every other kind
        if kind == "fresh" or (kind == "deny_derived" and not derived):
            fresh()
        elif kind == "rule":
            _, _, ant = rng.choice(said)
            cons = _lit(f"y{atoms}", rng.random() < 0.5)
            atoms += 1
            d.add(f"so if {_say(ant)} then {_say(cons)}", realizes=f"{ant} -> {cons}")
            derived.append(cons)
        elif kind == "affirm":
            d.add("right", act="affirmation")
        elif kind == "check":
            uid, text, lit = rng.choice(said)
            d.add(text, realizes=lit, antecedents=uid, intonation="rising")
        elif kind == "reject":
            d.add("no that is wrong", act="other", rejects=f"u{d.turn - 1}")
        elif kind == "contradict":
            neg = _negate(rng.choice(said)[2])
            d.add(f"no {_say(neg)}", realizes=neg)
        else:  # deny_derived
            neg = _negate(rng.choice(derived))
            d.add(f"surely {_say(neg)}", realizes=neg)
    return d.text()
