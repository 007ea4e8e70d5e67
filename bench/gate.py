"""Correctness gate, run untimed before any timing.

* ``corpus`` and ``contested`` outputs must match digests pinned in
  ``pinned.json`` (the corpus ``stats`` text and each example's trace; each
  trace and the stats of the contested dialogues for ``PINNED_SEED``).
* Every synthetic replay is checked from outside after each completed
  event (``Invariants``).
* ``contested`` must replay to byte-identical output twice, and a dialogue
  may end early only in ``ConflictDetected`` (``unexpected_errors``).

Run ``python3 bench/gate.py`` from the repository root to print fresh pins;
only do so for a change that is meant to alter the program's output.
"""

from __future__ import annotations

import hashlib
import json
import re
from pathlib import Path

PINNED_FILE = Path(__file__).with_name("pinned.json")
PINNED_SEED = 0
#: the one error a contested dialogue may end in: the program's known
#: uncaught-conflict crash, reported by ``completed_frac``
KNOWN_CRASH = "ConflictDetected"
ERROR_LINE = re.compile(r"^error: (\w+): ", re.MULTILINE)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def digests(outputs: dict[str, str]) -> dict[str, str]:
    return {name: digest(text) for name, text in sorted(outputs.items())}


def compare(outputs: dict[str, str], pinned: dict[str, str], label: str) -> list[str]:
    """Every named output whose digest differs from its pin, or is missing."""
    got = digests(outputs)
    return [f"{label}: {name} digest {got.get(name, 'missing')} != pinned {want}"
            for name, want in sorted(pinned.items()) if got.get(name) != want] + \
        [f"{label}: {name} has no pin" for name in sorted(set(got) - set(pinned))]


def unexpected_errors(outputs: dict[str, str], label: str) -> list[str]:
    """Every output that reports an error other than ``KNOWN_CRASH``."""
    return [f"{label}: {name} ended in {error}"
            for name, text in sorted(outputs.items())
            for error in ERROR_LINE.findall(text) if error != KNOWN_CRASH]


def load_pins() -> dict:
    return json.loads(PINNED_FILE.read_text(encoding="utf-8"))


class Invariants:
    """Model invariants checked from outside after each completed event.

    * no atom is live in both polarities;
    * no context entry's strength ever falls;
    * no live entry, acceptance belief or support link depends on a
      defeated one.
    """

    def __init__(self, live: str):
        self.live = live
        self.violations: list[str] = []
        self.events = 0
        self._strength: dict[tuple[str, str], object] = {}

    def __call__(self, state, event_id: str) -> None:
        self.events += 1
        where = f"{state.dialogue_id}/{event_id}"
        entries = state.context.entries
        polarity: dict[str, bool] = {}
        for eid, entry in entries.items():
            key = (state.dialogue_id, eid)
            before = self._strength.get(key)
            if before is not None and entry.strength < before:
                self.violations.append(f"{where}: {eid} fell from {before} to {entry.strength}")
            self._strength[key] = entry.strength
            if entry.status != self.live or not hasattr(entry.proposition, "atom"):
                continue
            lit = entry.proposition
            if polarity.setdefault(lit.atom, lit.positive) != lit.positive:
                self.violations.append(f"{where}: {lit.atom} live in both polarities")
        for nodes in (entries, state.nodes):
            for nid, node in nodes.items():
                if node.status != self.live:
                    continue
                for dep in node.dependencies:
                    target = entries.get(dep) or state.nodes.get(dep)
                    if target is not None and target.status != self.live:
                        self.violations.append(f"{where}: live {nid} depends on defeated {dep}")


if __name__ == "__main__":
    import sys

    import workloads

    root = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(root / "src"))
    pins = {"corpus": digests(workloads.Corpus(root, 0).run_pass()),
            "contested": digests(workloads.Contested(root, PINNED_SEED).run_pass())}
    print(json.dumps(pins, indent=2))
