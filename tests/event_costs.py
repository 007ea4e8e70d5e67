"""Print the Python calls and bytecodes per completed event, by event kind.

It replays the first 100 contested dialogues of seed 0 (``bench/gen.py``)
and counts, inside each ``DialogueEngine.process`` call, every Python
function call and every bytecode the interpreter runs (``sys.settrace``
with ``f_trace_opcodes``).  An event that raises is left out.  The kind of
an event is the generator's, read back off its text and intonation.  The
counts are deterministic: two runs of one checkout print the same table.
To compare two checkouts, run this file with ``PYTHONPATH`` at each one's
``src``.
pytest does not collect this file (its name does not start with ``test``).

    PYTHONPATH=src python3 tests/event_costs.py
"""

from __future__ import annotations

import sys
from pathlib import Path

from commonground import CommonGroundError, DialogueEngine, Intonation
from commonground.transcript import parse

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "bench"))
import gen  # noqa: E402

DIALOGUES = 100
#: text prefix -> kind, tried in order; a rising repeat is a check
PREFIXES = (("it is so that ", "fresh"), ("so if ", "rule"), ("right", "affirm"),
            ("no that is wrong", "reject"), ("no ", "contradict"), ("surely ", "deny_derived"))


def kind_of(event) -> str:
    if event.intonation is Intonation.RISING:
        return "check"
    return next(kind for prefix, kind in PREFIXES if event.text.startswith(prefix))


class Counter:
    """A tracer that counts calls and bytecodes while it is installed."""

    def __init__(self):
        self.calls = self.opcodes = 0

    def global_trace(self, frame, event, arg):
        if event == "call":
            self.calls += 1
            frame.f_trace_opcodes = True
            return self.local_trace
        return None

    def local_trace(self, frame, event, arg):
        if event == "opcode":
            self.opcodes += 1
        return self.local_trace


def measure(texts: list[str]) -> dict[str, list[int]]:
    """kind -> [events, calls, bytecodes] over the completed events."""
    totals: dict[str, list[int]] = {}
    for text in texts:
        transcript = parse(text)
        engine = DialogueEngine.for_transcript(transcript)
        for event in transcript.events:
            counter = Counter()
            sys.settrace(counter.global_trace)
            try:
                engine.process(event)
            except CommonGroundError:
                break
            finally:
                sys.settrace(None)
            row = totals.setdefault(kind_of(event), [0, 0, 0])
            row[0] += 1
            row[1] += counter.calls
            row[2] += counter.opcodes
    return totals


def main() -> int:
    totals = measure(gen.contested(0)[:DIALOGUES])
    print(f"{'kind':14s} {'events':>7s} {'calls/event':>12s} {'bytecodes/event':>16s}")
    for kind in sorted(totals):
        events, calls, opcodes = totals[kind]
        print(f"{kind:14s} {events:7d} {calls / events:12.1f} {opcodes / events:16.1f}")
    events, calls, opcodes = (sum(row[i] for row in totals.values()) for i in range(3))
    print(f"{'all':14s} {events:7d} {calls / events:12.1f} {opcodes / events:16.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
