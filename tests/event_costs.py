"""Print the Python calls, bytecodes and enum member loads per completed
event, by event kind, and per event at the two text ends of a pass.

It replays the first 100 contested dialogues of seed 0 (``bench/gen.py``)
and counts, inside each ``DialogueEngine.process`` call, every Python
function call and every bytecode the interpreter runs (``sys.settrace``
with ``f_trace_opcodes``).  Of those bytecodes, it also counts the loads of
an enum member through its class (``Strength.LINGUISTIC``), found with
``dis`` by ``enum_member_loads``.  On Python 3.11 each such load goes
through the enum metaclass's ``__getattr__`` hook, at about five times the
cost of a plain class attribute, which the bytecode count cannot show.  An
event that raises is left out.  The kind of an event is the generator's,
read back off its text and intonation.  The
second table counts the same inside ``transcript.parse``, per event parsed,
and inside ``trace.write_trace``, per trace record rendered.  The counts
are deterministic: two runs of one checkout print the same tables.
To compare two checkouts, run this file with ``PYTHONPATH`` at each one's
``src``.
pytest does not collect this file (its name does not start with ``test``).

    PYTHONPATH=src python3 tests/event_costs.py
"""

from __future__ import annotations

import dis
import sys
from enum import EnumType
from pathlib import Path

from commonground import CommonGroundError, DialogueEngine, Intonation
from commonground.trace import write_trace
from commonground.transcript import parse

BENCH = Path(__file__).resolve().parent.parent / "bench"
DIALOGUES = 100
#: text prefix -> kind, tried in order; a rising repeat is a check
PREFIXES = (("it is so that ", "fresh"), ("so if ", "rule"), ("right", "affirm"),
            ("no that is wrong", "reject"), ("no ", "contradict"), ("surely ", "deny_derived"))


def kind_of(event) -> str:
    if event.intonation is Intonation.RISING:
        return "check"
    return next(kind for prefix, kind in PREFIXES if event.text.startswith(prefix))


def enum_member_loads(code, namespace: dict) -> list[dis.Instruction]:
    """The instructions of ``code`` that load an enum member through its
    class: each ``LOAD_ATTR`` of a member right after the ``LOAD_GLOBAL`` of
    an ``Enum`` class, a global of ``namespace``.  Nested code objects are
    not searched."""
    instructions = list(dis.get_instructions(code))
    found = []
    for load, attr in zip(instructions, instructions[1:]):
        cls = namespace.get(load.argval) if load.opname == "LOAD_GLOBAL" else None
        if isinstance(cls, EnumType) and attr.opname == "LOAD_ATTR" \
                and attr.argval in cls.__members__:
            found.append(attr)
    return found


#: code object -> the offsets of its enum member loads, found at its first call
MEMBER_LOADS: dict = {}


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


class LoadCounter(Counter):
    """A ``Counter`` that also counts enum member loads.  It fills
    ``MEMBER_LOADS`` as it goes, so ``long_shapes`` uses a plain ``Counter``
    and sees no allocation of its own among the objects it counts."""

    def __init__(self):
        super().__init__()
        self.member_loads = 0

    def global_trace(self, frame, event, arg):
        code = frame.f_code
        if event == "call" and code not in MEMBER_LOADS:
            MEMBER_LOADS[code] = {i.offset for i in enum_member_loads(code, frame.f_globals)}
        return super().global_trace(frame, event, arg)

    def local_trace(self, frame, event, arg):
        if event == "opcode" and frame.f_lasti in MEMBER_LOADS[frame.f_code]:
            self.member_loads += 1
        return super().local_trace(frame, event, arg)


def counted(row: list[int], function, *args):
    """``function(*args)``, adding its calls, bytecodes and enum member
    loads to ``row[1:]``."""
    counter = LoadCounter()
    sys.settrace(counter.global_trace)
    try:
        return function(*args)
    finally:
        sys.settrace(None)
        row[1] += counter.calls
        row[2] += counter.opcodes
        row[3] += counter.member_loads


def measure(texts: list[str]) -> tuple[dict[str, list[int]], dict[str, list[int]]]:
    """kind -> [events, calls, bytecodes, enum member loads] over the
    completed events, and the same for ``parse`` and ``write_trace`` over
    the events each handles."""
    totals: dict[str, list[int]] = {}
    ends = {"parse": [0, 0, 0, 0], "write_trace": [0, 0, 0, 0]}
    for text in texts:
        transcript = counted(ends["parse"], parse, text)
        ends["parse"][0] += len(transcript.events)
        engine = DialogueEngine.for_transcript(transcript)
        for event in transcript.events:
            cost = [1, 0, 0, 0]
            try:
                counted(cost, engine.process, event)
            except CommonGroundError:
                break
            row = totals.setdefault(kind_of(event), [0, 0, 0, 0])
            for i in range(4):
                row[i] += cost[i]
        counted(ends["write_trace"], write_trace, engine.traces)
        ends["write_trace"][0] += len(engine.traces)
    return totals, ends


def print_rows(rows: dict[str, list[int]], total: bool) -> None:
    print(f"{'kind':14s} {'events':>7s} {'calls/event':>12s} {'bytecodes/event':>16s} "
          f"{'enum loads/event':>17s}")
    if total:
        rows = dict(rows, all=[sum(row[i] for row in rows.values()) for i in range(4)])
    for kind, (events, calls, opcodes, loads) in rows.items():
        print(f"{kind:14s} {events:7d} {calls / events:12.1f} {opcodes / events:16.1f} "
              f"{loads / events:17.1f}")


def main() -> int:
    sys.path.insert(0, str(BENCH))
    import gen
    totals, ends = measure(gen.contested(0)[:DIALOGUES])
    print_rows(dict(sorted(totals.items())), total=True)
    print()
    print_rows(ends, total=False)
    return 0


if __name__ == "__main__":
    sys.exit(main())
