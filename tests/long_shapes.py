"""Print per-event costs by quarter on two long dialogue shapes that never
conflict, and the memory each replay keeps.

Both shapes alternate speakers a and b, with every event an assertion and
acceptance required:

- star: event 0 realizes ``y0``, and event t realizes ``y0 -> z<t>``, so
  every rule shares the hub ``y0``;
- chain: event 0 realizes ``y0``, and event t realizes ``y<t-1> -> y<t>``,
  so each rule extends one derivation.

For each shape and length it prints, per event in each quarter of the
dialogue, the Python calls and bytecodes inside ``DialogueEngine.process``
(``event_costs.Counter``) and the growth in gc-tracked objects, read after a
full collection at each quarter's end.  The last column is the Python heap
that a replay without the tracer keeps: ``tracemalloc``'s current size once
the replay ends, with tracing on only during it.  A full collection runs
just before the replay and just before the size is read, so neither the
garbage the process made before the replay nor the garbage the replay
leaves moves the figure.  It counts the memory Python allocates, not the
process's RSS, so it does not depend on the host's allocator.  Every column
is deterministic: two runs print the same table, and so do two checkouts
whose code differs only in text that the replay never runs.
pytest does not collect this file (its name does not start with ``test``).

    PYTHONPATH=src python3 tests/long_shapes.py
"""

from __future__ import annotations

import gc
import sys
import tracemalloc
from pathlib import Path

from commonground import DialogueEngine, DiscourseState, UtteranceEvent, parse_proposition

sys.path.insert(0, str(Path(__file__).resolve().parent))
from event_costs import Counter  # noqa: E402

LENGTHS = (100, 400)
SHAPES = {"star": lambda t: f"y0 -> z{t}", "chain": lambda t: f"y{t - 1} -> y{t}"}


def events(shape: str, length: int) -> list[UtteranceEvent]:
    """The ``length`` events of ``shape``: ``y0``, then one rule per turn."""
    rule = SHAPES[shape]
    found = []
    for turn in range(length):
        text = rule(turn) if turn else "y0"
        speaker, addressee = ("a", "b") if turn % 2 == 0 else ("b", "a")
        found.append(UtteranceEvent(f"u{turn}", turn, speaker, addressee, f"so {text}",
                                    realizes=(parse_proposition(text),)))
    return found


def engine() -> DialogueEngine:
    return DialogueEngine(DiscourseState("long", ("a", "b"), True))


def quarters(shape: str, length: int) -> list[tuple[float, float, float]]:
    """(calls, bytecodes, tracked objects) per event in each quarter."""
    todo, replay, rows, size = events(shape, length), engine(), [], length // 4
    gc.collect()
    tracked = len(gc.get_objects())
    for start in range(0, length, size):
        counter = Counter()
        sys.settrace(counter.global_trace)
        try:
            for event in todo[start:start + size]:
                replay.process(event)
        finally:
            sys.settrace(None)
        gc.collect()
        before, tracked = tracked, len(gc.get_objects())
        rows.append((counter.calls / size, counter.opcodes / size, (tracked - before) / size))
    return rows


def heap_kept(shape: str, length: int) -> int:
    """The bytes of Python heap allocated during one replay and still held
    when it ends."""
    todo, replay = events(shape, length), engine()
    gc.collect()
    tracemalloc.start()
    try:
        for event in todo:
            replay.process(event)
        gc.collect()
        return tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


def main() -> int:
    print(f"{'shape':6s} {'events':>6s} {'measure':>9s} {'Q1':>10s} {'Q2':>10s} {'Q3':>10s} "
          f"{'Q4':>10s} {'heap kept':>12s}", flush=True)
    for length in LENGTHS:
        for shape in SHAPES:
            kept = heap_kept(shape, length)
            rows = quarters(shape, length)
            for i, measure in enumerate(("calls", "bytecodes", "objects")):
                cells = "".join(f" {row[i]:10.1f}" for row in rows)
                last = f" {kept / 1e6:9.3f} MB" if i == 0 else ""
                print(f"{shape:6s} {length:6d} {measure:>9s}{cells}{last}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
