"""No comprehension or generator expression runs inside
``DialogueEngine.process``.  Python 3.11 runs each in a frame of its own,
which costs a call and does no model work (3.12 inlines comprehensions,
PEP 709), so the event path uses ``map``, ``filter``, ``sorted`` and plain
loops.  A ``sys.setprofile`` hook, active only while ``process`` runs,
names every such frame that starts: over the fixtures, and over contested
dialogues that include events that raise."""

import sys
from pathlib import Path

from commonground import CommonGroundError, DialogueEngine, parse
from conftest import DIALOGUES, DISPUTES
from event_costs import COMPREHENSIONS

BENCH = Path(__file__).resolve().parent.parent / "bench"
CONTESTED = 50


class FrameSpy:
    """A profile hook that keeps the qualified name of each comprehension
    or generator-expression frame that starts while it is installed."""

    def __init__(self):
        self.seen: list[str] = []

    def hook(self, frame, event, arg):
        if event == "call" and frame.f_code.co_name in COMPREHENSIONS:
            self.seen.append(frame.f_code.co_qualname)

    def run(self, function, *args):
        sys.setprofile(self.hook)
        try:
            return function(*args)
        finally:
            sys.setprofile(None)


def replay(spy: FrameSpy, text: str) -> int:
    """Replay ``text`` under ``spy``, up to and including its first event
    that raises; returns the events that raised (0 or 1)."""
    transcript = parse(text)
    engine = DialogueEngine.for_transcript(transcript)
    for event in transcript.events:
        try:
            spy.run(engine.process, event)
        except CommonGroundError:
            return 1
    return 0


def contested_dialogues() -> list[str]:
    sys.path.insert(0, str(BENCH))
    try:
        import gen
    finally:
        sys.path.remove(str(BENCH))
    return gen.contested(0)[:CONTESTED]


def successors(xs):
    return [x + 1 for x in xs]


def test_the_spy_sees_a_list_comprehension():
    spy = FrameSpy()
    spy.run(successors, (1, 2))
    assert spy.seen == ["successors.<locals>.<listcomp>"]


def test_no_comprehension_frame_starts_on_the_event_path():
    spy = FrameSpy()
    for path in DIALOGUES + DISPUTES:
        replay(spy, path.read_text(encoding="utf-8"))
    raised = sum(replay(spy, text) for text in contested_dialogues())
    assert raised > 0  # the path through an event that raises is covered too
    assert spy.seen == []
