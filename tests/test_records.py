"""The ``NamedTuple`` records the event path builds with
``propositions.new_record`` (``tuple.__new__``), which checks no arity and
fills in no default: each one is an instance of its class with exactly one
value per field.  The replays cover every fixture dialogue the goldens pin
and the first 100 contested dialogues of seed 0 (``bench/gen.py``)."""

import importlib
import sys
from pathlib import Path

import pytest

from commonground import CommonGroundError, DialogueEngine, acceptance
from commonground.acceptance import AcceptanceOutcome, ConflictEvidence, RetractionReport
from commonground.grounding import UtteranceEvent
from commonground.propositions import RedundancyVerdict
from commonground.trace import RecordSnapshot, TraceRecord
from commonground.transcript import parse
from conftest import DIALOGUES, DISPUTES

BENCH = Path(__file__).resolve().parent.parent / "bench"


def contested_texts() -> list[str]:
    sys.path.insert(0, str(BENCH))
    try:
        return importlib.import_module("gen").contested(0)[:100]
    finally:
        sys.path.remove(str(BENCH))


def trace_records(trace):
    """(class, record) for each record ``trace`` holds, itself included."""
    yield TraceRecord, trace
    yield UtteranceEvent, trace.event
    yield from ((RecordSnapshot, snap) for snap in trace.records)
    if trace.conflict is not None:
        yield ConflictEvidence, trace.conflict
    yield from ((AcceptanceOutcome, o) for o in trace.acceptances)
    yield from ((RedundancyVerdict, verdict) for _, _, verdict in trace.asserted)


@pytest.mark.parametrize("source", ["fixtures", "contested"])
def test_every_record_of_the_event_path_holds_one_value_per_field(source, monkeypatch):
    texts = [p.read_text(encoding="utf-8") for p in DIALOGUES + DISPUTES] \
        if source == "fixtures" else contested_texts()
    made = []  # the records a replay builds and keeps nowhere

    def keep(cls, function):
        def wrapper(*args, **kwargs):
            result = function(*args, **kwargs)
            made.append((cls, result))
            return result
        return wrapper

    monkeypatch.setattr(acceptance, "defeat", keep(RetractionReport, acceptance.defeat))
    seen = set()
    for text in texts:
        transcript = parse(text)
        made += [(UtteranceEvent, event) for event in transcript.events]
        engine = DialogueEngine.for_transcript(transcript)
        try:
            engine.replay(transcript)
        except CommonGroundError:
            pass
        for trace in engine.traces:
            made += trace_records(trace)
    for cls, record in made:
        assert type(record) is cls and len(record) == len(cls._fields), (cls, record)
        seen.add(cls)
    assert seen == {TraceRecord, UtteranceEvent, RecordSnapshot, ConflictEvidence,
                    AcceptanceOutcome, RedundancyVerdict, RetractionReport}
