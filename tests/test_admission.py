"""Admission: whether an event may follow its dialogue prefix.

``grounding.admission_issues`` holds the rules.  ``transcript.parse`` reports
each broken rule on its field's line, and ``DialogueEngine.process`` raises
the first before it changes any state, so the two agree on every input.
"""

import copy

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from commonground import (ActType, DanglingAntecedent, DialogueEngine, DiscourseState,
                          DuplicateUtterance, Literal, OrderingViolation,
                          SelfContradiction, Transcript, TranscriptError, UtteranceEvent,
                          admission_issues, parse, serialize)

HEADER = "dialogue: d\nparticipants: a, b\n"

#: what ``process`` raises for an event that may not follow its prefix
ADMISSION_ERRORS = (DuplicateUtterance, DanglingAntecedent, OrderingViolation,
                    SelfContradiction)


def record(uid, turn, speaker="a", addressee="b", **extra):
    lines = [f"id: {uid}", f"turn: {turn}", f"speaker: {speaker}",
             f"addressee: {addressee}", f"text: turn {turn}"]
    lines += [f"{key}: {value}" for key, value in extra.items()]
    return "\n".join(lines)


def document(*records):
    return HEADER + "\n" + "\n\n".join(records) + "\n"


def issues_of(text):
    with pytest.raises(TranscriptError) as exc:
        parse(text)
    return [(i.line, i.code) for i in exc.value.issues]


def engine():
    return DialogueEngine(DiscourseState("d", ("a", "b")))


def event(uid, turn, speaker="a", addressee="b", **kw):
    return UtteranceEvent(uid, turn, speaker, addressee, f"turn {turn}", **kw)


def snapshot(state):
    return copy.deepcopy((state.events, state.records, state.nodes))


# -- the rules ------------------------------------------------------------------

def test_every_broken_rule_is_one_triple_on_its_field():
    bad = event("u3", 2, speaker="z", antecedent_ids=("u0", "u9"), rejects="u7",
                realizes=(Literal("p"), Literal("p", False)))
    assert admission_issues(bad, {"a", "b"}, {"u0"}, 1) == [
        ("speaker", "bad-value", "speaker 'z' not a participant"),
        ("turn", "turn-order", "turn 2 out of place; expected 1"),
        ("antecedents", "dangling-antecedent", "antecedent 'u9' not an earlier utterance"),
        ("rejects", "dangling-antecedent", "rejected utterance 'u7' not defined earlier"),
        ("realizes", "self-contradiction", "realizes both p and !p"),
    ]
    assert admission_issues(event("u0", 1), {"a", "b"}, {"u0"}, 1) == [
        ("id", "duplicate-utterance", "utterance 'u0' already defined")]
    # no ``antecedents`` field could name it, as that field splits on commas
    assert admission_issues(event("x,y", 1), {"a", "b"}, {"u0"}, 1) == [
        ("id", "bad-value", "utterance id must not contain ','")]
    assert admission_issues(event("u1", 1), {"a", "b"}, {"u0"}, 1) == []


@pytest.mark.parametrize("uid", ["u1", "u0"], ids=["new-id", "reused-id"])
def test_a_record_level_refusal_is_reported_alone(uid):
    # the event cannot be its addressee's evidence, whatever else it breaks
    self_addressed = event(uid, 3, "a", "a", act=ActType.PROMPT, realizes=(Literal("p"),),
                           antecedent_ids=("u9",))
    prompt = event(uid, 3, "z", "b", act=ActType.PROMPT, realizes=(Literal("p"),),
                   rejects="u7")
    assert admission_issues(self_addressed, {"a", "b"}, {"u0"}, 1) == [
        (None, "bad-value", "speaker and addressee coincide")]
    assert admission_issues(prompt, {"a", "b"}, {"u0"}, 1) == [
        (None, "bad-value", "a prompt realizes no propositions")]


def test_a_record_level_refusal_is_reported_on_the_record_s_first_line():
    # the id line is not the record's first, and the second u0 reuses an id
    self_addressed = "turn: 1\nspeaker: b\naddressee: b\nid: u0\ntext: again"
    prompt = "act: prompt\nrealizes: p\n" + record("u2", 2, speaker="b", addressee="a")
    with pytest.raises(TranscriptError) as exc:
        parse(document(record("u0", 0), self_addressed, prompt))
    assert [(i.line, i.code, i.message) for i in exc.value.issues] == [
        (10, "bad-value", "u0: speaker and addressee coincide"),
        (16, "bad-value", "u2: a prompt realizes no propositions")]


@pytest.mark.parametrize("uid, kw, message", [
    ("u1", dict(speaker="b", addressee="b"), "speaker and addressee coincide"),
    ("u0", dict(speaker="b", addressee="b"), "speaker and addressee coincide"),
    ("u1", dict(speaker="b", addressee="a", act=ActType.PROMPT, realizes=(Literal("p"),)),
     "a prompt realizes no propositions"),
], ids=["self-addressed", "self-addressed-reused-id", "prompt-with-content"])
def test_process_refuses_a_record_level_fault_before_any_state_changes(uid, kw, message):
    e = engine()
    e.process(event("u0", 0, realizes=(Literal("q"),)))
    before = snapshot(e.state)
    with pytest.raises(OrderingViolation, match=f"^{uid}: {message}$"):
        e.process(event(uid, 1, **kw))
    assert snapshot(e.state) == before


def test_a_reused_id_is_reported_alone():
    # the second u0's antecedent is no earlier utterance, but that event is
    # not the utterance its references were written for
    text = document(record("u0", 0), record("u0", 1, speaker="b", addressee="a",
                                            antecedents="u5"))
    assert issues_of(text) == [(10, "duplicate-utterance")]


def test_a_second_empty_id_is_reported_as_empty_not_as_reused():
    text = document(record("", 0), record("", 1, speaker="b", addressee="a"))
    with pytest.raises(TranscriptError) as exc:
        parse(text)
    assert [(i.line, i.code, i.message) for i in exc.value.issues] == [
        (4, "bad-value", "utterance id must be nonempty"),
        (10, "bad-value", "utterance id must be nonempty")]


# -- parser and engine on the same inputs ------------------------------------------

def test_engine_turns_are_dense_from_zero():
    e = engine()
    e.process(event("u0", 0))
    gap = event("u1", 5, speaker="b", addressee="a")
    with pytest.raises(OrderingViolation, match="turn 5 out of place; expected 1"):
        e.process(gap)
    text = document(record("u0", 0), record("u1", 5, speaker="b", addressee="a"))
    assert issues_of(text) == [(11, "turn-order")]


def test_negative_turn_is_out_of_place():
    assert issues_of(document(record("u0", -1))) == [(5, "turn-order")]
    with pytest.raises(OrderingViolation):
        engine().process(event("u0", -1))


def test_unknown_rejects_is_a_dangling_antecedent_in_both():
    text = document(record("u0", 0), record("u1", 1, speaker="b", addressee="a", rejects="u9"))
    assert issues_of(text) == [(15, "dangling-antecedent")]
    e = engine()
    e.process(event("u0", 0))
    with pytest.raises(DanglingAntecedent, match="rejected utterance 'u9'"):
        e.process(event("u1", 1, speaker="b", addressee="a", rejects="u9"))


def test_unknown_participant_is_an_ordering_violation():
    assert issues_of(document(record("u0", 0, speaker="z"))) == [(6, "bad-value")]
    with pytest.raises(OrderingViolation, match="speaker 'z' not a participant"):
        engine().process(event("u0", 0, speaker="z"))


def test_self_contradictory_event_changes_no_state():
    text = document(record("u0", 0, realizes="p; !p"))
    assert issues_of(text) == [(9, "self-contradiction")]
    e = engine()
    e.process(event("u0", 0, realizes=(Literal("q"),)))
    before = snapshot(e.state)
    both = event("u1", 1, speaker="b", addressee="a",
                 realizes=(Literal("p", False), Literal("p")))
    with pytest.raises(SelfContradiction, match="u1: realizes both p and !p"):
        e.process(both)
    assert snapshot(e.state) == before
    assert e.state.context.lookup(Literal("p")) is None


def test_a_dropped_record_keeps_its_place():
    # the second record lacks its text and the third its turn's integer; the
    # records after them still sit at their own places
    text = document(record("u0", 0), "id: u1\nturn: 1\nspeaker: b\naddressee: a",
                    record("u2", "two"), record("u3", 3, speaker="b", addressee="a"))
    assert issues_of(text) == [(10, "missing-field"), (16, "bad-value")]


@pytest.mark.parametrize("records, issues", [
    # speaker and addressee coincide: admission refuses the whole record
    ((record("u0", 0), record("u1", 1, speaker="b", addressee="b"),
      record("u2", 2, antecedents="u1")), [(10, "bad-value")]),
    # the record lacks its turn, so no event is built from it
    (("id: u0\nspeaker: a\naddressee: b\ntext: turn 0",
      record("u1", 1, speaker="b", addressee="a", antecedents="u0")), [(4, "missing-field")]),
    # its turn is not an integer, so no event is built from it
    ((record("u0", "zero"), record("u1", 1, speaker="b", addressee="a", rejects="u0")),
     [(5, "bad-value")]),
], ids=["self_addressed", "missing_turn", "non_integer_turn"])
def test_a_refused_record_still_counts_as_earlier(records, issues):
    """A refused record's id still counts as earlier for the records after
    it, which report no dangling reference to it."""
    assert issues_of(document(*records)) == issues


# -- property: the parser and the engine agree ---------------------------------------

#: an event's seeded fault, if any; most events have none
FAULTS = ("none",) * 14 + ("gap", "dangling_antecedent", "dangling_rejects", "duplicate",
                           "unknown_speaker", "self_contradiction", "self_addressed",
                           "prompt_with_content", "empty_id", "comma_id")


@st.composite
def faulty_transcripts(draw):
    """Dialogues of fresh literals, some events with one seeded fault, and
    the index of the first faulty event (none: every event is sound)."""
    events, first_fault = [], None
    for i in range(draw(st.integers(1, 6))):
        fault = draw(st.sampled_from(FAULTS))
        earlier = [e.utterance_id for e in events]
        uid = f"u{i}"
        if fault == "duplicate" and earlier:
            uid = draw(st.sampled_from(earlier))
        if fault == "empty_id":
            uid = ""
        if fault == "comma_id":
            uid = f"u{i},v{i}"
        turn = i + draw(st.integers(1, 3)) if fault == "gap" else i
        speaker, addressee = ("a", "b") if i % 2 == 0 else ("b", "a")
        if fault == "unknown_speaker":
            speaker = "z"
        if fault == "self_addressed":
            addressee = speaker
        antecedents = tuple(draw(st.lists(st.sampled_from(earlier), max_size=2, unique=True))
                            if earlier else [])
        if fault == "dangling_antecedent":
            antecedents += (f"u{i + draw(st.integers(0, 2))}",)  # itself or later
        rejects = draw(st.none() | st.sampled_from(earlier)) if earlier else None
        if fault == "dangling_rejects":
            rejects = f"x{i}"
        realizes = (Literal(f"p{i}"),) if draw(st.booleans()) else ()
        if fault == "self_contradiction":
            realizes = (Literal(f"p{i}"), Literal(f"p{i}", False))
        act = ActType.ASSERT
        if fault == "prompt_with_content":
            act, realizes = ActType.PROMPT, (Literal(f"p{i}"),)
        if first_fault is None and fault != "none" and (fault != "duplicate" or earlier):
            first_fault = i
        events.append(event(uid, turn, speaker, addressee, act=act, realizes=realizes,
                            antecedent_ids=antecedents, rejects=rejects))
    return Transcript("d", ("a", "b"), draw(st.booleans()), tuple(events)), first_fault


@settings(max_examples=300, deadline=None)
@given(faulty_transcripts())
def test_parse_raises_exactly_when_process_refuses_an_event(case):
    """Both refuse exactly the dialogues with a seeded fault, and ``process``
    refuses the first faulty event, leaving the state as it was."""
    t, first_fault = case
    try:
        parse(serialize(t))
        parsed = True
    except TranscriptError:
        parsed = False
    e = DialogueEngine.for_transcript(t)
    refused_at = None
    for i, ev in enumerate(t.events):
        before = snapshot(e.state)
        try:
            e.process(ev)
        except ADMISSION_ERRORS:
            refused_at = i
            assert snapshot(e.state) == before, ev.utterance_id
            break
    assert refused_at == first_fault
    assert parsed == (first_fault is None)
