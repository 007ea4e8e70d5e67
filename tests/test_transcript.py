from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from commonground import (ActType, Intonation, Literal, ParseIssue, TranscriptError, parse,
                          parse_proposition, serialize, write_trace)
from commonground.transcript import _read
from conftest import FIXTURES, load_fixture
from transcript_reference import reference_read

ALL_FIXTURES = sorted(p.name for p in FIXTURES.glob("*.dlg"))
CORPUS_FIXTURES = sorted("corpus/" + p.name for p in (FIXTURES / "corpus").glob("*.dlg"))

MINIMAL = """dialogue: tiny
participants: a, b

id: u0
turn: 0
speaker: a
addressee: b
text: hello there
"""


def issues_of(text):
    with pytest.raises(TranscriptError) as exc:
        parse(text)
    return exc.value.issues


def test_parse_example1(fixtures_dir):
    t = parse(load_fixture("example1.dlg"))
    assert t.dialogue_id == "example1"
    assert t.participants == ("h", "r")
    assert t.require_acceptance is True
    assert len(t.events) == 4
    u8 = t.events[2]
    assert u8.utterance_id == "u8"
    assert u8.antecedent_ids == ("u7",)
    assert u8.realizes == (Literal("cd_income_disqualifies"),)
    assert u8.act is ActType.ASSERT


def test_empty_document():
    for text in ("", "   \n  \n", "\x0c\n"):
        assert list(issues_of(text)) == [ParseIssue(1, "empty-transcript",
                                                    "document has no records")], repr(text)


def test_header_only_document():
    issues = issues_of("dialogue: d\nparticipants: a, b\n")
    assert any(i.code == "empty-transcript" for i in issues)


def test_dangling_antecedent_carries_line_number():
    text = MINIMAL + "\nid: u1\nturn: 1\nspeaker: b\naddressee: a\ntext: ok then\nantecedents: u9\n"
    issues = issues_of(text)
    assert [(i.code, i.line) for i in issues] == [("dangling-antecedent", 15)]


def test_forward_reference_is_dangling():
    text = (MINIMAL
            + "\nid: u1\nturn: 1\nspeaker: b\naddressee: a\ntext: ok\nantecedents: u2\n"
            + "\nid: u2\nturn: 2\nspeaker: a\naddressee: b\ntext: fine\n")
    assert issues_of(text)[0].code == "dangling-antecedent"


def test_duplicate_utterance_id():
    text = MINIMAL + "\nid: u0\nturn: 1\nspeaker: b\naddressee: a\ntext: again\n"
    issues = issues_of(text)
    assert issues[0].code == "duplicate-utterance"
    assert issues[0].line == 10


def test_unknown_field_is_an_error():
    text = MINIMAL.replace("text: hello there", "text: hello there\nmood: cheerful")
    issues = issues_of(text)
    assert issues[0].code == "unknown-field"
    assert issues[0].line == 9


def test_bad_proposition_syntax_with_line():
    text = MINIMAL.replace("text: hello there", "text: hello there\nrealizes: a -> -> b")
    issues = issues_of(text)
    assert issues[0].code == "bad-proposition"
    assert issues[0].line == 9


def test_same_proposition_text_on_two_lines_parses_equal():
    text = (MINIMAL + "realizes: p -> q; r\n\nid: u1\nturn: 1\nspeaker: b\naddressee: a\n"
            "text: again\nrealizes: p -> q\nimplicates: r => p -> q\n")
    first, second = parse(text).events
    assert first.realizes[0] == second.realizes[0] == parse_proposition("p -> q")
    assert second.implicates == (Literal("r"), parse_proposition("p -> q"))


def test_bad_proposition_repeated_on_two_lines_is_reported_on_both():
    """The proposition memo keeps only propositions that parsed."""
    bad = "realizes: a -> -> b"
    text = (MINIMAL + bad + "\n\nid: u1\nturn: 1\nspeaker: b\naddressee: a\n"
            "text: again\n" + bad + "\n")
    issues = issues_of(text)
    assert [(i.line, i.code) for i in issues] == [(9, "bad-proposition"),
                                                 (16, "bad-proposition")]
    assert issues[0].message == issues[1].message


def test_bad_proposition_is_reported_in_each_of_two_documents():
    """The memo that every parse shares never stores a text that failed, so a
    second document is told about it as the first was."""
    text = MINIMAL.replace("text: hello there", "text: hello there\nrealizes: q; q & -> r")
    expected = (ParseIssue(9, "bad-proposition", "bad literal '' in 'q & -> r'"),)
    assert issues_of(text) == expected
    assert issues_of(text) == expected


def test_texts_that_differ_only_in_whitespace_parse_equal():
    assert parse_proposition("p&q->!r") == parse_proposition(" p & q\t->  ! r ") \
        == parse_proposition("p & q -> !r")
    spaced = MINIMAL + "realizes: a<->b;  p->q\nsupports: p=>q\n"
    plain = MINIMAL + "realizes: a <-> b; p -> q\nsupports: p => q\n"
    assert parse(spaced) == parse(plain)


def test_bad_line_message_keeps_the_text_without_trailing_space():
    text = MINIMAL.replace("text: hello there", "text: hello there\n  just words \t")
    assert [(i.line, i.code, i.message) for i in issues_of(text)] == [
        (9, "bad-line", "expected 'key: value', got '  just words'")]


@pytest.mark.parametrize("field, line, message", [
    ("act: x", 9, "unknown act 'x'"),
    ("intonation: x", 9, "unknown intonation 'x'"),
    ("interrupted: maybe", 9, "interrupted: true|false"),
    ("require-acceptance: maybe", 3, "require-acceptance: true|false"),
], ids=["act", "intonation", "interrupted", "require-acceptance"])
def test_bad_value_of_a_fixed_value_field(field, line, message):
    if field.startswith("require-acceptance"):
        text = MINIMAL.replace("participants: a, b", "participants: a, b\n" + field)
    else:
        text = MINIMAL.replace("text: hello there", "text: hello there\n" + field)
    assert [(i.line, i.code, i.message) for i in issues_of(text)] == [
        (line, "bad-value", message)]


def test_empty_dialogue_id():
    text = MINIMAL.replace("dialogue: tiny", "dialogue:")
    assert [(i.line, i.code, i.message) for i in issues_of(text)] == [
        (1, "bad-value", "dialogue id must be nonempty")]


@pytest.mark.parametrize("old, new, line, code, message", [
    ("dialogue: tiny\n", "", 1, "missing-field", "header lacks 'dialogue'"),
    ("participants: a, b\n", "", 1, "missing-field", "header lacks 'participants'"),
    ("participants: a, b", "participants: a, b, c", 2, "bad-value",
     "exactly two distinct participants required"),
    ("text: hello there", "text:", 8, "bad-value", "text must be nonempty"),
    ("text: hello there", "text: hello there\nimplicates: p -> q", 9, "bad-value",
     "implicates must look like 'p => q'"),
    ("text: hello there", "text: hello there\nsupports: p", 9, "bad-value",
     "supports must look like 'p => q'"),
    ("text: hello there", "text: hello there\nsupports: p => q r", 9, "bad-proposition",
     "bad literal 'q r' in ' q r'"),
    ("addressee: b", "addressee: z", 7, "bad-value", "addressee 'z' not a participant"),
], ids=["no-dialogue", "no-participants", "three-participants", "empty-text",
        "implicates-without-arrow", "supports-without-arrow", "bad-proposition-in-pair",
        "addressee-not-a-participant"])
def test_parse_issue_on_its_line(old, new, line, code, message):
    text = MINIMAL.replace(old, new)
    assert [(i.line, i.code, i.message) for i in issues_of(text)] == [(line, code, message)]


def test_missing_required_key():
    issues = issues_of("dialogue: d\nparticipants: a, b\n\nid: u0\nturn: 0\nspeaker: a\ntext: hi\n")
    assert any(i.code == "missing-field" for i in issues)


def test_turn_indices_must_be_dense_from_zero():
    text = MINIMAL.replace("turn: 0", "turn: 3")
    assert issues_of(text)[0].code == "turn-order"


def test_prompt_with_content_rejected():
    text = MINIMAL.replace("text: hello there",
                           "text: hello there\nact: prompt\nrealizes: p")
    assert any(i.code == "bad-value" for i in issues_of(text))


def test_speaker_addressee_must_be_participants_and_distinct():
    bad = MINIMAL.replace("addressee: b", "addressee: a")
    assert any(i.code == "bad-value" for i in issues_of(bad))
    unknown = MINIMAL.replace("speaker: a", "speaker: z")
    assert any(i.code == "bad-value" for i in issues_of(unknown))


def test_act_resolution_from_lexicon():
    text = (MINIMAL
            + "\nid: u1\nturn: 1\nspeaker: b\naddressee: a\ntext: that's correct\n"
            + "\nid: u2\nturn: 2\nspeaker: a\naddressee: b\ntext: we close at nine\nrealizes: close_nine\n")
    t = parse(text)
    assert t.events[0].act is ActType.OTHER
    assert t.events[1].act is ActType.AFFIRMATION
    assert t.events[2].act is ActType.ASSERT


def test_explicit_act_overrides_lexicon():
    text = MINIMAL.replace("text: hello there", "text: right\nact: question")
    assert parse(text).events[0].act is ActType.QUESTION


def test_minimal_transcript_canonical_form():
    t = parse(MINIMAL)
    assert serialize(t) == (
        "dialogue: tiny\n"
        "participants: a, b\n"
        "require-acceptance: false\n"
        "\n"
        "id: u0\n"
        "turn: 0\n"
        "speaker: a\n"
        "addressee: b\n"
        "text: hello there\n"
        "act: other\n"
        "intonation: unmarked\n"
    )


@pytest.mark.parametrize("name", ALL_FIXTURES + CORPUS_FIXTURES)
def test_round_trip_identity_on_fixtures(name):
    original = parse(load_fixture(name))
    canonical = serialize(original)
    reparsed = parse(canonical)
    assert reparsed == original
    assert serialize(reparsed) == canonical  # idempotent after one pass


def test_round_trip_of_an_interrupted_event():
    original = parse(MINIMAL.replace("text: hello there", "text: hello there\ninterrupted: true"))
    assert original.events[0].interrupted
    canonical = serialize(original)
    assert canonical.endswith("intonation: unmarked\ninterrupted: true\n")
    assert parse(canonical) == original


def test_unordered_keys_canonicalize():
    scrambled = """dialogue: tiny
participants: a, b

turn: 0
text: hello there
addressee: b
id: u0
speaker: a
"""
    assert serialize(parse(scrambled)) == serialize(parse(MINIMAL))


def test_write_trace_empty_is_empty_document():
    assert write_trace([]) == ""


#: Line pieces: padding, blank lines made of the whitespace ``splitlines``
#: and ``strip`` treat specially, words with and without colons, header and
#: event keys (each unknown in the other record kind), a header record and
#: repeated fields.
PAD = st.sampled_from(["", " ", "\t", " \t ", "\x0c", "\x1f"])
WORD = st.sampled_from(["id", "text", "a b", "u0", "p -> q", "dialogue", "participants"])
BLANK_LINES = st.sampled_from(["", " ", "\t", " \t ", "\r", "\r\n", "\x0c", "\x85", "\x1f",
                               " \x0c\t"])
NO_COLON = st.builds("".join, st.tuples(PAD, WORD, PAD))
LEADING_COLON = st.builds("".join, st.tuples(PAD, st.just(":"), PAD, WORD, PAD))
DOUBLE_COLON = st.builds("".join, st.tuples(PAD, WORD, st.just("::"), WORD, PAD))
FIELD = st.builds("".join, st.tuples(PAD, WORD, PAD, st.just(":"), PAD, WORD, PAD))
REPEATED = st.builds(lambda key, first, again: f"{key}: {first}\n {key}\t:{again}",
                     WORD, WORD, WORD)
HEADER = st.just("dialogue: d\nparticipants: a, b\nrequire-acceptance: true")
LINES = st.one_of(BLANK_LINES, NO_COLON, LEADING_COLON, DOUBLE_COLON, FIELD, REPEATED, HEADER)
DOCUMENTS = st.builds(lambda lines, end: "\n".join(lines) + end,
                      st.lists(LINES, max_size=12), st.sampled_from(["", "\n", "\r\n"]))


@settings(max_examples=500, deadline=None)
@given(DOCUMENTS)
def test_line_reader_matches_the_reference(text):
    """A line with a colon is a field, a whitespace-only line ends the record,
    and any other line is a bad line reported without its trailing space.
    The first record takes the header's keys and the rest the event keys; a
    key outside them, or one already in the record, is reported on its line.
    The one-pass reader lists its issues in line order, which is the order of
    the reference's once ``parse`` sorts them by line: a line gives at most
    one."""
    records, issues = reference_read(text)
    assert _read(text) == (records, sorted(issues, key=lambda issue: issue.line))
