"""The ``.dlg`` annotated-transcript format: parsing and canonical output.

A document is read line by line (``str.splitlines``).  A line with a ``:`` is a
field: its key is the text before the first colon, its value the rest, both
stripped.  A whitespace-only line ends the record; any other line is a
``bad-line``.  The first record is the header (``dialogue``, ``participants``,
optional ``require-acceptance``); every following record is one utterance.

Event keys -- required: ``id``, ``turn``, ``speaker``, ``addressee``,
``text``; optional: ``act`` (assert|question|prompt|affirmation|other),
``intonation`` (rising|falling|unmarked), ``realizes`` (semicolon-separated
propositions), ``antecedents`` (comma-separated earlier ids), ``implicates``
(``p => q``), ``supports`` (``p => q``), ``interrupted`` (true|false),
``rejects`` (earlier id).  Unknown keys are an error: these files are ground
truth for tests, so nothing is silently ignored.

When ``act`` is omitted it is resolved from the text: an utterance matching
the affirmation lexicon is an affirmation, anything that realizes content is
an assertion, the rest are ``other``.

Admission rules, checked by ``grounding.admission_issues`` for the parser and
the engine alike: an utterance's id is new; its turn is its place among the
utterance records, from 0; speaker and addressee are participants; every
antecedent and the ``rejects`` target is an earlier utterance; it does not
realize a literal together with its negation.  ``UtteranceEvent`` itself
requires a speaker other than the addressee and a prompt to realize nothing.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import BadPropositionSyntax, ParseIssue, TranscriptError
from .grounding import (ActType, Intonation, Participant, UtteranceEvent, admission_issues,
                        is_affirmation_text)
from .propositions import Proposition, parse_proposition

HEADER_KEYS = ("dialogue", "participants", "require-acceptance")
EVENT_KEYS = ("id", "turn", "speaker", "addressee", "text", "act", "intonation",
              "realizes", "antecedents", "implicates", "supports", "interrupted",
              "rejects")
REQUIRED_EVENT_KEYS = ("id", "turn", "speaker", "addressee", "text")
ACTS = {act.value: act for act in ActType}
INTONATIONS = {intonation.value: intonation for intonation in Intonation}


class Transcript(NamedTuple):
    dialogue_id: str
    participants: tuple[Participant, Participant]
    require_acceptance: bool
    events: tuple[UtteranceEvent, ...]


def _records(text: str):
    """Split into records of (line_number, key, value) triples."""
    record: list[tuple[int, str, str]] = []
    issues: list[ParseIssue] = []
    records: list[list[tuple[int, str, str]]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        key, sep, value = raw.partition(":")
        if sep:
            record.append((lineno, key.strip(), value.strip()))
        elif raw.strip():
            issues.append(ParseIssue(lineno, "bad-line",
                                     f"expected 'key: value', got {raw.rstrip()!r}"))
        elif record:
            records.append(record)
            record = []
    if record:
        records.append(record)
    return records, issues


def _fields(record, allowed, issues):
    fields: dict[str, tuple[int, str]] = {}
    for lineno, key, value in record:
        if key not in allowed:
            issues.append(ParseIssue(lineno, "unknown-field", f"unknown key {key!r}"))
            continue
        if key in fields:
            issues.append(ParseIssue(lineno, "duplicate-field", f"repeated key {key!r}"))
            continue
        fields[key] = (lineno, value)
    return fields


def _parse_prop_list(value, lineno, issues, propositions):
    props = []
    for chunk in value.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            props.append(propositions.get(chunk)
                         or propositions.setdefault(chunk, parse_proposition(chunk)))
        except BadPropositionSyntax as exc:
            issues.append(ParseIssue(lineno, "bad-proposition", str(exc)))
    return tuple(props)


def _parse_pair(value, lineno, issues, what, propositions):
    left, sep, right = value.partition("=>")
    if not sep:
        issues.append(ParseIssue(lineno, "bad-value", f"{what} must look like 'p => q'"))
        return None
    try:
        return tuple([propositions.get(text)
                      or propositions.setdefault(text, parse_proposition(text))
                      for text in (left, right)])
    except BadPropositionSyntax as exc:
        issues.append(ParseIssue(lineno, "bad-proposition", str(exc)))
        return None


def parse(text: str) -> Transcript:
    """Parse a ``.dlg`` document or raise TranscriptError listing every
    problem found, each with its 1-based line number."""
    issues: list[ParseIssue] = []
    records, line_issues = _records(text)
    issues.extend(line_issues)
    if not records:
        raise TranscriptError(issues or
                              [ParseIssue(1, "empty-transcript", "document has no records")])

    header = _fields(records[0], HEADER_KEYS, issues)
    header_line = records[0][0][0]
    dialogue_id = header.get("dialogue", (header_line, ""))[1]
    if "dialogue" not in header:
        issues.append(ParseIssue(header_line, "missing-field", "header lacks 'dialogue'"))
    participants: tuple[Participant, ...] = ()
    if "participants" not in header:
        issues.append(ParseIssue(header_line, "missing-field", "header lacks 'participants'"))
    else:
        lineno, value = header["participants"]
        names = [n.strip() for n in value.split(",") if n.strip()]
        if len(names) != 2 or len(set(names)) != 2:
            issues.append(ParseIssue(lineno, "bad-value",
                                     "exactly two distinct participants required"))
        participants = tuple(Participant(n) for n in names)
    require_acceptance = False
    if "require-acceptance" in header:
        lineno, value = header["require-acceptance"]
        if value not in ("true", "false"):
            issues.append(ParseIssue(lineno, "bad-value", "require-acceptance: true|false"))
        require_acceptance = value == "true"

    events: list[UtteranceEvent] = []
    earlier: set[str] = set()
    #: text -> its proposition, for this document only.  Propositions are
    #: immutable, so events may share one; text that does not parse is
    #: never stored, so each line it is on reports it.
    propositions: dict[str, Proposition] = {}
    participant_ids = {p.id for p in participants}
    for position, record in enumerate(records[1:]):
        fields = _fields(record, EVENT_KEYS, issues)
        start_line = record[0][0]
        missing = [k for k in REQUIRED_EVENT_KEYS if k not in fields]
        if missing:
            issues.append(ParseIssue(start_line, "missing-field",
                                     f"event lacks {', '.join(missing)}"))
            continue
        uid = fields["id"][1]
        turn_line, turn_text = fields["turn"]
        try:
            turn = int(turn_text)
        except ValueError:
            issues.append(ParseIssue(turn_line, "bad-value", "turn must be an integer"))
            continue
        text_line, utt_text = fields["text"]
        if not utt_text:
            issues.append(ParseIssue(text_line, "bad-value", "text must be nonempty"))
        realizes: tuple[Proposition, ...] = ()
        if "realizes" in fields:
            realizes = _parse_prop_list(fields["realizes"][1], fields["realizes"][0], issues,
                                        propositions)
        if "act" in fields:
            act_line, act_text = fields["act"]
            act = ACTS.get(act_text)
            if act is None:
                issues.append(ParseIssue(act_line, "bad-value", f"unknown act {act_text!r}"))
                act = ActType.OTHER
        elif is_affirmation_text(utt_text):
            act = ActType.AFFIRMATION
        elif realizes:
            act = ActType.ASSERT
        else:
            act = ActType.OTHER
        intonation = Intonation.UNMARKED
        if "intonation" in fields:
            int_line, int_text = fields["intonation"]
            intonation = INTONATIONS.get(int_text, intonation)
            if int_text not in INTONATIONS:
                issues.append(ParseIssue(int_line, "bad-value", f"unknown intonation {int_text!r}"))
        antecedents: tuple[str, ...] = ()
        if "antecedents" in fields:
            antecedents = tuple(a.strip() for a in fields["antecedents"][1].split(",")
                                if a.strip())
        implicates = None
        if "implicates" in fields:
            implicates = _parse_pair(fields["implicates"][1], fields["implicates"][0],
                                     issues, "implicates", propositions)
        supports = None
        if "supports" in fields:
            supports = _parse_pair(fields["supports"][1], fields["supports"][0],
                                   issues, "supports", propositions)
        interrupted = False
        if "interrupted" in fields:
            il, iv = fields["interrupted"]
            if iv not in ("true", "false"):
                issues.append(ParseIssue(il, "bad-value", "interrupted: true|false"))
            interrupted = iv == "true"
        try:
            event = UtteranceEvent(
                uid, turn, fields["speaker"][1], fields["addressee"][1], utt_text, act,
                intonation, realizes, antecedents, implicates, supports, interrupted,
                fields["rejects"][1] if "rejects" in fields else None)
        except ValueError as exc:
            issues.append(ParseIssue(start_line, "bad-value", str(exc)))
        else:
            for field, code, message in admission_issues(event, participant_ids, earlier,
                                                         position):
                issues.append(ParseIssue(fields[field][0], code, message))
            events.append(event)
        earlier.add(uid)  # refused or not, it is reported; later records may name it

    if not events and not issues:
        issues.append(ParseIssue(records[0][-1][0], "empty-transcript",
                                 "no utterance records"))
    if issues:
        raise TranscriptError(sorted(issues, key=lambda i: i.line))
    return Transcript(dialogue_id, participants, require_acceptance, tuple(events))


def serialize(t: Transcript) -> str:
    """Canonical text form; serialize(parse(serialize(t))) == serialize(t)."""
    out = [
        f"dialogue: {t.dialogue_id}",
        "participants: " + ", ".join(p.id for p in t.participants),
        f"require-acceptance: {'true' if t.require_acceptance else 'false'}",
    ]
    for e in t.events:
        out.append("")
        out.append(f"id: {e.utterance_id}")
        out.append(f"turn: {e.turn_index}")
        out.append(f"speaker: {e.speaker}")
        out.append(f"addressee: {e.addressee}")
        out.append(f"text: {e.text}")
        out.append(f"act: {e.act.value}")
        out.append(f"intonation: {e.intonation.value}")
        if e.realizes:
            out.append("realizes: " + "; ".join(str(p) for p in e.realizes))
        if e.antecedent_ids:
            out.append("antecedents: " + ", ".join(e.antecedent_ids))
        if e.implicates is not None:
            p, q = e.implicates
            out.append(f"implicates: {p} => {q}")
        if e.supports is not None:
            p, q = e.supports
            out.append(f"supports: {p} => {q}")
        if e.interrupted:
            out.append("interrupted: true")
        if e.rejects is not None:
            out.append(f"rejects: {e.rejects}")
    return "\n".join(out) + "\n"
