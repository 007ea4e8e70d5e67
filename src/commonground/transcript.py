"""The ``.dlg`` annotated-transcript format: parsing and canonical output.

A document is read in one pass, line by line (``str.splitlines``).  A line
with a ``:`` is a field: its key is the text before the first colon, its value
the rest, both stripped.  A whitespace-only line ends the record; any other
line is a ``bad-line``.  The first record is the header (``dialogue``, a
nonempty id; ``participants``; optional ``require-acceptance``); every
following record is one utterance.  Each field goes straight into its
record's ``key -> (line, value)`` dict as it is read, unless its key is not
one of the record's keys (``unknown-field``) or is already there
(``duplicate-field``).

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
the engine alike:

- the speaker is not the addressee;
- a prompt realizes no propositions;
- the utterance's id is nonempty, holds no comma and is new;
- speaker and addressee are participants;
- its turn is its place among the utterance records, from 0;
- every antecedent is an earlier utterance;
- the ``rejects`` target is an earlier utterance;
- it does not realize a literal together with its negation.

The first two concern the whole record and are reported on its first line.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import BadPropositionSyntax, ParseIssue, TranscriptError
from .grounding import ACT_AFFIRMATION, ACT_ASSERT, ACT_OTHER, UNMARKED, ActType, Intonation, \
    UtteranceEvent, admission_issues, is_affirmation_text
from .propositions import Proposition, new_record, parse_proposition

HEADER_KEYS = frozenset(("dialogue", "participants", "require-acceptance"))
EVENT_KEYS = frozenset(("id", "turn", "speaker", "addressee", "text", "act", "intonation",
                        "realizes", "antecedents", "implicates", "supports", "interrupted",
                        "rejects"))
REQUIRED_EVENT_KEYS = ("id", "turn", "speaker", "addressee", "text")  # in reporting order
_REQUIRED = frozenset(REQUIRED_EVENT_KEYS)
ACTS = {act.value: act for act in ActType}
INTONATIONS = {intonation.value: intonation for intonation in Intonation}
FLAGS = {"true": True, "false": False}


class Transcript(NamedTuple):
    dialogue_id: str
    participants: tuple[str, str]
    require_acceptance: bool
    events: tuple[UtteranceEvent, ...]


def _read(text: str):
    """The document's records, each as (its first line, its fields), and the
    issues found reading them, in line order."""
    records: list[tuple[int, dict[str, tuple[int, str]]]] = []
    issues: list[ParseIssue] = []
    fields = None  # the open record's
    allowed = HEADER_KEYS
    for lineno, raw in enumerate(text.splitlines(), start=1):
        key, sep, value = raw.partition(":")
        if sep:
            if fields is None:
                fields = {}
                records.append((lineno, fields))
            key = key.strip()
            if key not in allowed:
                issues.append(ParseIssue(lineno, "unknown-field", f"unknown key {key!r}"))
            elif key in fields:
                issues.append(ParseIssue(lineno, "duplicate-field", f"repeated key {key!r}"))
            else:
                fields[key] = (lineno, value.strip())
        elif raw.strip():
            issues.append(ParseIssue(lineno, "bad-line",
                                     f"expected 'key: value', got {raw.rstrip()!r}"))
        elif fields is not None:
            fields = None
            allowed = EVENT_KEYS
    return records, issues


def _choice(fields, key, values, default, issues, message):
    """What ``values`` maps the value of field ``key`` to, or ``default``
    when the field is absent or its value is not a key of ``values``; the
    latter is a ``bad-value`` issue, ``message`` formatted with the value."""
    if key not in fields:
        return default
    lineno, value = fields[key]
    if value not in values:
        issues.append(ParseIssue(lineno, "bad-value", message.format(value)))
        return default
    return values[value]


def _parse_prop_list(lineno, value, issues):
    props = []
    for chunk in filter(None, map(str.strip, value.split(";"))):
        try:
            props.append(parse_proposition(chunk))
        except BadPropositionSyntax as exc:
            issues.append(ParseIssue(lineno, "bad-proposition", str(exc)))
    return tuple(props)


def _parse_pair(lineno, value, issues, what):
    left, sep, right = value.partition("=>")
    if not sep:
        issues.append(ParseIssue(lineno, "bad-value", f"{what} must look like 'p => q'"))
        return None
    try:
        return parse_proposition(left), parse_proposition(right)
    except BadPropositionSyntax as exc:
        issues.append(ParseIssue(lineno, "bad-proposition", str(exc)))
        return None


def parse(text: str) -> Transcript:
    """Parse a ``.dlg`` document or raise TranscriptError listing every
    problem found, each with its 1-based line number."""
    records, issues = _read(text)
    if not records:
        raise TranscriptError(issues or
                              [ParseIssue(1, "empty-transcript", "document has no records")])

    header_line, header = records[0]
    dialogue_line, dialogue_id = header.get("dialogue", (header_line, ""))
    if "dialogue" not in header:
        issues.append(ParseIssue(header_line, "missing-field", "header lacks 'dialogue'"))
    elif not dialogue_id:
        issues.append(ParseIssue(dialogue_line, "bad-value", "dialogue id must be nonempty"))
    participants: tuple[str, ...] = ()
    if "participants" not in header:
        issues.append(ParseIssue(header_line, "missing-field", "header lacks 'participants'"))
    else:
        lineno, value = header["participants"]
        names = [n.strip() for n in value.split(",") if n.strip()]
        if len(names) != 2 or len(set(names)) != 2:
            issues.append(ParseIssue(lineno, "bad-value",
                                     "exactly two distinct participants required"))
        participants = tuple(names)
    require_acceptance = _choice(header, "require-acceptance", FLAGS, False, issues,
                                 "require-acceptance: true|false")

    events: list[UtteranceEvent] = []
    earlier: set[str] = set()
    for position, (start_line, fields) in enumerate(records[1:]):
        if not fields.keys() >= _REQUIRED:
            missing = [k for k in REQUIRED_EVENT_KEYS if k not in fields]
            issues.append(ParseIssue(start_line, "missing-field",
                                     f"event lacks {', '.join(missing)}"))
            if "id" in fields:  # refused, but later records may still name it
                earlier.add(fields["id"][1])
            continue
        uid = fields["id"][1]
        turn_line, turn_text = fields["turn"]
        try:
            turn = int(turn_text)
        except ValueError:
            issues.append(ParseIssue(turn_line, "bad-value", "turn must be an integer"))
            earlier.add(uid)
            continue
        text_line, utt_text = fields["text"]
        if not utt_text:
            issues.append(ParseIssue(text_line, "bad-value", "text must be nonempty"))
        realizes: tuple[Proposition, ...] = ()
        if "realizes" in fields:
            realizes = _parse_prop_list(*fields["realizes"], issues)
        act = _choice(fields, "act", ACTS, None, issues, "unknown act {!r}")
        if act is None and is_affirmation_text(utt_text):
            act = ACT_AFFIRMATION
        elif act is None:
            act = ACT_ASSERT if realizes else ACT_OTHER
        intonation = _choice(fields, "intonation", INTONATIONS, UNMARKED, issues,
                             "unknown intonation {!r}")
        antecedents: tuple[str, ...] = ()
        if "antecedents" in fields:
            antecedents = tuple(filter(None, map(str.strip,
                                                 fields["antecedents"][1].split(","))))
        implicates = None
        if "implicates" in fields:
            implicates = _parse_pair(*fields["implicates"], issues, "implicates")
        supports = None
        if "supports" in fields:
            supports = _parse_pair(*fields["supports"], issues, "supports")
        interrupted = _choice(fields, "interrupted", FLAGS, False, issues,
                              "interrupted: true|false")
        event = new_record(UtteranceEvent, (
            uid, turn, fields["speaker"][1], fields["addressee"][1], utt_text, act,
            intonation, realizes, antecedents, implicates, supports, interrupted,
            fields["rejects"][1] if "rejects" in fields else None))
        for field, code, message in admission_issues(event, participants, earlier, position):
            issues.append(ParseIssue(fields[field][0], code, message) if field is not None
                          else ParseIssue(start_line, code, f"{uid}: {message}"))
        events.append(event)
        earlier.add(uid)  # refused or not, it is reported; later records may name it

    if not events and not issues:
        # with no issue, every header line is a field: the last one is the latest
        issues.append(ParseIssue(max(line for line, _ in header.values()), "empty-transcript",
                                 "no utterance records"))
    if issues:
        raise TranscriptError(sorted(issues, key=lambda i: i.line))
    return Transcript(dialogue_id, participants, require_acceptance, tuple(events))


def serialize(t: Transcript) -> str:
    """Canonical text form; serialize(parse(serialize(t))) == serialize(t)."""
    out = [
        f"dialogue: {t.dialogue_id}",
        "participants: " + ", ".join(t.participants),
        f"require-acceptance: {'true' if t.require_acceptance else 'false'}",
    ]
    for e in t.events:
        out.append("")
        out.append(f"id: {e.utterance_id}")
        out.append(f"turn: {e.turn_index}")
        out.append(f"speaker: {e.speaker}")
        out.append(f"addressee: {e.addressee}")
        out.append(f"text: {e.text}")
        out.append(f"act: {e.act._value_}")
        out.append(f"intonation: {e.intonation._value_}")
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
