"""Per-utterance assumption records and the evidence-upgrade rules.

When A says u to B, the inference that B understood u as p rests on four
assumptions (copresence, attention, hearing, and that B takes u to realize
p), optionally plus a license assumption when u is meant to sanction a
further inference.  All start as bare hypotheses.  The addressee's next
move upgrades them: any next utterance lifts copresence to linguistic and
the rest to default, while redundant follow-ups (prompts, repeats,
paraphrases, explicit inferences, implicature reinforcements) lift their
class-specific assumption set all the way to linguistic.  Understanding
strength is the weakest link across the record.
"""

from __future__ import annotations

import re
from enum import Enum
from typing import TYPE_CHECKING, Collection, Container, NamedTuple, Optional, Sequence

from .errors import UnknownProposition
from .evidence import Strength
from .propositions import Frozen, Literal, Proposition, RedundancyVerdict, Slotted

if TYPE_CHECKING:  # pragma: no cover
    from .state import DiscourseState

COPRESENT = "copresent"
ATTEND = "attend"
HEAR = "hear"
REALIZE = "realize"
LICENSE = "license"

BASE_ASSUMPTIONS = (COPRESENT, ATTEND, HEAR, REALIZE)
ASSUMPTION_ORDER = (COPRESENT, ATTEND, HEAR, REALIZE, LICENSE)


class ActType(Enum):
    ASSERT = "assert"
    QUESTION = "question"
    PROMPT = "prompt"
    AFFIRMATION = "affirmation"
    OTHER = "other"


class Intonation(Enum):
    RISING = "rising"
    FALLING = "falling"
    UNMARKED = "unmarked"


class IRUClass(Enum):
    PROMPT = "prompt"
    REPEAT = "repeat"
    PARAPHRASE = "paraphrase"
    EXPLICIT_INFERENCE = "explicit_inference"
    IMPLICATURE_REINFORCEMENT = "implicature_reinforcement"
    NONE = "none"


#: Assumptions each redundant-utterance class upgrades to linguistic.
UPGRADE_TABLE: dict[IRUClass, tuple[str, ...]] = {
    IRUClass.PROMPT: (ATTEND,),
    IRUClass.REPEAT: (ATTEND, HEAR),
    IRUClass.PARAPHRASE: (ATTEND, HEAR, REALIZE),
    IRUClass.EXPLICIT_INFERENCE: (ATTEND, HEAR, REALIZE, LICENSE),
    IRUClass.IMPLICATURE_REINFORCEMENT: (ATTEND, HEAR, REALIZE, LICENSE),
}


class Participant(NamedTuple):
    id: str


class UtteranceEvent(Frozen):
    """One ``say(speaker, addressee, utterance, propositions)`` act."""

    _fields = __slots__ = ("utterance_id", "turn_index", "speaker", "addressee", "text", "act",
                           "intonation", "realizes", "antecedent_ids", "implicates", "supports",
                           "interrupted", "rejects")

    def __init__(self, utterance_id: str, turn_index: int, speaker: str, addressee: str,
                 text: str, act: ActType = ActType.ASSERT,
                 intonation: Intonation = Intonation.UNMARKED,
                 realizes: tuple[Proposition, ...] = (), antecedent_ids: tuple[str, ...] = (),
                 implicates: Optional[tuple[Proposition, Proposition]] = None,
                 supports: Optional[tuple[Proposition, Proposition]] = None,
                 interrupted: bool = False, rejects: Optional[str] = None):
        if speaker == addressee:
            raise ValueError(f"{utterance_id}: speaker and addressee coincide")
        if act is ActType.PROMPT and realizes:
            raise ValueError(f"{utterance_id}: a prompt realizes no propositions")
        object.__setattr__(self, "utterance_id", utterance_id)
        object.__setattr__(self, "turn_index", turn_index)
        object.__setattr__(self, "speaker", speaker)
        object.__setattr__(self, "addressee", addressee)
        object.__setattr__(self, "text", text)
        object.__setattr__(self, "act", act)
        object.__setattr__(self, "intonation", intonation)
        object.__setattr__(self, "realizes", realizes)
        object.__setattr__(self, "antecedent_ids", antecedent_ids)
        object.__setattr__(self, "implicates", implicates)
        object.__setattr__(self, "supports", supports)
        object.__setattr__(self, "interrupted", interrupted)
        object.__setattr__(self, "rejects", rejects)

    @property
    def tokens(self) -> tuple[str, ...]:
        return normalize_tokens(self.text)


def admission_issues(event: UtteranceEvent, participants: Collection[str],
                     earlier: Container[str], position: int) -> list[tuple[str, str, str]]:
    """Every admission rule (see ``transcript``) that ``event`` breaks by
    following a dialogue prefix, as (field, code, message) triples.

    ``participants`` are the participant ids (none: not known), ``earlier``
    the ids before the event and ``position`` its place, from 0.  A reused id
    is reported alone: the event is not the one its references were written
    for.  ``transcript.parse`` reports each triple on the field's line, and
    ``DialogueEngine.process`` raises the first before it changes any state.
    """
    uid = event.utterance_id
    if uid in earlier:
        return [("id", "duplicate-utterance", f"utterance {uid!r} already defined")]
    issues = []
    if participants and event.speaker not in participants:
        issues.append(("speaker", "bad-value", f"speaker {event.speaker!r} not a participant"))
    if participants and event.addressee not in participants:
        issues.append(("addressee", "bad-value",
                       f"addressee {event.addressee!r} not a participant"))
    if event.turn_index != position:
        issues.append(("turn", "turn-order",
                       f"turn {event.turn_index} out of place; expected {position}"))
    for ant in event.antecedent_ids:
        if ant not in earlier:
            issues.append(("antecedents", "dangling-antecedent",
                           f"antecedent {ant!r} not an earlier utterance"))
    if event.rejects is not None and event.rejects not in earlier:
        issues.append(("rejects", "dangling-antecedent",
                       f"rejected utterance {event.rejects!r} not defined earlier"))
    if len(event.realizes) > 1:
        realized = set(event.realizes)
        issues += [("realizes", "self-contradiction", f"realizes both {p} and {p.negated()}")
                   for p in event.realizes
                   if isinstance(p, Literal) and p.positive and p.negated() in realized]
    return issues


def normalize_tokens(text: str) -> tuple[str, ...]:
    """Lowercase, strip punctuation, collapse whitespace."""
    return tuple(re.findall(r"[a-z0-9']+", text.lower()))


def _contiguous(needle: tuple[str, ...], haystack: tuple[str, ...]) -> bool:
    if not needle or len(needle) > len(haystack):
        return False
    return any(haystack[i:i + len(needle)] == needle
               for i in range(len(haystack) - len(needle) + 1))


def tokens_match_repeat(a: tuple[str, ...], b: tuple[str, ...]) -> bool:
    """Repeat criterion: one token sequence contiguously contains the other."""
    return _contiguous(a, b) or _contiguous(b, a)


class LicenseLink(Slotted):
    """Assumption that one proposition sanctions inferring another.

    ``origin`` records where the link came from: "inference" when forward
    chaining derived the conclusion, "implicature" when a transcript
    annotation supplied it.  Only implicature-origin links feed the
    implicature-reinforcement classification.
    """

    _fields = __slots__ = ("premise", "conclusion", "strength", "origin", "owner")

    ORIGIN_INFERENCE = "inference"
    ORIGIN_IMPLICATURE = "implicature"

    def __init__(self, premise: Proposition, conclusion: Proposition, strength: Strength,
                 origin: str, owner: str):
        self.premise = premise
        self.conclusion = conclusion
        self.strength = strength
        self.origin = origin  # "inference" | "implicature"
        self.owner = owner  # utterance whose understanding carries this assumption

    @property
    def key(self) -> tuple[str, str]:
        return (self.premise.key, self.conclusion.key)


class AssumptionRecord(Slotted):
    """Evidence strengths for the assumptions behind one utterance's uptake.

    Strengths only ever rise.  The license slot appears when the utterance
    carries an intended inference (annotation or derivation)."""

    _fields = __slots__ = ("utterance_id", "speaker", "addressee", "strengths", "interrupted",
                           "license_keys")

    def __init__(self, utterance_id: str, speaker: str, addressee: str,
                 strengths: dict[str, Strength], interrupted: bool = False,
                 license_keys: Optional[set[tuple[str, str]]] = None):
        self.utterance_id = utterance_id
        self.speaker = speaker
        self.addressee = addressee
        self.strengths = strengths
        self.interrupted = interrupted
        self.license_keys = set() if license_keys is None else license_keys

    @classmethod
    def fresh(cls, event: UtteranceEvent) -> "AssumptionRecord":
        """The record of a new utterance: the base assumptions, and the
        license when it is annotated with an implicature, all at hypothesis."""
        h = Strength.HYPOTHESIS
        strengths = {COPRESENT: h, ATTEND: h, HEAR: h, REALIZE: h}  # BASE_ASSUMPTIONS
        if event.implicates is not None:
            strengths[LICENSE] = h
        return cls(event.utterance_id, event.speaker, event.addressee, strengths,
                   event.interrupted, set())

    def raise_to(self, name: str, strength: Strength) -> None:
        current = self.strengths.get(name)
        if current is None or strength > current:
            self.strengths[name] = strength


def open_record(state: "DiscourseState", event: UtteranceEvent) -> AssumptionRecord:
    """Create the assumption record for a new utterance, all at hypothesis."""
    record = AssumptionRecord.fresh(event)
    state.records[event.utterance_id] = record
    return record


def understanding_strength(record: AssumptionRecord) -> Strength:
    """Weakest link over every assumption currently in the record; like
    ``min_strength``, ValueError for a record with none."""
    return min(record.strengths.values())


def apply_iru_upgrade(record: AssumptionRecord, cls: IRUClass) -> AssumptionRecord:
    """Raise exactly the upgrade table's assumption set for ``cls`` to linguistic.

    Classes that address the license assumption add the slot if absent: the
    redundant utterance is itself the evidence that an inference was
    intended.  Nothing is ever lowered."""
    if cls is IRUClass.NONE:
        raise ValueError("no upgrade for an unclassified utterance")
    for name in UPGRADE_TABLE[cls]:
        record.raise_to(name, Strength.LINGUISTIC)
    return record


def apply_any_next_upgrade(record: AssumptionRecord) -> AssumptionRecord:
    """The addressee spoke again in uninterrupted flow: copresence becomes
    linguistic and every other assumption at least default.  A record whose
    utterance was marked interrupted is left untouched."""
    if record.interrupted:
        return record
    strengths = record.strengths  # holds copresence, as every record does
    for name, current in strengths.items():
        floor = Strength.LINGUISTIC if name == COPRESENT else Strength.DEFAULT
        if current < floor:
            strengths[name] = floor  # an existing key: the dict keeps its size
    return record


def classify_iru(event: UtteranceEvent, state: "DiscourseState",
                 verdicts: Sequence[RedundancyVerdict],
                 links: Sequence[LicenseLink]) -> IRUClass:
    """Classify an utterance against the current discourse state.

    ``verdicts`` are the redundancy verdicts of the event's propositions, in
    order, and ``links`` the stored license links whose conclusion it
    realizes, in stored order (``DialogueEngine.process`` step 3).  Pure
    function; it inspects but never changes its arguments.  The event has
    been admitted (``admission_issues``), so its antecedents are earlier
    utterances.  Precedence on overlap: implicature reinforcement beats
    explicit inference beats repeat beats paraphrase.
    """
    if event.act is ActType.PROMPT:
        return IRUClass.PROMPT
    for link in links:
        if (link.origin == LicenseLink.ORIGIN_IMPLICATURE
                and link.strength < Strength.LINGUISTIC):
            return IRUClass.IMPLICATURE_REINFORCEMENT
    if any(v.kind == RedundancyVerdict.ENTAILED for v in verdicts):
        return IRUClass.EXPLICIT_INFERENCE
    said = [v for v in verdicts if v.kind == RedundancyVerdict.SAID]
    if said:
        candidates = set(event.antecedent_ids)
        for v in said:
            candidates |= v.antecedents
        tokens = event.tokens
        for ant in sorted(candidates):
            prior = state.events.get(ant)
            if prior is not None and tokens_match_repeat(tokens, prior.tokens):
                return IRUClass.REPEAT
        return IRUClass.PARAPHRASE
    return IRUClass.NONE


def record_license_evidence(state: "DiscourseState", link: LicenseLink,
                            strength: Strength) -> LicenseLink:
    """Store ``link`` or strengthen the stored copy to max(old, new).

    The owning record's license slot rises in step, and the premise must
    already be in the context (UnknownProposition otherwise); until the
    event's assertion step that is the context before the current event
    (``DiscourseState.entry_before_event``)."""
    if state.entry_before_event(link.premise) is None:
        raise UnknownProposition(f"license premise {link.premise} not in context")
    stored = state.license_links.get(link.key)
    if stored is None:
        stored = LicenseLink(link.premise, link.conclusion,
                             max(strength, link.strength), link.origin, link.owner)
        state.add_license_link(stored)
    else:
        stored.strength = max(stored.strength, strength)
    owner = state.records.get(stored.owner)
    if owner is not None:
        owner.raise_to(LICENSE, stored.strength)
        owner.license_keys.add(stored.key)
    return stored


def resolved_antecedents(event: UtteranceEvent, state: "DiscourseState", cls: IRUClass,
                         verdicts: Sequence[RedundancyVerdict],
                         links: Sequence[LicenseLink]) -> tuple[str, ...]:
    """Utterances this redundant event points back at: the annotated links
    plus whatever the redundancy verdicts or the matched implicature links
    add.  ``verdicts`` and ``links`` are the ones ``classify_iru`` took."""
    ids = set(event.antecedent_ids)
    if cls in (IRUClass.REPEAT, IRUClass.PARAPHRASE, IRUClass.EXPLICIT_INFERENCE):
        for verdict in verdicts:  # a verdict that is not redundant has no antecedents
            ids |= {a for a in verdict.antecedents if a in state.events}
    if cls is IRUClass.IMPLICATURE_REINFORCEMENT:
        ids |= {link.owner for link in links if link.origin == LicenseLink.ORIGIN_IMPLICATURE}
    return tuple(sorted(ids, key=lambda u: state.events[u].turn_index))


# Affirmation phrases recognised when no explicit act annotation is given.
DEFAULT_AFFIRMATIONS = ("that's correct", "right", "yup", "absolutely")
_AFFIRMATION_TOKENS = frozenset(normalize_tokens(p) for p in DEFAULT_AFFIRMATIONS)


def is_affirmation_text(text: str) -> bool:
    return normalize_tokens(text) in _AFFIRMATION_TOKENS
