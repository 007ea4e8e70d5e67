"""Replays a dialogue event by event, updating the discourse state.

``DialogueEngine.process`` runs nine phases per event, in the paper's
per-utterance order; each phase's method or comment says what it does.
The order is fixed, and it matters:

- admission (1) raises before any state changes;
- the any-next upgrade (2) comes before the event's own classification (3);
- classification (3) works out the redundancy verdicts and matched license
  links once, on the context before the event; steps 4, 5 and 8 reuse them;
- the IRU upgrade (4) precedes the conflict trial (5), so it sees the
  context before the event, and a license premise it refuses leaves no
  trial entry behind;
- acceptance (6) sees the context as it was before the event: its lookups
  pass over the keys step 5 puts in ``state.arriving``;
- defeats (7) follow acceptance (6) and precede the assertion (8), so
  contested content never enters the common ground;
- one call, ``Context.assert_all``, asserts the event's content: a
  clash-free trial (5) is the event's assertion and step 8 commits its
  fixpoint as it stands, so step 6 writes no context entry and step 7 has
  nothing to do; else step 8 makes the call.

The phases compute values; ``process`` gathers them, with the event, into a
``trace.TraceRecord`` (built as ``propositions.Slotted`` tells), and ``trace``
alone renders a record as text.

The functions the benchmark's tracer wraps (``bench/run.py``'s span targets)
are called through their modules' attributes, looked up at each call, never
inlined here: a traced run must see every call.  The rule governs calls
between modules.  ``propositions.Context`` reads its own map of live entries
directly, so its own reads are not ``lookup_key`` calls.
"""

from __future__ import annotations

from typing import Optional

from . import acceptance as acc
from . import grounding as grd
from .errors import DanglingAntecedent, DuplicateUtterance, OrderingViolation, \
    SelfContradiction
from .evidence import DEFAULT, HYPOTHESIS, INFERENCE, LINGUISTIC, Strength
from .grounding import IRU_EXPLICIT_INFERENCE, IRU_IMPLICATURE_REINFORCEMENT, IRU_NONE, \
    IRU_PROMPT, AssumptionRecord, IRUClass, LicenseLink, UtteranceEvent
from .propositions import LIVE, Literal, Proposition, RedundancyVerdict, new_record
from .saturation import Item
from .state import DiscourseState
from .trace import TraceRecord, snapshot_record

#: the error ``process`` raises for each admission issue code
ADMISSION_ERRORS = {"duplicate-utterance": DuplicateUtterance, "turn-order": OrderingViolation,
                    "bad-value": OrderingViolation, "dangling-antecedent": DanglingAntecedent,
                    "self-contradiction": SelfContradiction}


class DialogueEngine:
    """Sequential engine for one dialogue; sendable, never shared mid-run."""

    def __init__(self, state: DiscourseState):
        self.state = state
        self.traces: list[TraceRecord] = []

    @classmethod
    def for_transcript(cls, transcript) -> "DialogueEngine":
        state = DiscourseState(
            dialogue_id=transcript.dialogue_id,
            participants=transcript.participants,
            require_acceptance=transcript.require_acceptance,
        )
        return cls(state)

    def replay(self, transcript) -> list[TraceRecord]:
        for event in transcript.events:
            self.process(event)
        return self.traces

    def process(self, event: UtteranceEvent) -> TraceRecord:
        """Run ``event`` through the nine phases, in order; returns its trace."""
        state = self.state
        prev = self._admit(event)
        touched = self._any_next_upgrade(event)
        # 3. classify the event against the context before it
        realizes = event.realizes
        matched = state.links_concluding(realizes)
        verdicts = [state.context.is_redundant(p) for p in realizes]
        cls = grd.classify_iru(event, state, verdicts, matched)
        antecedents = grd.resolved_antecedents(event, state, cls, verdicts, matched)
        licenses = self._iru_upgrade(event, cls, antecedents, matched, touched)
        # 5. detect conflict evidence; a kept trial hands over its fixpoint
        fixpoints: list[list[Item]] = []
        conflict = acc.detect_conflict(state, event, fixpoints)
        state.arriving = frozenset([p.key for p, verdict in zip(realizes, verdicts)
                                    if verdict.kind == RedundancyVerdict.NOT_REDUNDANT])
        # 6. settle acceptance: pending questions first, then the adjacent pair
        outcomes = acc.reevaluate_pending(state, event, conflict=conflict)
        if prev is not None and prev.addressee == event.speaker:
            outcomes += acc.evaluate_acceptance(state, prev, event,
                                                iru_class=cls, conflict=conflict)
        if state.arriving:
            state.arriving = frozenset()
        retractions, contested = self._defeat(conflict)
        asserted = derived = supports = ()
        if not contested:
            asserted, derived = self._assert(event, verdicts, fixpoints, touched, licenses)
            supports = self._register_links(event, licenses)

        events = state.events
        records = sorted(touched.values(), key=lambda r: events[r.utterance_id].turn_index) \
            if len(touched) > 1 else touched.values()
        trace = new_record(TraceRecord, (
            event, cls, antecedents,
            tuple([snapshot_record(r, grd.understanding_strength(r)) for r in records]),
            tuple(licenses), conflict, tuple(outcomes), tuple(asserted), tuple(derived),
            tuple(supports), tuple(retractions)))
        self.traces.append(trace)
        return trace

    # -- the phases, in order ---------------------------------------------

    def _admit(self, event: UtteranceEvent) -> Optional[UtteranceEvent]:
        """1. Raise the first ``grounding.admission_issues`` issue, then open
        the event's assumption record and enter it; returns the event before."""
        state, events = self.state, self.state.events
        issues = grd.admission_issues(event, state.participant_ids, events, len(events))
        if issues:
            _, code, message = issues[0]
            raise ADMISSION_ERRORS[code](f"{event.utterance_id}: {message}")
        prev = next(reversed(events.values()), None)
        grd.open_record(state, event)
        events[event.utterance_id] = event
        return prev

    def _any_next_upgrade(self, event: UtteranceEvent) -> dict[str, AssumptionRecord]:
        """2. Give the any-next-utterance upgrade to the records awaiting the
        speaker (copresence to linguistic, the rest and their license links to
        at least default), and queue the event's own for its addressee.  An
        interrupted utterance neither gives nor gets it.  Returns the upgraded
        records by id."""
        state = self.state
        touched: dict[str, AssumptionRecord] = {}
        if event.interrupted:
            return touched
        for uid in state.awaiting.pop(event.speaker, ()):
            prior = state.records[uid]
            grd.apply_any_next_upgrade(prior)
            for key in prior.license_keys:
                link = state.license_links[key]
                if link.strength < DEFAULT:
                    link.strength = DEFAULT
            touched[uid] = prior
        state.awaiting.setdefault(event.addressee, []).append(event.utterance_id)
        return touched

    def _iru_upgrade(self, event: UtteranceEvent, cls: IRUClass, antecedents: tuple[str, ...],
                     matched: list[LicenseLink], touched: dict) -> list:
        """4. Upgrade the records of the antecedents addressed to the speaker
        (for a prompt with none, of the latest utterance addressed to the
        speaker, never the event itself); an explicit inference or
        implicature reinforcement lifts the matched license links to
        linguistic.  Returns the lifted links' values."""
        state, lifted = self.state, []
        if cls is IRU_NONE:
            return lifted
        events, ids, speaker = state.events, antecedents, event.speaker
        if cls is IRU_PROMPT and not ids:
            ids = next(((e.utterance_id,) for e in reversed(events.values())
                        if e.addressee == speaker), ())
        for uid in ids:
            if events[uid].addressee == speaker:
                target = state.records[uid]
                grd.apply_iru_upgrade(target, cls)
                touched[uid] = target
        if cls in (IRU_EXPLICIT_INFERENCE, IRU_IMPLICATURE_REINFORCEMENT):
            for link in matched:
                lifted.append(_license_values(
                    grd.record_license_evidence(state, link, LINGUISTIC)))
                owner = state.records.get(link.owner)
                if owner is not None:
                    touched[link.owner] = owner
        return lifted

    def _defeat(self, conflict: Optional[acc.ConflictEvidence]) -> tuple[list, bool]:
        """7. Defeat the live acceptances of the contested propositions that
        are weaker than the conflict evidence, then their entries if every one
        is weaker.  Returns the ids each defeat retracted and whether the
        content stays contested."""
        state, retracted = self.state, []
        if conflict is None:
            return retracted, False
        for belief in state.live_acceptances_of(conflict.against):
            if belief.strength < conflict.strength:
                retracted.append(acc.defeat(state, belief.belief_id, conflict).defeated)
        entries = [e for e in map(state.context.lookup_key, sorted(conflict.against))
                   if e is not None]
        if any(e.strength >= conflict.strength for e in entries):
            return retracted, True
        for e in entries:
            if e.status == LIVE:  # else already swept up by an earlier cascade
                retracted.append(acc.defeat(state, e.entry_id, conflict).defeated)
        return retracted, False

    def _assert(self, event: UtteranceEvent, verdicts, fixpoints: list[list[Item]],
                touched: dict, licenses: list) -> tuple[list, list]:
        """8. Assert the event's propositions (linguistic), commit the closure
        and license an inference for each derivation resting on the event.
        A kept trial asserted them, and its fixpoint (on ``fixpoints``) is
        committed; after conflict evidence that left the content uncontested
        they are asserted and saturated here, along with what a defeat
        changed.  Returns the asserted and derived values; license values go
        onto ``licenses``."""
        state, uid, realizes = self.state, event.utterance_id, event.realizes
        asserted, derived = [], []
        if not realizes:
            return asserted, derived
        context = state.context
        fixpoint = fixpoints[0] if fixpoints else context.assert_all(realizes, LINGUISTIC, uid)
        for p, verdict in zip(realizes, verdicts):
            asserted.append((p, context.lookup(p).strength, verdict))
        for entry in context.commit(fixpoint):
            roots = sorted(context.asserted_roots(entry))
            derived.append((entry.proposition, entry.strength, tuple(roots)))
            if uid in roots:  # from the event's first literal, or else its first proposition
                premise = next((p for p in realizes if isinstance(p, Literal)), realizes[0])
                link = LicenseLink(premise, entry.proposition, INFERENCE,
                                   LicenseLink.ORIGIN_INFERENCE, uid)
                licenses.append(_license_values(
                    grd.record_license_evidence(state, link, INFERENCE)))
                touched[uid] = state.records[uid]
        return asserted, derived

    def _register_links(self, event: UtteranceEvent, licenses: list) -> list:
        """9. Register the annotated implicature (a license link at hypothesis,
        its values onto ``licenses``) and support link; returns the supports'
        (belief, goal) pairs."""
        state, supports = self.state, []
        implicates, supported = event.implicates, event.supports
        if implicates is not None:
            premise, conclusion = implicates
            link = LicenseLink(premise, conclusion, HYPOTHESIS,
                               LicenseLink.ORIGIN_IMPLICATURE, event.utterance_id)
            licenses.append(_license_values(grd.record_license_evidence(state, link, HYPOTHESIS)))
        if supported is not None:
            belief, goal = supported
            acc.record_support(state, belief, goal)
            supports.append((belief, goal))
        return supports


def _license_values(link: LicenseLink) -> tuple[Proposition, Proposition, Strength, str]:
    """A license link's values for the trace, as they stand now (the stored
    link's strength may rise later): premise, conclusion, strength, origin."""
    return (link.premise, link.conclusion, link.strength, link.origin)


def replay_transcript(transcript):
    """Convenience: run a parsed transcript; returns (engine, trace records)."""
    engine = DialogueEngine.for_transcript(transcript)
    traces = engine.replay(transcript)
    return engine, traces
