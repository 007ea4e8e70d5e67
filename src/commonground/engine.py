"""Replays a dialogue event by event, updating the discourse state.

``DialogueEngine.process`` runs nine phases per event, in the paper's
per-utterance order; each phase's method or comment says what it does.
The order is fixed, and it matters:

- admission (1) raises before any state changes;
- the any-next upgrade (2) comes before the event's own classification (3);
- classification (3) works out the redundancy verdicts and matched license
  links once, on the context before the event; steps 4, 5 and 8 reuse them;
- steps 5-6 see the context as it was before the event: their lookups pass
  over the entries a kept conflict trial (4) inserted;
- defeats (7) follow acceptance (6) and precede the assertion (8), so
  contested content never enters the common ground;
- a clash-free trial (4) is the event's assertion and step 8 commits its
  fixpoint as it stands, so steps 5-6 write no context entry and step 7
  has nothing to do.

The functions the benchmark's tracer wraps (``bench/run.py``'s span targets)
are called through their modules' attributes, looked up at each call, never
inlined here: a traced run must see every call.
"""

from __future__ import annotations

from typing import Optional

from . import acceptance as acc
from . import grounding as grd
from .errors import DanglingAntecedent, DuplicateUtterance, OrderingViolation, \
    SelfContradiction
from .evidence import Strength
from .grounding import AssumptionRecord, IRUClass, LicenseLink, UtteranceEvent
from .propositions import LIVE, Literal
from .saturation import Fixpoint
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
        matched = state.links_concluding(event.realizes)
        verdicts = [state.context.is_redundant(p) for p in event.realizes]
        cls = grd.classify_iru(event, state, verdicts, matched)
        antecedents = grd.resolved_antecedents(event, state, cls, verdicts, matched)
        conflict, fixpoint = self._detect_conflict(event, verdicts)
        licenses = self._iru_upgrade(event, cls, antecedents, matched, touched)
        # 6. settle acceptance: pending questions first, then the adjacent pair
        outcomes = acc.reevaluate_pending(state, event, conflict=conflict)
        if prev is not None and prev.addressee == event.speaker and not event.interrupted:
            outcomes += acc.evaluate_acceptance(state, prev, event,
                                                iru_class=cls, conflict=conflict)
        state.arriving = frozenset()
        retractions, contested = self._defeat(conflict)
        asserted = derived = supports = ()
        if not contested:
            asserted, derived = self._assert(event, verdicts, fixpoint, touched, licenses)
            supports = self._register_links(event, licenses)

        events = state.events
        items = sorted(touched.items(), key=lambda kv: events[kv[0]].turn_index) \
            if len(touched) > 1 else touched.items()
        # an enum member's _value_ is a plain attribute; .value is a property
        trace = TraceRecord(
            event.utterance_id, event.turn_index, event.speaker, event.addressee,
            event.act._value_, event.intonation._value_, cls._value_, antecedents,
            tuple([snapshot_record(r, events[uid].turn_index, grd.understanding_strength(r))
                   for uid, r in items]),
            tuple(licenses),
            ((conflict.kind, str(conflict.pair[0]), str(conflict.pair[1])),)
            if conflict is not None else (),
            tuple([(o.kind, str(o.proposition), o.agent,
                    o.strength.label if o.strength is not None else o.detail,
                    o.trigger_event) for o in outcomes]),
            tuple(asserted), tuple(derived), tuple(supports), tuple(retractions))
        self.traces.append(trace)
        return trace

    # -- the phases, in order ---------------------------------------------

    def _admit(self, event: UtteranceEvent) -> Optional[UtteranceEvent]:
        """1. Raise the first ``grounding.admission_issues`` issue, then open
        the event's assumption record and enter it; returns the event before."""
        state = self.state
        issues = grd.admission_issues(event, state.participant_ids, state.events,
                                      len(state.events))
        if issues:
            _, code, message = issues[0]
            raise ADMISSION_ERRORS[code](f"{event.utterance_id}: {message}")
        prev = next(reversed(state.events.values()), None)
        grd.open_record(state, event)
        state.events[event.utterance_id] = event
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
                link.strength = max(link.strength, Strength.DEFAULT)
            touched[uid] = prior
        state.awaiting.setdefault(event.addressee, []).append(event.utterance_id)
        return touched

    def _detect_conflict(self, event: UtteranceEvent, verdicts) \
            -> tuple[Optional[acc.ConflictEvidence], Optional[Fixpoint]]:
        """4. Detect conflict evidence (``acceptance.detect_conflict``).  A
        clash-free trial stands as the event's assertion: its fixpoint is
        returned for step 8, and ``state.arriving`` holds the keys it inserted
        (verdict ``not_redundant``) until step 6 is done."""
        fixpoints: list[Fixpoint] = []
        conflict = acc.detect_conflict(self.state, event, fixpoints)
        fixpoint = fixpoints[0] if fixpoints else None
        self.state.arriving = frozenset(
            p.key for p, verdict in zip(event.realizes, verdicts)
            if not verdict.redundant) if fixpoint is not None else frozenset()
        return conflict, fixpoint

    def _iru_upgrade(self, event: UtteranceEvent, cls: IRUClass, antecedents: tuple[str, ...],
                     matched: list[LicenseLink], touched: dict) -> list:
        """5. Upgrade the antecedent records addressed to the speaker (for a
        prompt with none, the latest such record, never the event's own); an
        explicit inference or implicature reinforcement lifts the matched
        license links to linguistic.  Returns the lifted links' lines."""
        state, lines = self.state, []
        if cls is IRUClass.NONE:
            return lines
        ids = antecedents
        if cls is IRUClass.PROMPT and not ids:
            ids = next(((uid,) for uid, r in reversed(state.records.items())
                        if r.addressee == event.speaker), ())
        for uid in ids:
            target = state.records[uid]
            if target.addressee == event.speaker:
                grd.apply_iru_upgrade(target, cls)
                touched[uid] = target
        if cls in (IRUClass.EXPLICIT_INFERENCE, IRUClass.IMPLICATURE_REINFORCEMENT):
            for link in matched:
                lines.append(_license_line(
                    grd.record_license_evidence(state, link, Strength.LINGUISTIC)))
                owner = state.records.get(link.owner)
                if owner is not None:
                    touched[link.owner] = owner
        return lines

    def _defeat(self, conflict: Optional[acc.ConflictEvidence]) -> tuple[list, bool]:
        """7. Defeat the live acceptances of the contested propositions that
        are weaker than the conflict evidence, then their entries if every one
        is weaker.  Returns the retraction lines and whether the content stays
        contested."""
        state, lines = self.state, []
        if conflict is None:
            return lines, False
        for belief in state.live_acceptances_of(conflict.against):
            if belief.strength < conflict.strength:
                lines.append(acc.defeat(state, belief.belief_id, conflict).defeated)
        entries = [e for e in map(state.context.lookup_key, sorted(conflict.against))
                   if e is not None]
        if any(e.strength >= conflict.strength for e in entries):
            return lines, True
        for e in entries:
            if e.status == LIVE:  # else already swept up by an earlier cascade
                lines.append(acc.defeat(state, e.entry_id, conflict).defeated)
        return lines, False

    def _assert(self, event: UtteranceEvent, verdicts, fixpoint: Optional[Fixpoint],
                touched: dict, licenses: list) -> tuple[list, list]:
        """8. Assert the event's propositions (linguistic), commit the closure
        and license an inference for each derivation resting on the event.
        A kept trial's propositions stand asserted and its fixpoint is
        committed; after conflict evidence that left the content uncontested
        they are asserted and saturated here, along with what a defeat
        changed.  Returns the asserted and derived lines; license lines go
        onto ``licenses``."""
        state, uid = self.state, event.utterance_id
        asserted, derived = [], []
        for p, verdict in zip(event.realizes, verdicts):
            entry = state.context.lookup(p) if fixpoint is not None else \
                state.context.assert_prop(p, Strength.LINGUISTIC, uid)
            note = f"redundant: {verdict.kind} " + ", ".join(sorted(verdict.antecedents)) \
                if verdict.redundant else ""
            asserted.append((str(p), entry.strength, note))
        if not event.realizes:
            return asserted, derived
        premise = next((p for p in event.realizes if isinstance(p, Literal)), event.realizes[0])
        for entry in state.context.commit(
                fixpoint if fixpoint is not None else state.context.saturate()):
            roots = sorted(state.context.asserted_roots(entry))
            derived.append((str(entry.proposition), entry.strength, tuple(roots)))
            if uid in roots:
                # from the event's first literal, or else its first proposition
                link = LicenseLink(premise, entry.proposition, Strength.INFERENCE,
                                   LicenseLink.ORIGIN_INFERENCE, uid)
                licenses.append(_license_line(
                    grd.record_license_evidence(state, link, Strength.INFERENCE)))
                touched[uid] = state.records[uid]
        return asserted, derived

    def _register_links(self, event: UtteranceEvent, licenses: list) -> list:
        """9. Register the annotated implicature (a license link at hypothesis,
        its line onto ``licenses``) and support link; returns support lines."""
        state, supports = self.state, []
        if event.implicates is not None:
            premise, conclusion = event.implicates
            link = LicenseLink(premise, conclusion, Strength.HYPOTHESIS,
                               LicenseLink.ORIGIN_IMPLICATURE, event.utterance_id)
            licenses.append(_license_line(
                grd.record_license_evidence(state, link, Strength.HYPOTHESIS)))
        if event.supports is not None:
            belief, goal = event.supports
            acc.record_support(state, belief, goal)
            supports.append((str(belief), str(goal)))
        return supports


def _license_line(link: LicenseLink) -> tuple[str, str, Strength, str]:
    """A license link's trace line: premise, conclusion, strength, origin."""
    return (str(link.premise), str(link.conclusion), link.strength, link.origin)


def replay_transcript(transcript):
    """Convenience: run a parsed transcript; returns (engine, trace records)."""
    engine = DialogueEngine.for_transcript(transcript)
    traces = engine.replay(transcript)
    return engine, traces
