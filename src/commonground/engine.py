"""Replays a dialogue event by event, updating the discourse state.

Per-event order of operations (it matters, and it is fixed):

1. admit the event (``grounding.admission_issues``: raise the first issue
   before any state changes), open its own assumption record (hypothesis),
2. apply the any-next-utterance upgrade to every earlier record addressed
   to the current speaker (copresence to linguistic, the rest to at least
   default) -- before the event's own classification; ``state.awaiting``
   holds the records still waiting, per addressee,
3. classify the event against the pre-event context.  The redundancy
   verdicts of its propositions and the stored license links it concludes
   (looked up by conclusion key) are worked out once here, and steps 5 and 8
   reuse them (step 4 adds no link),
4. detect conflict evidence (annotation first, then a direct contrary, then
   a trial: the event's propositions are asserted on the live context and
   saturated under an undo trail).  A trial that finds a clash is rolled
   back; one that finds none stands as the event's assertion, and its
   fixpoint waits for step 8,
5. upgrade the antecedent records named by the classification, and lift the
   matched license links to linguistic,
6. settle acceptance: pending questions first, then the adjacent pair.
   Steps 5-6 see the context as it was before the event: their lookups pass
   over the entries a kept trial inserted, the keys whose step-3
   verdict is ``not_redundant`` (``DiscourseState.entry_before_event``),
7. on conflict, defeat whatever weaker beliefs the evidence defeats;
   contested content never enters the common ground,
8. otherwise assert the event's propositions (linguistic), chain the
   closure, and record inference licenses for newly derived content.  When
   step 4 found no conflict, its trial asserted the propositions already and
   its fixpoint is committed as it stands: steps 5-6 write no context entry
   and step 7 has nothing to do.  After conflict evidence that settles
   without contesting the content (a ``rejects`` annotation, a direct
   contrary, or a clash whose live side was defeated) the propositions are
   asserted here and the context is saturated again.  Each saturation covers
   what changed since the last commit, a defeat included: the keys of the
   defeated literals, the targets of the defeated rules, and what they lead
   to,
9. register annotated implicature and support links.
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

    # ------------------------------------------------------------------

    def process(self, event: UtteranceEvent) -> TraceRecord:
        state = self.state
        issues = grd.admission_issues(event, state.participant_ids(), state.events,
                                      len(state.order))
        if issues:
            _, code, message = issues[0]
            raise ADMISSION_ERRORS[code](f"{event.utterance_id}: {message}")
        record = grd.open_record(state, event)
        state.events[event.utterance_id] = event
        state.order.append(event.utterance_id)

        touched: dict[str, AssumptionRecord] = {}

        # any-next-utterance upgrade, before this event's own classification
        if not event.interrupted:
            for uid in state.awaiting.pop(event.speaker, ()):
                prior = state.records[uid]
                grd.apply_any_next_upgrade(prior)
                for key in prior.license_keys:
                    link = state.license_links[key]
                    link.strength = max(link.strength, Strength.DEFAULT)
                touched[uid] = prior
            # an interrupted utterance's record never gets the upgrade
            state.awaiting.setdefault(event.addressee, []).append(event.utterance_id)

        matched = state.links_concluding(event.realizes)
        verdicts = [state.context.is_redundant(p) for p in event.realizes]
        cls = grd.classify_iru(event, state, verdicts, matched)
        antecedents = grd.resolved_antecedents(event, state, cls, verdicts, matched)
        fixpoints: list[Fixpoint] = []
        conflict = acc.detect_conflict(state, event, fixpoints)
        # a kept trial inserted the propositions the context did not hold
        state.arriving = frozenset(p.key for p, verdict in zip(event.realizes, verdicts)
                                   if not verdict.redundant) if fixpoints else frozenset()
        if conflict is not None:
            state.conflicts.append(conflict)

        license_lines: list[tuple[str, str, Strength, str]] = []
        if cls is not IRUClass.NONE:
            for target in self._upgrade_targets(event, cls, antecedents):
                grd.apply_iru_upgrade(target, cls)
                touched[target.utterance_id] = target
            if cls in (IRUClass.EXPLICIT_INFERENCE, IRUClass.IMPLICATURE_REINFORCEMENT):
                for link in matched:
                    grd.record_license_evidence(state, link, Strength.LINGUISTIC)
                    license_lines.append((str(link.premise), str(link.conclusion),
                                          link.strength, link.origin))
                    owner = state.records.get(link.owner)
                    if owner is not None:
                        touched[link.owner] = owner

        outcomes = acc.reevaluate_pending(state, event, conflict=conflict)
        prev = state.events[state.order[-2]] if len(state.order) > 1 else None
        if (prev is not None and prev.addressee == event.speaker
                and not event.interrupted):
            outcomes += acc.evaluate_acceptance(state, prev, event,
                                                iru_class=cls, conflict=conflict)
        state.arriving = frozenset()

        retraction_lines: list[tuple[str, ...]] = []
        contested = False
        if conflict is not None:
            contested = self._handle_defeats(conflict, retraction_lines)

        asserted_lines: list[tuple[str, Strength, str]] = []
        derived_lines: list[tuple[str, Strength, tuple[str, ...]]] = []
        support_lines: list[tuple[str, str]] = []
        if not contested:
            for p, verdict in zip(event.realizes, verdicts):
                # a kept trial asserted the propositions already
                entry = state.context.lookup(p) if fixpoints else \
                    state.context.assert_prop(p, Strength.LINGUISTIC, event.utterance_id)
                note = ""
                if verdict.redundant:
                    note = f"redundant: {verdict.kind} " + ", ".join(sorted(verdict.antecedents))
                asserted_lines.append((str(p), entry.strength, note))
            derived = []
            if event.realizes:
                fixpoint = fixpoints[0] if fixpoints else state.context.saturate()
                derived = state.context.commit(fixpoint)
            for entry in derived:
                roots = sorted(state.context.asserted_roots(entry))
                derived_lines.append((str(entry.proposition), entry.strength,
                                      tuple(roots)))
                link = self._license_for_derivation(event, entry, roots)
                if link is not None:
                    license_lines.append((str(link.premise), str(link.conclusion),
                                          link.strength, link.origin))
                    touched[event.utterance_id] = record
            if event.implicates is not None:
                premise, conclusion = event.implicates
                link = grd.record_license_evidence(
                    state,
                    LicenseLink(premise, conclusion, Strength.HYPOTHESIS,
                                LicenseLink.ORIGIN_IMPLICATURE, event.utterance_id),
                    Strength.HYPOTHESIS)
                license_lines.append((str(link.premise), str(link.conclusion),
                                      link.strength, link.origin))
            if event.supports is not None:
                belief, goal = event.supports
                acc.record_support(state, belief, goal)
                support_lines.append((str(belief), str(goal)))

        trace = TraceRecord(
            event_id=event.utterance_id,
            turn_index=event.turn_index,
            speaker=event.speaker,
            addressee=event.addressee,
            act=event.act.value,
            intonation=event.intonation.value,
            iru_class=cls.value,
            antecedents=antecedents,
            records=tuple(
                snapshot_record(r, state.events[uid].turn_index, grd.understanding_strength(r))
                for uid, r in sorted(touched.items(),
                                     key=lambda kv: state.events[kv[0]].turn_index)),
            licenses=tuple(license_lines),
            conflicts=((conflict.kind, str(conflict.pair[0]), str(conflict.pair[1])),)
            if conflict is not None else (),
            acceptances=tuple(
                (o.kind, str(o.proposition), o.agent,
                 str(o.strength) if o.strength is not None else o.detail,
                 o.trigger_event)
                for o in outcomes),
            asserted=tuple(asserted_lines),
            derived=tuple(derived_lines),
            supports=tuple(support_lines),
            retractions=tuple(retraction_lines),
        )
        self.traces.append(trace)
        return trace

    # ------------------------------------------------------------------

    def _upgrade_targets(self, event: UtteranceEvent, cls: IRUClass,
                         antecedents: tuple[str, ...]) -> list[AssumptionRecord]:
        state = self.state
        ids = list(antecedents)
        if cls is IRUClass.PROMPT and not ids:
            for uid in reversed(self.state.order[:-1]):
                if state.records[uid].addressee == event.speaker:
                    ids = [uid]
                    break
        return [state.records[uid] for uid in ids
                if state.records[uid].addressee == event.speaker]

    def _handle_defeats(self, conflict: acc.ConflictEvidence,
                        retraction_lines: list) -> bool:
        """Defeat what the evidence can; report whether content stays contested."""
        state = self.state
        for belief in state.live_acceptances_of(conflict.against):
            if belief.strength < conflict.strength:
                report = acc.defeat(state, belief.belief_id, conflict)
                retraction_lines.append(report.defeated)
        entries = [state.context.lookup_key(key) for key in sorted(conflict.against)]
        entries = [e for e in entries if e is not None]
        if not entries:
            return False
        if all(e.strength < conflict.strength for e in entries):
            for e in entries:
                if e.status != LIVE:
                    continue  # already swept up by an earlier cascade
                report = acc.defeat(state, e.entry_id, conflict)
                retraction_lines.append(report.defeated)
            return False
        return True

    def _license_for_derivation(self, event: UtteranceEvent, entry, roots) -> Optional[LicenseLink]:
        """Derived content licenses an inference from this event's contribution:
        its first literal, or else its first proposition.  Only an event that
        realizes something derives anything."""
        if event.utterance_id not in roots:
            return None
        premise = next((p for p in event.realizes if isinstance(p, Literal)), event.realizes[0])
        link = LicenseLink(premise, entry.proposition, Strength.INFERENCE,
                           LicenseLink.ORIGIN_INFERENCE, event.utterance_id)
        return grd.record_license_evidence(self.state, link, Strength.INFERENCE)


def replay_transcript(transcript):
    """Convenience: run a parsed transcript; returns (engine, trace records)."""
    engine = DialogueEngine.for_transcript(transcript)
    traces = engine.replay(transcript)
    return engine, traces
