"""Acceptance under the collaborative principle, plus defeat and retraction.

Understanding a contribution and accepting it are different attitudes.
Conversants must surface a detected discrepancy at once, so a next turn
that neither affirms, conflicts, nor questions licenses acceptance as a
default when the dialogue's goals call for it.  Explicit affirmation yields
linguistic-grade acceptance; conflicting content or an annotated rejection
yields none; a redundant utterance spoken with rising intonation blocks the
default until the checker's later turns settle the question.  Defaults can
be defeated later by strictly stronger evidence, and retraction cascades
through everything that depended on the defeated belief.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple, Optional

from .errors import ConflictDetected, DefeatRejected, OrderingViolation, UnknownProposition
from .evidence import Strength, defeats
from .grounding import ActType, Intonation, IRUClass, UtteranceEvent
from .propositions import LIVE, Literal, Proposition, Slotted
from .saturation import Fixpoint, contrary

if TYPE_CHECKING:  # pragma: no cover
    from .state import DiscourseState

EXPLICIT_REJECTION = "explicit_rejection"
CONTRADICTORY_ASSERTION = "contradictory_assertion"


class ConflictEvidence(NamedTuple):
    """Evidence that an addressee does not (or may not) accept some content.

    The clashing pair is inconsistent under closure, or the event is
    annotated as a rejection.
    """

    event_id: str
    pair: tuple[Proposition, Proposition]
    kind: str  # EXPLICIT_REJECTION | CONTRADICTORY_ASSERTION
    against: frozenset[str] = frozenset()  # keys of the contested propositions

    @property
    def strength(self) -> Strength:
        return Strength.LINGUISTIC

    def applies_to(self, props) -> bool:
        return any(p.key in self.against for p in props)


class AcceptanceBelief(Slotted):
    _fields = __slots__ = ("belief_id", "proposition", "accepting_agent", "strength",
                           "dependencies", "status", "source_event", "trigger_event")

    def __init__(self, belief_id: str, proposition: Proposition, accepting_agent: str,
                 strength: Strength, dependencies: Optional[set[str]] = None,
                 status: str = LIVE, source_event: str = "", trigger_event: str = ""):
        self.belief_id = belief_id
        self.proposition = proposition
        self.accepting_agent = accepting_agent
        self.strength = strength  # DEFAULT or LINGUISTIC
        self.dependencies = set() if dependencies is None else dependencies
        self.status = status
        self.source_event = source_event  # utterance whose content is accepted
        self.trigger_event = trigger_event  # next-turn event that licensed the acceptance


class SupportLink(Slotted):
    """A belief put forward as a reason to adopt a goal or intention."""

    _fields = __slots__ = ("link_id", "belief", "goal", "dependencies", "status", "strength")

    def __init__(self, link_id: str, belief: Proposition, goal: Proposition,
                 dependencies: Optional[set[str]] = None, status: str = LIVE,
                 strength: Strength = Strength.LINGUISTIC):
        self.link_id = link_id
        self.belief = belief
        self.goal = goal
        self.dependencies = set() if dependencies is None else dependencies
        self.status = status
        self.strength = strength


class PendingAcceptance(NamedTuple):
    """An acceptance question left open (e.g. blocked by a rising check);
    re-evaluated at each subsequent turn by the would-be accepter."""

    source_event: str
    propositions: tuple[Proposition, ...]
    agent: str


class AcceptanceOutcome(NamedTuple):
    kind: str  # "accepted" | "blocked" | "rejected"
    proposition: Proposition
    agent: str
    source_event: str
    trigger_event: str
    strength: Optional[Strength] = None
    detail: str = ""

    ACCEPTED = "accepted"
    BLOCKED = "blocked"
    REJECTED = "rejected"


class RetractionReport(NamedTuple):
    target: str
    evidence_kind: str
    defeated: tuple[str, ...]


def detect_conflict(state: "DiscourseState", event: UtteranceEvent,
                    fixpoints: Optional[list[Fixpoint]] = None) -> Optional[ConflictEvidence]:
    """Does this event evidence non-acceptance of live content?

    Annotation first: a ``rejects`` link (to an earlier utterance, as
    admission checked) is explicit rejection regardless of content.  Then a
    direct contrary: a realized literal whose negation is live.  Otherwise
    a trial: the event's propositions are asserted (linguistic) on the live
    context and saturated (``Context.saturate``) under an undo trail
    (``Context.trial``).  Any clash is contradictory assertion evidence
    against the previously live half of the pair, and ``Context.rollback``
    leaves the context as it was; so does any other exception, which is
    raised again.  The trial defeats nothing, as a live contrary returns
    before it.

    When the trial finds no clash and ``fixpoints`` is given, the trial is
    the event's assertion: ``Context.keep`` lets its writes stand and the
    trial's fixpoint is appended to ``fixpoints``, for the caller to commit
    as long as nothing writes the context in between.  The context then
    holds entries for the keys it did not hold before (the propositions
    whose redundancy verdict is ``not_redundant``).  Without ``fixpoints``
    a clash-free trial is rolled back too.
    """
    if event.rejects is not None:
        props = state.events[event.rejects].realizes
        pair = (props[0], props[0]) if props else (Literal("nothing"), Literal("nothing"))
        return ConflictEvidence(event.utterance_id, pair, EXPLICIT_REJECTION,
                                frozenset(p.key for p in props))
    if not event.realizes:
        return None
    for p in event.realizes:
        if isinstance(p, Literal):
            live = state.context.lookup_key(contrary(p))
            if live is not None:
                return ConflictEvidence(event.utterance_id, (p, live.proposition),
                                        CONTRADICTORY_ASSERTION,
                                        frozenset([live.proposition.key]))
    context, clash = state.context, None
    mark = context.trial()
    try:
        for p in event.realizes:
            context.assert_prop(p, Strength.LINGUISTIC, event.utterance_id)
        fixpoint = context.saturate()
    except ConflictDetected as raised:
        clash = raised
    except BaseException:
        context.rollback(mark)
        raise
    if clash is None and fixpoints is not None:
        context.keep(mark)
        fixpoints.append(fixpoint)
        return None
    context.rollback(mark)
    if clash is None:
        return None
    # the contested side is whatever half of a clashing pair is live in the
    # real (pre-event) context; the other half came with the event
    against = set()
    pair = clash.clashes[0]
    for a, b in clash.clashes:
        for live, came in ((a, b), (b, a)):
            if context.lookup(live) is not None:
                against.add(live.key)
                pair = (came, live)
    return ConflictEvidence(event.utterance_id, pair,
                            CONTRADICTORY_ASSERTION, frozenset(against))


def evaluate_acceptance(state: "DiscourseState", prev_event: UtteranceEvent,
                        next_event: UtteranceEvent, *, iru_class: IRUClass = IRUClass.NONE,
                        conflict: Optional[ConflictEvidence] = None) -> list[AcceptanceOutcome]:
    """Decide the addressee's stance toward the immediately previous turn.

    In order: explicit affirmation accepts at linguistic strength; conflict
    evidence against the content rejects; a redundant check with rising
    intonation blocks (the question goes to the pending list); otherwise a
    goal-marked dialogue licenses default acceptance of assertions.  Rising
    intonation on any other next turn defers the default without blocking
    visibly.
    """
    if next_event.speaker != prev_event.addressee:
        raise OrderingViolation(
            f"{next_event.utterance_id} does not answer {prev_event.utterance_id}")
    if next_event.interrupted:
        return []
    props = prev_event.realizes
    if not props:
        return []
    trigger = next_event.utterance_id
    if next_event.act is ActType.AFFIRMATION:
        return [_accept(state, p, next_event.speaker, Strength.LINGUISTIC,
                        prev_event.utterance_id, trigger) for p in props]
    if conflict is not None and conflict.applies_to(props):
        return [AcceptanceOutcome(AcceptanceOutcome.REJECTED, p, next_event.speaker,
                                  prev_event.utterance_id, trigger, None, conflict.kind)
                for p in props]
    if iru_class is not IRUClass.NONE and next_event.intonation is Intonation.RISING:
        state.pending.append(PendingAcceptance(prev_event.utterance_id, props,
                                               next_event.speaker))
        return [AcceptanceOutcome(AcceptanceOutcome.BLOCKED, p, next_event.speaker,
                                  prev_event.utterance_id, trigger, None, "rising")
                for p in props]
    if next_event.intonation is Intonation.RISING:
        if state.require_acceptance and prev_event.act is ActType.ASSERT:
            state.pending.append(PendingAcceptance(prev_event.utterance_id, props,
                                                   next_event.speaker))
        return []
    if state.require_acceptance and prev_event.act is ActType.ASSERT:
        return [_accept(state, p, next_event.speaker, Strength.DEFAULT,
                        prev_event.utterance_id, trigger) for p in props]
    return []


def reevaluate_pending(state: "DiscourseState", event: UtteranceEvent, *,
                       conflict: Optional[ConflictEvidence] = None) -> list[AcceptanceOutcome]:
    """Retry acceptance questions the current speaker left open earlier."""
    if event.interrupted:
        return []
    outcomes: list[AcceptanceOutcome] = []
    remaining: list[PendingAcceptance] = []
    for item in state.pending:
        if item.agent != event.speaker:
            remaining.append(item)
            continue
        if conflict is not None and conflict.applies_to(item.propositions):
            outcomes.extend(
                AcceptanceOutcome(AcceptanceOutcome.REJECTED, p, item.agent,
                                  item.source_event, event.utterance_id, None,
                                  conflict.kind)
                for p in item.propositions)
            continue
        if event.intonation is Intonation.RISING:
            remaining.append(item)
            continue
        source = state.events[item.source_event]
        if state.require_acceptance and source.act is ActType.ASSERT:
            outcomes.extend(
                _accept(state, p, item.agent, Strength.DEFAULT,
                        item.source_event, event.utterance_id)
                for p in item.propositions)
        # either way the question is settled or dropped
    state.pending = remaining
    return outcomes


def _accept(state: "DiscourseState", p: Proposition, agent: str, strength: Strength,
            source_event: str, trigger: str) -> AcceptanceOutcome:
    belief = state.find_acceptance(p, agent)
    deps = {trigger}
    entry = state.entry_before_event(p)
    if entry is not None:
        deps.add(entry.entry_id)
    if belief is None:
        belief = AcceptanceBelief(
            state.context.fresh_id("a", len(state.acceptance_beliefs) + 1), p, agent,
            strength, deps, LIVE, source_event, trigger)
        state.add_acceptance(belief)
    else:
        belief.strength = max(belief.strength, strength)
        state.context.depend(belief.belief_id, deps)
    return AcceptanceOutcome(AcceptanceOutcome.ACCEPTED, p, agent, source_event,
                             trigger, belief.strength, "")


def defeat(state: "DiscourseState", target_id: str, by: ConflictEvidence) -> RetractionReport:
    """Defeat a node of the dependency graph with strictly stronger contrary
    evidence, and report what went with it.

    The target may be a proposition entry, an acceptance belief or a support
    link; ``Context.defeat_entry`` flips it and every live node whose
    dependencies reach it to defeated.  Strengths are untouched; only status
    changes.
    """
    node = state.nodes.get(target_id)
    if node is None:
        raise UnknownProposition(f"no belief or entry {target_id!r}")
    if not defeats(by.strength, node.strength):
        raise DefeatRejected(
            f"{by.strength} evidence cannot defeat a {node.strength} belief")
    report = RetractionReport(target_id, by.kind, tuple(state.context.defeat_entry(target_id)))
    state.retractions.append(report)
    return report


def record_support(state: "DiscourseState", belief: Proposition,
                   goal: Proposition) -> SupportLink:
    """Link a belief to the goal it supports; idempotent per endpoint pair.

    Both endpoints must already be in the discourse state; every live
    acceptance belief for the goal gains the link as a dependency."""
    belief_entry = state.context.lookup(belief)
    goal_entry = state.context.lookup(goal)
    if belief_entry is None:
        raise UnknownProposition(f"support source {belief} not in state")
    if goal_entry is None:
        raise UnknownProposition(f"support target {goal} not in state")
    link = state.support_between.get((belief.key, goal.key))
    if link is not None:
        return link
    link = SupportLink(
        link_id=state.context.fresh_id("s", len(state.support_links) + 1),
        belief=belief,
        goal=goal,
        dependencies={belief_entry.entry_id, goal_entry.entry_id},
    )
    state.support_links[link.link_id] = link
    state.context.add_node(link.link_id, link)
    state.support_between[(belief.key, goal.key)] = link
    for acc in state.live_acceptances_of({goal.key}):
        state.context.depend(acc.belief_id, (link.link_id,))
    return link
