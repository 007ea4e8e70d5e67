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
from .evidence import DEFAULT, LINGUISTIC, Strength, defeats
from .grounding import ACT_AFFIRMATION, ACT_ASSERT, IRU_NONE, RISING, IRUClass, UtteranceEvent
from .propositions import LIVE, Literal, Proposition, Slotted, new_record
from .saturation import Item

if TYPE_CHECKING:  # pragma: no cover
    from .state import DiscourseState

EXPLICIT_REJECTION = "explicit_rejection"
CONTRADICTORY_ASSERTION = "contradictory_assertion"


class ConflictEvidence(NamedTuple):
    """Evidence that an addressee does not (or may not) accept some content.

    The clashing pair is inconsistent under closure, or the event is
    annotated as a rejection.
    """

    pair: tuple[Proposition, Proposition]
    kind: str  # EXPLICIT_REJECTION | CONTRADICTORY_ASSERTION
    against: frozenset[str] = frozenset()  # keys of the contested propositions

    strength = Strength.LINGUISTIC  # of every kind of conflict evidence

    def applies_to(self, props) -> bool:
        return any(p.key in self.against for p in props)


class AcceptanceBelief(Slotted):
    """An agent's acceptance of a proposition.  Its dependencies are the
    next turn that licensed it and, if live before that turn, the accepted
    entry."""

    _fields = __slots__ = ("belief_id", "proposition", "accepting_agent", "strength",
                           "dependencies", "status")

    def __init__(self, belief_id: str, proposition: Proposition, accepting_agent: str,
                 strength: Strength, dependencies: Optional[set[str]] = None,
                 status: str = LIVE):
        self.belief_id = belief_id
        self.proposition = proposition
        self.accepting_agent = accepting_agent
        self.strength = strength  # DEFAULT or LINGUISTIC
        self.dependencies = set() if dependencies is None else dependencies
        self.status = status


class SupportLink(Slotted):
    """A belief put forward as a reason to adopt a goal or intention."""

    _fields = __slots__ = ("link_id", "belief", "goal", "dependencies", "status")

    strength = Strength.LINGUISTIC  # of every support link

    def __init__(self, link_id: str, belief: Proposition, goal: Proposition,
                 dependencies: Optional[set[str]] = None, status: str = LIVE):
        self.link_id = link_id
        self.belief = belief
        self.goal = goal
        self.dependencies = set() if dependencies is None else dependencies
        self.status = status


class PendingAcceptance(NamedTuple):
    """An acceptance question left open (e.g. blocked by a rising check);
    re-evaluated at each subsequent turn by the would-be accepter."""

    source: str  # the utterance whose content awaits acceptance
    propositions: tuple[Proposition, ...]
    agent: str


class AcceptanceOutcome(NamedTuple):
    kind: str  # "accepted" | "blocked" | "rejected"
    proposition: Proposition
    agent: str
    trigger: str  # the turn that decided it
    strength: Optional[Strength] = None
    detail: str = ""

    ACCEPTED = "accepted"
    BLOCKED = "blocked"
    REJECTED = "rejected"


class RetractionReport(NamedTuple):
    defeated: tuple[str, ...]  # sorted: the target and every node that went with it


def detect_conflict(state: "DiscourseState", event: UtteranceEvent,
                    fixpoints: list[list[Item]]) -> Optional[ConflictEvidence]:
    """Does this event evidence non-acceptance of live content?

    Annotation first: a ``rejects`` link (to an earlier utterance, as
    admission checked) is explicit rejection regardless of content.
    Otherwise a trial (``Context.trial``): the event's propositions are
    asserted (linguistic) and saturated, by ``Context.assert_all``.  A clash
    is contradictory assertion evidence against the previously live half of
    each pair, and ``Context.rollback`` leaves the context as it was; so
    does any other exception, which is raised again.  A realized literal
    whose contrary is live raises in its own assertion, and the first such
    one does: none makes a later literal's contrary live or not live
    (admission refuses ``p`` with ``!p``, and an assertion defeats nothing).

    With no clash the trial is the event's assertion: ``Context.keep`` lets
    its writes stand, and its fixpoint goes onto ``fixpoints`` for the
    caller to commit while nothing writes the context in between.  The
    context then holds entries for the propositions whose redundancy
    verdict is ``not_redundant``; with no trial kept, it holds none.
    """
    rejects, realizes, uid = event.rejects, event.realizes, event.utterance_id
    if rejects is not None:
        props = state.events[rejects].realizes
        pair = (props[0], props[0]) if props else (Literal("nothing"), Literal("nothing"))
        return new_record(ConflictEvidence,
                          (pair, EXPLICIT_REJECTION, frozenset([p.key for p in props])))
    if not realizes:
        return None
    context, clashes = state.context, None
    mark = context.trial()
    try:
        fixpoint = context.assert_all(realizes, LINGUISTIC, uid)
    except ConflictDetected as raised:
        # the clashes only: the exception's traceback holds this frame
        clashes = raised.clashes
    except BaseException:
        context.rollback(mark)
        raise
    if clashes is None:
        context.keep(mark)
        fixpoints.append(fixpoint)
        return None
    context.rollback(mark)
    # the contested side is whatever half of a clashing pair is live in the
    # real (pre-event) context; the other half came with the event
    against = set()
    pair = clashes[0]
    for a, b in clashes:
        for live, came in ((a, b), (b, a)):
            if context.lookup(live) is not None:
                against.add(live.key)
                pair = (came, live)
    return new_record(ConflictEvidence, (pair, CONTRADICTORY_ASSERTION, frozenset(against)))


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
    agent, trigger = next_event.speaker, next_event.utterance_id
    if agent != prev_event.addressee:
        raise OrderingViolation(
            f"{trigger} does not answer {prev_event.utterance_id}")
    if next_event.interrupted:
        return []
    props = prev_event.realizes
    if not props:
        return []
    if next_event.act is ACT_AFFIRMATION:
        return [_accept(state, p, agent, LINGUISTIC, trigger) for p in props]
    if conflict is not None and conflict.applies_to(props):
        return _refused(AcceptanceOutcome.REJECTED, props, agent, trigger, conflict.kind)
    by_default = state.require_acceptance and prev_event.act is ACT_ASSERT
    if next_event.intonation is RISING:
        blocked = iru_class is not IRU_NONE
        if blocked or by_default:
            state.pending.append(PendingAcceptance(prev_event.utterance_id, props, agent))
        return _refused(AcceptanceOutcome.BLOCKED, props, agent, trigger,
                        "rising") if blocked else []
    if by_default:
        return [_accept(state, p, agent, DEFAULT, trigger) for p in props]
    return []


def reevaluate_pending(state: "DiscourseState", event: UtteranceEvent, *,
                       conflict: Optional[ConflictEvidence] = None) -> list[AcceptanceOutcome]:
    """Retry acceptance questions the current speaker left open earlier: a
    conflict rejects, a rising turn leaves the question open, and otherwise
    it is settled, by default acceptance where the dialogue's goals call for
    it, or dropped."""
    if event.interrupted:
        return []
    outcomes: list[AcceptanceOutcome] = []
    remaining: list[PendingAcceptance] = []
    trigger = event.utterance_id
    for item in state.pending:
        source, props, agent = item
        if agent != event.speaker:
            remaining.append(item)
        elif conflict is not None and conflict.applies_to(props):
            outcomes += _refused(AcceptanceOutcome.REJECTED, props, agent, trigger, conflict.kind)
        elif event.intonation is RISING:
            remaining.append(item)
        elif state.require_acceptance and state.events[source].act is ACT_ASSERT:
            outcomes += [_accept(state, p, agent, DEFAULT, trigger) for p in props]
    state.pending = remaining
    return outcomes


def _refused(kind: str, props, agent: str, trigger: str, detail: str) -> list[AcceptanceOutcome]:
    """A rejected or blocked outcome for each of ``props``."""
    return [new_record(AcceptanceOutcome, (kind, p, agent, trigger, None, detail)) for p in props]


def _accept(state: "DiscourseState", p: Proposition, agent: str, strength: Strength,
            trigger: str) -> AcceptanceOutcome:
    belief = state.find_acceptance(p, agent)
    deps = {trigger}
    entry = state.entry_before_event(p)
    if entry is not None:
        deps.add(entry.entry_id)
    if belief is None:
        belief = AcceptanceBelief(state.context.fresh_id("a", len(state.acceptance_beliefs) + 1),
                                  p, agent, strength, deps)
        state.add_acceptance(belief)
    else:
        if strength > belief.strength:
            belief.strength = strength
        state.context.depend(belief.belief_id, deps)
    return new_record(AcceptanceOutcome,
                      (AcceptanceOutcome.ACCEPTED, p, agent, trigger, belief.strength, ""))


def defeat(state: "DiscourseState", target_id: str, by: ConflictEvidence) -> RetractionReport:
    """Defeat a node of the dependency graph with strictly stronger contrary
    evidence, and report what went with it.

    The target may be a literal entry, an acceptance belief or a support
    link; ``Context.defeat_entry`` flips it and every live node whose
    dependencies reach it to defeated, and refuses a target that is not
    live and a rule entry.  Strengths are untouched; only status changes.
    The report is returned, not kept: the event's trace carries the
    defeated ids.
    """
    node = state.nodes.get(target_id)
    if node is None:
        raise UnknownProposition(f"no belief or entry {target_id!r}")
    if not defeats(by.strength, node.strength):
        raise DefeatRejected(
            f"{by.strength} evidence cannot defeat a {node.strength} belief")
    return new_record(RetractionReport, (tuple(state.context.defeat_entry(target_id)),))


def record_support(state: "DiscourseState", belief: Proposition,
                   goal: Proposition) -> SupportLink:
    """Link a belief to the goal it supports; idempotent per endpoint pair
    while its link is live: a defeated link is replaced, never handed back.

    Both endpoints must already be in the discourse state; every live
    acceptance belief for the goal gains the link as a dependency."""
    belief_entry = state.context.lookup(belief)
    goal_entry = state.context.lookup(goal)
    if belief_entry is None:
        raise UnknownProposition(f"support source {belief} not in state")
    if goal_entry is None:
        raise UnknownProposition(f"support target {goal} not in state")
    link = state.support_between.get((belief.key, goal.key))
    if link is not None and link.status == LIVE:
        return link
    link = SupportLink(
        link_id=state.context.fresh_id("s", len(state.support_between) + 1),
        belief=belief,
        goal=goal,
        dependencies={belief_entry.entry_id, goal_entry.entry_id},
    )
    state.context.add_node(link.link_id, link)
    state.support_between[(belief.key, goal.key)] = link
    for acc in state.live_acceptances_of({goal.key}):
        state.context.depend(acc.belief_id, (link.link_id,))
    return link
