"""Acceptance, conflict, defeat/retraction, and support-link behavior."""

import gc
import heapq
import itertools
import random
import sys
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from commonground import (AcceptanceBelief, AcceptanceOutcome, ActType, CommonGroundError,
                          ConflictDetected,
                          ConflictEvidence, ContextEntry, DefeatRejected, DialogueEngine,
                          DiscourseState, IRUClass, Intonation, OrderingViolation,
                          Strength, SupportLink, UnknownProposition, UtteranceEvent, defeat,
                          detect_conflict, evaluate_acceptance, parse, parse_proposition,
                          record_support, replay_transcript)
from commonground import Biconditional, Context, Literal, Rule, propositions, saturation
from commonground.acceptance import CONTRADICTORY_ASSERTION, EXPLICIT_REJECTION
from commonground.propositions import DEFEATED, LIVE
from conftest import DIALOGUES, DISPUTES, check_live_map, latest_live_literal, live_ids, \
    load_fixture
from enumerate_dialogues import KINDS, event as enumerated_event
from truthtable import literal_consequences

P = parse_proposition


def fresh_state(require_acceptance=True):
    return DiscourseState("test", ("a", "b"), require_acceptance)


def event(uid, turn, speaker="a", addressee="b", text="something new here", **kw):
    return UtteranceEvent(uid, turn, speaker, addressee, text, **kw)


def seeded(state, uid, prop, speaker="a", addressee="b", turn=0):
    e = event(uid, turn, speaker, addressee, realizes=(P(prop),))
    state.events[uid] = e
    state.context.assert_prop(P(prop), Strength.LINGUISTIC, uid)
    return e


def evidence(kind=CONTRADICTORY_ASSERTION, against=("p",)):
    return ConflictEvidence((P("q"), P(against[0])), kind,
                            frozenset(str(P(a)) for a in against))


# -- evaluate_acceptance ------------------------------------------------------

def test_affirmation_accepts_at_linguistic():
    state = fresh_state()
    prev = seeded(state, "u1", "take_the_money")
    nxt = event("u2", 1, speaker="b", addressee="a", text="right",
                act=ActType.AFFIRMATION)
    outcomes = evaluate_acceptance(state, prev, nxt)
    assert [o.kind for o in outcomes] == [AcceptanceOutcome.ACCEPTED]
    belief = state.find_acceptance(P("take_the_money"), "b")
    assert belief.strength is Strength.LINGUISTIC
    assert "u2" in belief.dependencies


def test_conflicting_next_turn_blocks_acceptance():
    state = fresh_state()
    prev = seeded(state, "u1", "p")
    nxt = event("u2", 1, speaker="b", addressee="a", realizes=(P("!p"),))
    conflict = evidence(against=("p",))
    outcomes = evaluate_acceptance(state, prev, nxt, conflict=conflict)
    assert [o.kind for o in outcomes] == [AcceptanceOutcome.REJECTED]
    assert state.find_acceptance(P("p"), "b") is None


def test_rising_redundant_check_blocks_acceptance():
    state = fresh_state()
    prev = seeded(state, "u1", "p")
    nxt = event("u2", 1, speaker="b", addressee="a", realizes=(P("p"),),
                intonation=Intonation.RISING)
    outcomes = evaluate_acceptance(state, prev, nxt, iru_class=IRUClass.PARAPHRASE)
    assert [o.kind for o in outcomes] == [AcceptanceOutcome.BLOCKED]
    assert state.find_acceptance(P("p"), "b") is None
    assert len(state.pending) == 1


def test_neutral_turn_in_goal_marked_dialogue_defaults():
    state = fresh_state()
    prev = seeded(state, "u1", "p")
    nxt = event("u2", 1, speaker="b", addressee="a", realizes=(P("q"),))
    outcomes = evaluate_acceptance(state, prev, nxt)
    assert [o.kind for o in outcomes] == [AcceptanceOutcome.ACCEPTED]
    belief = state.find_acceptance(P("p"), "b")
    assert belief.strength is Strength.DEFAULT
    assert "u2" in belief.dependencies  # triggering next event recorded


def test_no_default_without_goal_annotation():
    state = fresh_state(require_acceptance=False)
    prev = seeded(state, "u1", "p")
    nxt = event("u2", 1, speaker="b", addressee="a", realizes=(P("q"),))
    assert evaluate_acceptance(state, prev, nxt) == []
    assert state.acceptance_beliefs == {}


def test_out_of_order_pair_raises():
    state = fresh_state()
    prev = seeded(state, "u1", "p")
    bad = event("u2", 1, speaker="a", addressee="b")  # same speaker as prev
    with pytest.raises(OrderingViolation):
        evaluate_acceptance(state, prev, bad)


def test_affirmation_beats_silence():
    assert Strength.LINGUISTIC > Strength.DEFAULT


# -- detect_conflict ----------------------------------------------------------

def test_detect_conflict_from_rejection_annotation():
    state = fresh_state()
    seeded(state, "u38", "cert_15k")
    rejecting = event("u41", 1, speaker="b", addressee="a", text="GEE. NOT AT MY AGE",
                      act=ActType.OTHER, rejects="u38")
    conflict = detect_conflict(state, rejecting, [])
    assert conflict.kind == EXPLICIT_REJECTION
    assert conflict.applies_to((P("cert_15k"),))


def test_detect_conflict_through_closure():
    state = fresh_state()
    seeded(state, "u13", "ira_last_year")
    clashing = event("u14", 1, speaker="b", addressee="a",
                     realizes=(P("started_this_year"),
                               P("started_this_year -> !ira_last_year")))
    conflict = detect_conflict(state, clashing, [])
    assert conflict.kind == CONTRADICTORY_ASSERTION
    assert conflict.applies_to((P("ira_last_year"),))


def test_detect_conflict_none_for_consistent_assertion():
    state = fresh_state()
    seeded(state, "u1", "p")
    assert detect_conflict(state, event("u2", 1, speaker="b", addressee="a",
                                        realizes=(P("q"),)), []) is None


def test_detect_conflict_hands_over_the_trial_fixpoint():
    state, direct = fresh_state(), fresh_state()
    for s in (state, direct):
        seeded(s, "u1", "p -> q")
    consistent = event("u2", 1, speaker="b", addressee="a", realizes=(P("p"),))
    fixpoints = []
    assert detect_conflict(state, consistent, fixpoints) is None
    assert {item[2] for item in fixpoints[0]} == {"p", "q"}
    # the trial stands as the event's assertion
    direct.context.assert_prop(P("p"), Strength.LINGUISTIC, "u2")
    assert trial_view(state.context) == trial_view(direct.context)
    assert state.context._trials == 0
    assert fixpoints[0] == direct.context.saturate()


def test_detect_conflict_hands_over_nothing_on_a_clash():
    state = fresh_state()
    seeded(state, "u1", "p -> q")
    seeded(state, "u2", "!q")
    fixpoints = []
    clashing = event("u3", 1, speaker="b", addressee="a", realizes=(P("p"),))
    assert detect_conflict(state, clashing, fixpoints) is not None
    assert fixpoints == []


def trial_view(context):
    """Everything a conflict trial may write, by value."""
    return (list(context.entries), list(context.nodes), live_ids(context),
            context._counter,
            {eid: (e.sources, e.strength, frozenset(e.dependencies), e.status)
             for eid, e in context.entries.items()})


def saturation_view(context):
    return context.saturate()


def rollback_state():
    """A committed context with a weak entry the trial events re-assert."""
    state = fresh_state()
    state.context.assert_prop(P("p"), Strength.DEFAULT, "u0")
    state.context.assert_prop(P("p -> q"), Strength.LINGUISTIC, "u1")
    state.context.closure()
    state.context.assert_prop(P("r"), Strength.LINGUISTIC, "u2")  # changed since the commit
    return state


@pytest.mark.parametrize("realizes, clash", [
    (("p", "q -> s"), False),  # re-asserts p, inserts a rule
    (("p", "q -> !p"), True),  # the same, and the new rule clashes
], ids=["returns", "raises"])
def test_detect_conflict_trial_leaves_the_context_as_it_was(realizes, clash):
    """A trial that finds a clash leaves the context as it was; one that
    finds none leaves it as asserting the event's propositions does, with
    the fixpoint that saturating it would give.  No trail stays open."""
    state = rollback_state()
    props = tuple(P(t) for t in realizes)
    expected = rollback_state().context
    if not clash:
        for p in props:
            expected.assert_prop(p, Strength.LINGUISTIC, "u3")
    before, saturated = trial_view(expected), saturation_view(expected)
    fixpoints = []
    found = detect_conflict(state, event("u3", 3, speaker="b", addressee="a",
                                         realizes=props), fixpoints)
    assert (found is not None) == clash and len(fixpoints) == (not clash)
    assert trial_view(state.context) == before
    assert state.context._trials == 0
    assert state.context.lookup(P("p")).sources == (("u0",) if clash else ("u0", "u3"))
    assert saturation_view(state.context) == saturated
    assert clash or fixpoints[0] == saturated


def test_detect_conflict_trial_that_fails_leaves_the_context_as_it_was(monkeypatch):
    """An exception other than a clash ends the trial in a rollback too, and
    is raised again."""
    state = rollback_state()
    before, saturated = trial_view(state.context), saturation_view(state.context)

    def broken(*args):
        raise RuntimeError("broken saturation")

    monkeypatch.setattr(propositions, "settle", broken)
    with pytest.raises(RuntimeError, match="broken saturation"):
        detect_conflict(state, event("u3", 3, speaker="b", addressee="a",
                                     realizes=(P("p"), P("q -> s"))), [])
    monkeypatch.undo()
    assert trial_view(state.context) == before
    assert state.context._trials == 0
    assert saturation_view(state.context) == saturated


def graph_tables(context):
    """The implication graph's tables and every entry's label, by value."""
    graph = context._graph
    return [dict(t) for t in (graph.steps, graph.into, graph.forced)] + \
        [{eid: e.label for eid, e in context.entries.items()}]


def direct_contrary_state(setup):
    """A committed context holding ``setup``'s propositions, each said by u0."""
    state = fresh_state()
    for text in setup:
        state.context.assert_prop(P(text), Strength.LINGUISTIC, "u0")
    state.context.closure()
    return state


@pytest.mark.parametrize("setup, realizes, live, strength", [
    (("p",), ("!p",), "p", Strength.LINGUISTIC),
    (("p", "p -> q"), ("!q",), "q", Strength.INFERENCE),  # derived
    (("p",), ("r -> s", "!p"), "p", Strength.LINGUISTIC),  # a rule is linked first
], ids=["linguistic", "derived", "after-a-rule"])
def test_the_trial_finds_a_direct_contrary(setup, realizes, live, strength):
    """A realized literal whose contrary is live raises in the trial's own
    assertion: the evidence is that pair against the live half, and the
    rollback leaves the context, its graph, its labels and its changed keys
    as they were."""
    state = direct_contrary_state(setup)
    context = state.context
    came = P(realizes[-1])
    assert context.lookup(P(live)).strength is strength
    before, saturated = trial_view(context), saturation_view(context)
    tables, changed = graph_tables(context), set(context._changed)
    fixpoints = []
    conflict = detect_conflict(state, event("u1", 1, speaker="b", addressee="a",
                                            realizes=tuple(map(P, realizes))), fixpoints)
    assert conflict == ConflictEvidence((came, P(live)), CONTRADICTORY_ASSERTION,
                                        frozenset([live]))
    assert fixpoints == [] and context._trials == 0
    assert trial_view(context) == before and saturation_view(context) == saturated
    assert graph_tables(context) == tables and context._changed == changed


@pytest.mark.parametrize("setup, realizes", [
    (("q", "!r"), ("q -> r",)),  # clashes only once saturated
    (("p",), ("!p",)),  # a direct contrary
], ids=["saturated", "direct"])
def test_a_caught_clash_leaves_no_garbage(setup, realizes):
    """A clash the trial catches leaves nothing for the cyclic collector:
    ``detect_conflict`` keeps the clashes and drops the exception, whose
    traceback holds its frame."""
    state = direct_contrary_state(setup)
    clashing = event("u1", 1, speaker="b", addressee="a", realizes=tuple(map(P, realizes)))
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        assert detect_conflict(state, clashing, []) is not None
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_a_rule_derives_the_contrary_of_a_literal_no_rule_mentioned():
    """``!c`` was said while no rule mentioned it, so its entry holds no
    label; ``a & b -> c`` has no edge into ``!c``, and the trial still finds
    the derived ``c`` against the live ``!c``."""
    state = direct_contrary_state(("!c", "a", "b"))
    assert [e.label for e in state.context.entries.values()] == [None] * 3
    conflict = detect_conflict(state, event("u1", 1, speaker="b", addressee="a",
                                            realizes=(P("a & b -> c"),)), [])
    assert conflict == ConflictEvidence((P("c"), P("!c")), CONTRADICTORY_ASSERTION,
                                        frozenset(["!c"]))


def test_a_rule_over_an_unmentioned_literal_derives_its_consequent():
    """``k`` was said while no rule mentioned it; the rule ``k -> m`` said
    later reads ``k``'s label off its entry and derives ``m`` from both."""
    ctx = direct_contrary_state(("k",)).context
    assert ctx.lookup(P("k")).label is None
    ctx.assert_prop(P("k -> m"), Strength.LINGUISTIC, "u1")
    derived = ctx.commit(ctx.saturate())
    assert [(e.proposition, e.strength, e.dependencies) for e in derived] == \
        [(P("m"), Strength.INFERENCE, {"u0", "u1"})]


def test_literals_no_rule_mentions_are_never_searched(monkeypatch):
    """A dialogue of literals that no rule mentions, with two contradictions
    and a rejection, never runs the labelled search and leaves no entry a
    label: each literal's label is its entry's seed.  Defeating one of the
    literals then changes no key either."""
    calls, settle = [], propositions.settle

    def counted(*args):
        calls.append(args)
        return settle(*args)

    monkeypatch.setattr(propositions, "settle", counted)
    engine = DialogueEngine(fresh_state())
    dialogue = [dict(realizes=(P("p"),)), dict(realizes=(P("q"), P("!r"))),
                dict(realizes=(P("!p"),)), dict(act=ActType.AFFIRMATION, text="right"),
                dict(realizes=(P("s"),)), dict(act=ActType.OTHER, rejects="u4"),
                dict(realizes=(P("r"),))]
    conflicts = 0
    for i, kw in enumerate(dialogue):
        speaker, addressee = ("a", "b") if i % 2 == 0 else ("b", "a")
        conflicts += engine.process(event(f"u{i}", i, speaker, addressee, **kw)).conflict \
            is not None
    context = engine.state.context
    assert conflicts == 3
    assert {e.proposition.key for e in context.live_entries()} == {"p", "q", "!r", "s"}
    assert calls == [] and all(e.label is None for e in context.entries.values())
    assert context.clone()._changed == set()
    assert "u0" in context.defeat_entry("u0")
    assert context._changed == set()


def test_a_rolled_back_rule_leaves_its_literals_unmentioned():
    """A trial links ``p -> q``, which mentions the said ``p``, and clashes
    with ``!q``; after the rollback no rule mentions ``p``, so raising it
    changes no key and the next saturation is empty."""
    state = direct_contrary_state(("p", "!q"))
    context = state.context
    conflict = detect_conflict(state, event("u1", 1, speaker="b", addressee="a",
                                            realizes=(P("p -> q"),)), [])
    assert conflict is not None and context._trials == 0
    assert not any(map(context._graph.mentions, ("p", "!p", "q", "!q")))
    context.assert_prop(P("p"), Strength.PHYSICAL, "u2")
    assert context._changed == set()
    assert context.saturate() == []


def test_trial_undoes_a_defeat_and_restores_the_labels():
    ctx = rollback_state().context
    before, saturated, tables = trial_view(ctx), saturation_view(ctx), graph_tables(ctx)
    mark = ctx.trial()
    ctx.defeat_entry("u0")  # the weaker p
    ctx.assert_prop(P("!p"), Strength.LINGUISTIC, "u3")
    assert ctx.lookup(P("p")) is None
    ctx.assert_prop(P("!q"), Strength.LINGUISTIC, "u4")
    ctx.assert_prop(P("!q -> p"), Strength.LINGUISTIC, "u5")
    with pytest.raises(ConflictDetected):
        ctx.saturate()
    ctx.rollback(mark)
    assert trial_view(ctx) == before
    assert saturation_view(ctx) == saturated and graph_tables(ctx) == tables


def test_a_kept_inner_trial_is_undone_with_the_outer_one():
    ctx = rollback_state().context
    before, saturated = trial_view(ctx), saturation_view(ctx)
    outer = ctx.trial()
    inner = ctx.trial()
    ctx.defeat_entry("u0")  # the weaker p
    ctx.assert_prop(P("!p"), Strength.LINGUISTIC, "u3")
    ctx.assert_prop(P("q -> s"), Strength.LINGUISTIC, "u4")
    ctx.commit(ctx.saturate())
    ctx.keep(inner)
    assert ctx.lookup(P("p")) is None and ctx._trials == 1
    ctx.rollback(outer)
    assert trial_view(ctx) == before
    assert ctx._trials == 0
    assert saturation_view(ctx) == saturated


@pytest.mark.parametrize("rule", ["r -> s", "p & r -> s", "q <-> s"])
def test_a_rule_entry_is_never_defeated(rule):
    """A rule, once entered, stays in the implication graph: ``defeat_entry``
    refuses it, naming it, before it writes anything."""
    ctx = rollback_state().context
    ctx.assert_prop(P(rule), Strength.DEFAULT, "u3")
    before, changed, logged = trial_view(ctx), set(ctx._changed), len(ctx._trail)
    with pytest.raises(DefeatRejected, match="implication graph: u3$"):
        ctx.defeat_entry("u3")
    assert trial_view(ctx) == before
    assert ctx._changed == changed and len(ctx._trail) == logged


def test_a_node_is_defeated_once():
    """A second defeat of an entry, or of an acceptance belief, is refused,
    naming the node, before any write."""
    state = rollback_state()
    state.add_acceptance(AcceptanceBelief("a9", P("r"), "b", Strength.DEFAULT, {"u2"}))
    ctx = state.context
    assert "u0" in ctx.defeat_entry("u0")
    assert defeat(state, "a9", evidence(against=("r",))).defeated == ("a9",)
    before, changed, logged = trial_view(ctx), set(ctx._changed), len(ctx._trail)
    with pytest.raises(DefeatRejected, match="already defeated: u0$"):
        ctx.defeat_entry("u0")
    with pytest.raises(DefeatRejected, match="already defeated: a9$"):
        defeat(state, "a9", evidence(against=("r",)))
    assert trial_view(ctx) == before
    assert ctx._changed == changed and len(ctx._trail) == logged


trail_literals = st.builds(Literal, st.sampled_from("pqrs"), st.booleans())
trail_props = st.one_of(
    trail_literals,
    st.builds(lambda a, c: Rule((a,), c), trail_literals, trail_literals),
    st.builds(lambda ants, c: Rule(tuple(ants), c),
              st.lists(trail_literals, min_size=2, max_size=2, unique=True), trail_literals),
    st.builds(Biconditional, trail_literals, trail_literals),
)
#: a write to the context, or a nested trial of writes that is kept or rolled back
trail_steps = st.recursive(
    st.one_of(st.tuples(st.just("assert"), trail_props, st.sampled_from(list(Strength)[:4])),
              st.tuples(st.just("saturate")),
              st.tuples(st.just("defeat"), st.integers(0, 50))),
    lambda steps: st.tuples(st.just("trial"), st.booleans(), st.lists(steps, max_size=5)),
    max_leaves=8)


def apply_trail_step(ctx, step, sources):
    """Apply one drawn step.  A clashing assertion is settled as the defeat
    phase would: a strictly weaker contrary is defeated and the assertion
    made again, and otherwise the context stays as it was.  A clashing
    saturation is settled by defeating the latest live literal, if any, and
    the defeat of a rule or of a defeated entry is refused.  After the step,
    and after each step of a trial, the map of live entries is checked."""
    if step[0] == "assert":
        _, p, strength = step
        source = next(sources)
        try:
            ctx.assert_prop(p, strength, source)
        except ConflictDetected as clash:
            other = ctx.lookup(clash.clashes[0][1])
            if other.strength < strength:
                ctx.defeat_entry(other.entry_id)
                ctx.assert_prop(p, strength, source)
    elif step[0] == "saturate":
        try:
            fixpoint = ctx.saturate()
        except ConflictDetected:
            latest = latest_live_literal(ctx)
            if latest is not None:  # else rules alone force the clashing literals
                ctx.defeat_entry(latest)
        else:
            ctx.commit(fixpoint)
    elif step[0] == "defeat":
        ids = sorted(ctx.entries)  # defeated entries too
        if ids:
            target = ids[step[1] % len(ids)]
            entry = ctx.entries[target]
            if isinstance(entry.proposition, Literal) and entry.status == LIVE:
                ctx.defeat_entry(target)
            else:
                with pytest.raises(DefeatRejected):
                    ctx.defeat_entry(target)
    else:
        mark = ctx.trial()
        for inner in step[2]:
            apply_trail_step(ctx, inner, sources)
        (ctx.keep if step[1] else ctx.rollback)(mark)
    check_live_map(ctx)


def saturation_outcome(context):
    try:
        return context.saturate()
    except ConflictDetected as clash:
        return clash.clashes


#: before the trial p and p -> q derive q (d3); inside it p (u0) is
#: defeated, with q, which only a logged status write can restore
DEFEAT_IN_THE_TRIAL = ([("assert", Literal("p"), Strength.DEFAULT),
                        ("assert", Rule((Literal("p"),), Literal("q")), Strength.LINGUISTIC),
                        ("saturate",)],
                       [("defeat", 1), ("saturate",)])
#: the same before the trial; inside it p is raised to linguistic and
#: saturated, which changes the labels of p and q, as logged writes
LABEL_IN_THE_TRIAL = (DEFEAT_IN_THE_TRIAL[0],
                      [("assert", Literal("p"), Strength.LINGUISTIC), ("saturate",)])


@settings(max_examples=100, deadline=None)
@given(st.lists(trail_steps, max_size=6), st.lists(trail_steps, min_size=1, max_size=6))
@example(*DEFEAT_IN_THE_TRIAL)
@example(*LABEL_IN_THE_TRIAL)
def test_rollback_undoes_every_write_of_a_trial(before_steps, steps):
    """Writes before a trial, and then inside it assertions, saturations with
    their commits, defeats and nested trials, kept or rolled back: rolling
    the trial back restores the context, its graph and its labels, and
    closes every trial.  The examples defeat a literal, and change a label,
    inside the trial, which the drawn steps do only now and then.  The
    reverse-dependency index only grows, so it still names every dependency
    of every node."""
    ctx, sources = Context(), (f"u{n}" for n in range(10**6))
    for step in before_steps:
        apply_trail_step(ctx, step, sources)
    before, saturated = trial_view(ctx), saturation_outcome(ctx)
    tables, changed = graph_tables(ctx), set(ctx._changed)
    outer = ctx.trial()
    for step in steps:
        apply_trail_step(ctx, step, sources)
    ctx.rollback(outer)
    check_live_map(ctx)
    assert ctx._trials == 0
    assert trial_view(ctx) == before
    assert saturation_outcome(ctx) == saturated
    assert graph_tables(ctx) == tables and ctx._changed == changed
    for nid, node in ctx.nodes.items():
        assert all(nid in ctx._dependents.get(dep, ()) for dep in node.dependencies)


def test_a_clash_free_event_is_asserted_once(monkeypatch):
    """The conflict trial of an event with no clash is its assertion: a
    rule's steps join the graph in one ``Graph.link`` call, and nothing is
    rolled back."""
    calls = {"link": 0, "rollback": 0}

    def counted(name, method):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return method(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(saturation.Graph, "link", counted("link", saturation.Graph.link))
    monkeypatch.setattr(Context, "rollback", counted("rollback", Context.rollback))
    engine = DialogueEngine(fresh_state())
    dialogue = [("p",), ("p -> q",), ("q <-> r",), ("s", "!t"), ("r & s -> u",),
                ("u -> v",), ("w <-> !v",), ("x", "x -> y"), ("y & q -> z",), ("q",)]
    rule_events = 0
    for i, texts in enumerate(dialogue):
        speaker, addressee = ("a", "b") if i % 2 == 0 else ("b", "a")
        props = tuple(P(t) for t in texts)
        rules = sum(not isinstance(p, Literal) for p in props)
        before = dict(calls)
        trace = engine.process(event(f"u{i}", i, speaker, addressee, text=f"turn number {i}",
                                     realizes=props))
        assert trace.conflict is None and not trace.retractions
        assert calls["link"] - before["link"] == rules, texts
        assert calls["rollback"] == before["rollback"], texts
        rule_events += rules > 0
    assert rule_events == 7
    derived = {e.proposition.key for e in engine.state.context.live_entries() if e.derived}
    assert derived == {"r", "u", "v", "!w", "y", "z"}


def test_saturation_work_per_event_stays_flat(monkeypatch):
    """Labelled heap pushes per event do not grow with the dialogue: each
    event's saturation covers what the event changed, not the whole context."""
    pushes = []
    monkeypatch.setattr(saturation, "heapq", SimpleNamespace(
        heappush=lambda heap, item: (pushes.append(1), heapq.heappush(heap, item)),
        heappop=heapq.heappop))
    rng = random.Random(7)
    engine = DialogueEngine(fresh_state(require_acceptance=False))
    literals, per_event = [], []
    for i in range(300):
        speaker, addressee = ("a", "b") if i % 2 == 0 else ("b", "a")
        if i % 2 == 0 or not literals:
            literals.append(f"x{i}")
            prop = P(literals[-1])
        else:
            prop = P(f"{rng.choice(literals)} -> y{i}")
        before = len(pushes)
        engine.process(event(f"u{i}", i, speaker, addressee, text=f"turn number {i}",
                             realizes=(prop,)))
        per_event.append(len(pushes) - before)
    early, late = per_event[10:60], per_event[-50:]
    assert sum(late) / len(late) <= 2 * sum(early) / len(early)
    assert len(engine.state.context.entries) == 450  # every derivation was committed


def test_process_work_per_event_stays_flat():
    """All the Python each ``process`` call runs (every call, line and
    return under ``sys.settrace``) stays flat as a rule-heavy dialogue grows:
    fresh literals, biconditionals, two-antecedent rules, and entry defeats
    the dialogue survives.  A restatement of a derived literal that rejects
    the literal it rests on is contested, so the derived entry stays as it
    was; rejecting the restatement then defeats that entry, and the next
    saturation derives it again."""
    work = [0]

    def count(frame, event, arg):
        work[0] += 1
        return count

    rng = random.Random(11)
    engine = DialogueEngine(fresh_state(require_acceptance=False))
    said, per_event = [], []
    for i in range(300):
        speaker, addressee = ("a", "b") if i % 2 == 0 else ("b", "a")
        kw = {}
        step = i % 5
        if step == 0:
            said.append((f"u{i}", f"x{i}" if rng.random() < 0.5 else f"!x{i}"))
            kw["realizes"] = (P(said[-1][1]),)
        elif step == 1:
            kw["realizes"] = (P(f"{said[-1][1]} <-> z{i}"),)
        elif step == 2:
            other = rng.choice(said[:-1])[1] if len(said) > 1 else f"y{i}"
            kw["realizes"] = (P(f"{said[-1][1]} & {other} -> w{i}"),)
        elif step == 3:
            kw["realizes"], kw["rejects"] = (P(f"z{i - 2}"),), said[-1][0]
        else:
            kw["realizes"], kw["rejects"] = (P(f"v{i}"),), f"u{i - 1}"
        ev = event(f"u{i}", i, speaker, addressee, text=f"turn number {i}", **kw)
        before, outer = work[0], sys.gettrace()
        sys.settrace(count)
        try:
            engine.process(ev)
        finally:
            sys.settrace(outer)
        per_event.append(work[0] - before)
    entries = engine.state.context.entries
    entry_defeats = [line for t in engine.traces for line in t.retractions
                     if any(nid in entries for nid in line)]
    assert len(entry_defeats) == 60  # every rejected restatement defeated its derived entry
    assert all(engine.state.context.lookup(P(f"z{i}")) is not None for i in range(1, 300, 5))
    early, late = per_event[10:60], per_event[-50:]
    assert sum(late) / len(late) <= 2 * sum(early) / len(early)


def context_view(context):
    return {eid: (e.strength, frozenset(e.dependencies), e.status)
            for eid, e in context.entries.items()}


@pytest.mark.parametrize("path", DIALOGUES, ids=lambda path: path.stem)
def test_live_context_is_a_fixpoint_after_every_event(path):
    """Chaining the live context again after any completed event changes
    nothing: the engine committed the event's whole closure."""
    transcript = parse(path.read_text(encoding="utf-8"))
    engine = DialogueEngine.for_transcript(transcript)
    for ev in transcript.events:
        engine.process(ev)
        context = engine.state.context
        again = context.clone()
        again.closure()
        assert context_view(again) == context_view(context), ev.utterance_id


# -- defeat and retraction ------------------------------------------------------

def graph_state():
    """Root default acceptance with five dependents, two of them transitive."""
    state = fresh_state()
    seeded(state, "u1", "p")
    root = AcceptanceBelief("a0", P("p"), "b", Strength.DEFAULT, {"u1"})
    state.add_acceptance(root)
    deps = {
        "d1": {"a0"}, "d2": {"a0"}, "d3": {"a0"},
        "d4": {"d1"}, "d5": {"d2"},
    }
    for i, (nid, dd) in enumerate(deps.items()):
        entry = ContextEntry(entry_id=nid, proposition=P(f"x_{nid}"),
                             strength=Strength.INFERENCE, dependencies=set(dd),
                             order=100 + i)
        state.context.entries[nid] = entry
        state.context.add_node(nid, entry)
    return state, root


def test_defeat_cascades_through_reachable_set():
    state, root = graph_state()
    report = defeat(state, "a0", evidence())
    assert set(report.defeated) == {"a0", "d1", "d2", "d3", "d4", "d5"}
    assert all(state.nodes[n].status == DEFEATED for n in report.defeated)
    for node in state.nodes.values():
        if node.status == LIVE:
            assert not (set(node.dependencies) & set(report.defeated))


def test_defeat_single_node_without_dependents():
    state = fresh_state()
    seeded(state, "u1", "p")
    belief = AcceptanceBelief("a0", P("p"), "b", Strength.DEFAULT, {"u1"})
    state.add_acceptance(belief)
    report = defeat(state, "a0", evidence())
    assert report.defeated == ("a0",)


def test_defeat_requires_strictly_stronger_evidence():
    state = fresh_state()
    belief = AcceptanceBelief("a0", P("p"), "b", Strength.LINGUISTIC, set())
    state.add_acceptance(belief)
    with pytest.raises(DefeatRejected):
        defeat(state, "a0", evidence())  # linguistic vs linguistic


@pytest.mark.parametrize("target", list(Strength))
def test_defeat_strictness_over_all_strengths(target):
    state = fresh_state()
    belief = AcceptanceBelief("a0", P("p"), "b", target, set())
    state.add_acceptance(belief)
    if Strength.LINGUISTIC > target:
        defeat(state, "a0", evidence())
        assert belief.status == DEFEATED
    else:
        with pytest.raises(DefeatRejected):
            defeat(state, "a0", evidence())
        assert belief.status == LIVE


def test_defeat_unknown_target():
    with pytest.raises(UnknownProposition):
        defeat(fresh_state(), "nope", evidence())


@given(st.integers(0, 2**32 - 1))
def test_retraction_closure_on_random_graphs(seed):
    rng = random.Random(seed)
    state = fresh_state()
    seeded(state, "u1", "p")
    root = AcceptanceBelief("a0", P("p"), "b", Strength.DEFAULT, {"u1"})
    state.add_acceptance(root)
    ids = ["a0"]
    for i in range(rng.randint(0, 12)):
        nid = f"n{i}"
        dd = set(rng.sample(ids, rng.randint(0, min(3, len(ids)))))
        belief = AcceptanceBelief(nid, P(f"q{i}"), "b", Strength.INFERENCE, dd)
        state.add_acceptance(belief)
        ids.append(nid)
    defeat(state, "a0", evidence())
    for node in state.nodes.values():
        if node.status == LIVE:
            reach = set(node.dependencies)
            frontier = set(reach)
            while frontier:
                nxt = set()
                for d in frontier:
                    dep = state.nodes.get(d)
                    if dep is not None:
                        nxt |= set(dep.dependencies) - reach
                reach |= nxt
                frontier = nxt
            assert all(state.nodes[d].status == LIVE
                       for d in reach if d in state.nodes)


# -- support links --------------------------------------------------------------

def test_record_support_stores_link_and_extends_acceptance():
    state = fresh_state()
    seeded(state, "u7", "getting_1500_per_year")
    prev = seeded(state, "u8", "take_the_money")
    nxt = event("u9", 1, speaker="b", addressee="a", realizes=(P("z"),))
    evaluate_acceptance(state, prev, nxt)
    link = record_support(state, P("getting_1500_per_year"), P("take_the_money"))
    assert isinstance(link, SupportLink)
    belief = state.find_acceptance(P("take_the_money"), "b")
    assert link.link_id in belief.dependencies


def test_record_support_is_idempotent():
    state = fresh_state()
    seeded(state, "u1", "belief_prop")
    seeded(state, "u2", "goal_prop")
    first = record_support(state, P("belief_prop"), P("goal_prop"))
    second = record_support(state, P("belief_prop"), P("goal_prop"))
    assert first is second
    assert list(state.support_between.values()) == [first]


def test_record_support_replaces_a_defeated_link():
    """A defeated link is not handed back: a new one joins the endpoints,
    takes its place in the index, and the live acceptances of the goal
    depend on it."""
    state = fresh_state()
    seeded(state, "u1", "belief_prop")
    goal_event = seeded(state, "u2", "goal_prop")
    first = record_support(state, P("belief_prop"), P("goal_prop"))
    state.context.defeat_entry(first.link_id)
    [goal] = _accepted(state, goal_event, "u3")
    second = record_support(state, P("belief_prop"), P("goal_prop"))
    assert (first.status, second.status) == (DEFEATED, LIVE)
    assert second.link_id != first.link_id and state.nodes[second.link_id] is second
    assert state.support_between == {("belief_prop", "goal_prop"): second}
    assert second.dependencies == {"u1", "u2"}
    assert second.link_id in goal.dependencies
    assert record_support(state, P("belief_prop"), P("goal_prop")) is second


#: b puts the support that u5 swept away forward again, after u6 derived
#: penalty again
SUPPORT_AGAIN = load_fixture("disputes/dispute_support.dlg") + (
    "\nid: u7\nturn: 7\nspeaker: b\naddressee: a\ntext: the penalty is why\n"
    "act: other\nsupports: penalty => take_money\n")


def test_a_support_said_again_after_its_link_was_defeated_is_live():
    engine, _ = replay_transcript(parse(SUPPORT_AGAIN))
    state = engine.state
    assert state.nodes["s1"].status == DEFEATED
    link = state.support_between[("penalty", "take_money")]
    penalty, goal = state.context.lookup(P("penalty")), state.context.lookup(P("take_money"))
    assert link.status == LIVE and state.nodes[link.link_id] is link
    assert link.dependencies == {penalty.entry_id, goal.entry_id}
    for belief in state.live_acceptances_of({"take_money"}):
        assert link.link_id in belief.dependencies


def test_record_support_unknown_endpoint():
    state = fresh_state()
    seeded(state, "u1", "belief_prop")
    with pytest.raises(UnknownProposition):
        record_support(state, P("belief_prop"), P("missing_goal"))
    with pytest.raises(UnknownProposition):
        record_support(state, P("missing_belief"), P("belief_prop"))


# -- end-to-end acceptance flows -------------------------------------------------

def mini(require="true", *blocks):
    header = f"dialogue: mini\nparticipants: a, b\nrequire-acceptance: {require}\n"
    return header + "\n" + "\n\n".join(blocks) + "\n"


def test_blocked_acceptance_converts_to_default_later():
    text = mini(
        "true",
        "id: u0\nturn: 0\nspeaker: a\naddressee: b\ntext: the rate is five percent\nact: assert\nrealizes: rate_five",
        "id: u1\nturn: 1\nspeaker: b\naddressee: a\ntext: five percent?\nact: question\nintonation: rising\nrealizes: rate_five\nantecedents: u0",
        "id: u2\nturn: 2\nspeaker: a\naddressee: b\ntext: that's correct",
        "id: u3\nturn: 3\nspeaker: b\naddressee: a\ntext: then i will take it\nact: assert\nrealizes: will_take_it",
    )
    engine, traces = replay_transcript(parse(text))
    state = engine.state
    blocked = [a for t in traces for a in t.acceptances if a.kind == AcceptanceOutcome.BLOCKED]
    assert blocked and blocked[0].proposition == P("rate_five")
    belief = state.find_acceptance(P("rate_five"), "b")
    assert belief is not None and belief.strength is Strength.DEFAULT
    assert "u3" in belief.dependencies  # the trigger
    assert state.pending == []


def test_rising_reply_that_is_not_redundant_defers_default_acceptance():
    text = mini(
        "true",
        "id: u0\nturn: 0\nspeaker: a\naddressee: b\ntext: the rate is fixed\nact: assert\nrealizes: p",
        "id: u1\nturn: 1\nspeaker: b\naddressee: a\ntext: is it now?\nintonation: rising\nrealizes: q",
        "id: u2\nturn: 2\nspeaker: a\naddressee: b\ntext: and it will stay so\nact: assert\nrealizes: r",
        "id: u3\nturn: 3\nspeaker: b\naddressee: a\ntext: right\nact: other",
    )
    engine, traces = replay_transcript(parse(text))
    assert traces[1].iru_class is IRUClass.NONE
    assert traces[1].acceptances == ()
    assert [line for line in traces[3].render().splitlines() if line.startswith("acceptance")] == [
        "acceptance: p by b [default] (trigger u3)",
        "acceptance: r by b [default] (trigger u3)",
    ]
    assert engine.state.pending == []


def test_later_contradiction_defeats_default_acceptance():
    text = mini(
        "true",
        "id: u0\nturn: 0\nspeaker: a\naddressee: b\ntext: rates rose by two points\nact: assert\nrealizes: rates_rose",
        "id: u1\nturn: 1\nspeaker: b\naddressee: a\ntext: i see. my balance is fine\nact: assert\nrealizes: balance_fine",
        "id: u2\nturn: 2\nspeaker: a\naddressee: b\ntext: go on\nact: other",
        "id: u3\nturn: 3\nspeaker: b\naddressee: a\ntext: ACTUALLY THEY DID NOT RISE\nact: assert\nrealizes: !rates_rose",
    )
    engine, traces = replay_transcript(parse(text))
    state = engine.state
    belief = next(b for b in state.acceptance_beliefs.values()
                  if str(b.proposition) == "rates_rose" and b.accepting_agent == "b")
    assert belief.status == DEFEATED  # default acceptance fell with the conflict
    assert state.context.lookup(P("rates_rose")) is not None  # linguistic entry stands
    assert any(t.conflict is not None for t in traces)


def test_rejection_does_not_touch_linguistic_beliefs():
    state = fresh_state()
    seeded(state, "u1", "p")
    belief = AcceptanceBelief("a0", P("p"), "b", Strength.LINGUISTIC, set())
    state.add_acceptance(belief)
    conflict = evidence(kind=EXPLICIT_REJECTION, against=("p",))
    with pytest.raises(DefeatRejected):
        defeat(state, "a0", conflict)
    assert belief.status == LIVE


# -- one dependency graph, one id space -------------------------------------------

def utterance(uid, turn, realizes="", act="assert"):
    speaker, addressee = ("a", "b") if turn % 2 == 0 else ("b", "a")
    lines = [f"id: {uid}", f"turn: {turn}", f"speaker: {speaker}",
             f"addressee: {addressee}", f"text: turn {turn}", f"act: {act}"]
    if realizes:
        lines.append(f"realizes: {realizes}")
    return "\n".join(lines)


def replay_checked(require, *blocks):
    """Replay event by event, checking after each that the context is a fixpoint."""
    transcript = parse(mini(require, *blocks))
    engine = DialogueEngine.for_transcript(transcript)
    for ev in transcript.events:
        engine.process(ev)
        again = engine.state.context.clone()
        again.closure()
        assert context_view(again) == context_view(engine.state.context), ev.utterance_id
    return engine.state


def test_derived_entry_never_overwrites_an_utterance_entry():
    state = replay_checked("false", utterance("u0", 0, "p -> q"), utterance("d4", 1, "r"),
                           utterance("u2", 2, "p"))
    r = state.context.lookup(P("r"))
    assert (r.entry_id, r.proposition) == ("d4", P("r"))
    assert state.nodes["d4"] is r
    q = state.context.lookup(P("q"))
    assert q.entry_id not in {"u0", "d4", "u2"}
    assert state.nodes[q.entry_id] is q


def test_acceptance_belief_never_takes_an_entry_id():
    state = replay_checked("true", utterance("a1", 0, "p"), utterance("u1", 1, "q"))
    assert state.nodes["a1"] is state.context.lookup(P("p"))
    belief = state.find_acceptance(P("p"), "b")
    assert belief.belief_id != "a1"
    assert state.nodes[belief.belief_id] is belief
    assert belief.belief_id not in belief.dependencies


def test_acceptance_belief_never_takes_the_id_of_the_turn_that_triggers_it():
    # a1 accepts u0 by default before its own content is asserted
    state = replay_checked("true", utterance("u0", 0, "p -> q"), utterance("a1", 1, "p"))
    assert state.nodes["a1"] is state.context.lookup(P("p"))
    belief = state.find_acceptance(P("p -> q"), "b")
    assert belief.belief_id != "a1"
    assert state.nodes[belief.belief_id] is belief
    assert state.context.lookup(P("q")).dependencies == {"a1", "u0"}


def test_utterance_after_a_belief_of_its_id_gets_an_entry_of_its_own():
    # the belief a1 exists before the utterance a1 arrives; a1's content
    # derives s, so the conflict trial's fixpoint is committed on the live
    # context and must carry the ids the live context allocates
    state = replay_checked("false", utterance("u0", 0, "p"),
                           utterance("u1", 1, act="affirmation"),
                           utterance("u2", 2, "r -> s"), utterance("a1", 3, "r"))
    belief = state.find_acceptance(P("p"), "b")
    assert belief.belief_id == "a1" and state.nodes["a1"] is belief
    r = state.context.lookup(P("r"))
    assert r.entry_id == "a1#2" and state.nodes["a1#2"] is r
    s = state.context.lookup(P("s"))
    assert s.dependencies == {"a1#2", "u2"}
    assert state.context.asserted_roots(s) == {"a1", "u2"}


def test_acceptance_sees_the_context_as_it_was_before_the_event():
    # u2 accepts u1's x by default while its own kept trial holds x as u2#2;
    # the acceptance rests on the trigger alone, as x was not in the context
    state = replay_checked("true", utterance("u0", 0, "p"),
                           utterance("u1", 1, "x") + "\nrejects: u0",
                           utterance("u2", 2, "z; x"))
    belief = state.acceptance_beliefs["a1"]
    assert (belief.proposition, belief.accepting_agent) == (P("x"), "a")
    assert belief.dependencies == {"u2"}
    assert state.context.lookup(P("x")).entry_id == "u2#2"


def test_arriving_keys_end_with_their_event():
    # u0's kept trial holds p only until u0's acceptance step; u1 keeps no
    # trial, and its acceptance of p rests on the entry u0 left as well
    engine = DialogueEngine(fresh_state())
    engine.process(event("u0", 0, realizes=(P("p"),)))
    assert engine.state.arriving == frozenset()
    engine.process(event("u1", 1, "b", "a", text="go on"))
    assert engine.state.find_acceptance(P("p"), "b").dependencies == {"u1", "u0"}


#: u0 says p and p -> q, and u1 says p again, in a dialogue requiring acceptance
REPEATED_PREMISE = (utterance("u0", 0, "p; p -> q"), utterance("u1", 1, "p"))


def test_a_repeated_proposition_is_not_arriving():
    # p was in the context before u1 said it again, so b's default
    # acceptance of u0's p rests on u0's entry as well as on the trigger
    state = replay_checked("true", *REPEATED_PREMISE)
    assert state.find_acceptance(P("p"), "b").dependencies == {"u0", "u1"}


def test_a_clash_free_event_is_saturated_once(monkeypatch):
    """A kept conflict trial is the event's assertion: step 8 neither asserts
    nor saturates the event's content again."""
    saturations = []
    saturate = Context.saturate
    monkeypatch.setattr(Context, "saturate",
                        lambda self: saturations.append(1) or saturate(self))
    transcript = parse(mini("true", *REPEATED_PREMISE))
    engine = DialogueEngine.for_transcript(transcript)
    for ev in transcript.events:
        before = len(saturations)
        assert engine.process(ev).conflict is None
        assert len(saturations) - before == 1, ev.utterance_id


def test_license_evidence_sees_the_context_as_it_was_before_the_event():
    # the implicature p => q rests on p, which is gone when u1 realizes p and
    # q; p was not in the context before u1, and the refused upgrade runs
    # before u1's conflict trial, so none of u1's content is left behind
    engine = DialogueEngine(fresh_state(require_acceptance=False))
    engine.process(event("u0", 0, realizes=(P("p"),), implicates=(P("p"), P("q"))))
    engine.state.context.defeat_entry("u0")
    with pytest.raises(UnknownProposition, match="license premise p"):
        engine.process(event("u1", 1, "b", "a", realizes=(P("p"), P("q"))))
    context = engine.state.context
    assert context.lookup(P("p")) is None and context.lookup(P("q")) is None
    assert context._trials == 0


def test_derived_entry_never_takes_the_id_of_an_utterance():
    # d3 realizes nothing, so no node holds its id, but the acceptance it
    # triggers cites it as provenance: a derived entry named d3 would become
    # that acceptance's premise
    state = replay_checked("true", utterance("u0", 0, "p -> q"),
                           utterance("d3", 1, act="affirmation"), utterance("u2", 2, "p"))
    assert "d3" not in state.nodes
    belief = state.find_acceptance(P("p -> q"), "b")
    assert belief.belief_id == "a1" and "d3" in belief.dependencies
    q = state.context.lookup(P("q"))
    assert q.entry_id not in state.events
    defeat(state, q.entry_id, evidence(against=("q",)))
    assert q.status == DEFEATED
    assert belief.status == LIVE


def _accepted(state, prev, trigger):
    """Default acceptance of ``prev``'s content by its addressee."""
    nxt = event(trigger, prev.turn_index + 1, speaker=prev.addressee,
                addressee=prev.speaker, realizes=(P("unrelated"),))
    evaluate_acceptance(state, prev, nxt)
    return [state.find_acceptance(p, prev.addressee) for p in prev.realizes]


def test_defeat_of_a_weaker_contrary_cascades_through_the_graph():
    """A contrary asserted over a weaker derived entry clashes until the
    defeat phase's call defeats that entry; the defeat cascades through the
    acceptance beliefs and support links that rest on it."""
    state = fresh_state()
    seeded(state, "u1", "p -> q")
    seeded(state, "u2", "p")
    goal_event = seeded(state, "u3", "goal")
    state.context.closure()
    q = state.context.lookup(P("q"))
    assert q.derived and q.strength < Strength.LINGUISTIC
    [goal] = _accepted(state, goal_event, "u4")
    link = record_support(state, P("q"), P("goal"))
    prev = event("u5", 5, realizes=(P("q"),))
    [belief] = _accepted(state, prev, "u6")
    assert q.entry_id in belief.dependencies and link.link_id in goal.dependencies
    with pytest.raises(ConflictDetected):
        state.context.assert_prop(P("!q"), Strength.LINGUISTIC, "u7")
    assert q.status == LIVE
    against = ConflictEvidence((P("!q"), P("q")), CONTRADICTORY_ASSERTION, frozenset(["q"]))
    defeat(state, q.entry_id, against)
    state.context.assert_prop(P("!q"), Strength.LINGUISTIC, "u7")
    assert q.status == DEFEATED
    assert (belief.status, link.status, goal.status) == (DEFEATED, DEFEATED, DEFEATED)
    assert state.context.lookup(P("p")).status == LIVE


#: b's default acceptance of rates_rose falls to a rejection; b then affirms
#: rates_rose twice, the second time while the new belief is live
REACCEPTED = mini("true", utterance("u0", 0, "rates_rose"), utterance("u1", 1, "balance_fine"),
                  utterance("u2", 2, act="other"), utterance("u3", 3, act="other") + "\nrejects: u0",
                  utterance("u4", 4, "rates_rose"), utterance("u5", 5, act="affirmation"),
                  utterance("u6", 6, "rates_rose"), utterance("u7", 7, act="affirmation"))


@pytest.mark.parametrize("text", [pytest.param(path.read_text(encoding="utf-8"), id=path.stem)
                                  for path in DIALOGUES + DISPUTES]
                         + [pytest.param(REACCEPTED, id="reaccepted")])
def test_one_dependency_graph_after_every_event(text):
    """Entries, acceptance beliefs and support links are the nodes of one
    graph, each under its own id, and retraction left no live node resting
    on a defeated one.  Each proposition and agent have at most one live
    acceptance belief, and ``find_acceptance`` returns it."""
    transcript = parse(text)
    engine = DialogueEngine.for_transcript(transcript)
    state = engine.state
    for ev in transcript.events:
        engine.process(ev)
        links = {link.link_id: link for link in state.support_between.values()}
        kinds = (state.context.entries, state.acceptance_beliefs, links)
        for nodes in kinds:
            for nid, node in nodes.items():
                assert state.nodes[nid] is node, (ev.utterance_id, nid)
        assert len(state.nodes) == sum(len(nodes) for nodes in kinds), ev.utterance_id
        for nid, node in state.nodes.items():
            if node.status == LIVE:
                for dep in node.dependencies:
                    target = state.nodes.get(dep)
                    assert target is None or target.status == LIVE, (ev.utterance_id, nid, dep)
        live = {}
        for belief in state.acceptance_beliefs.values():
            if belief.status == LIVE:
                key = (belief.proposition.key, belief.accepting_agent)
                assert key not in live, (ev.utterance_id, key)
                live[key] = belief
        for belief in state.acceptance_beliefs.values():
            key = (belief.proposition.key, belief.accepting_agent)
            assert state.find_acceptance(belief.proposition, belief.accepting_agent) \
                is live.get(key), (ev.utterance_id, key)


def test_live_literals_are_the_consequences_of_the_live_assertions():
    """Soundness and completeness over every dialogue of three events of
    ``tests/enumerate_dialogues.py``'s space: after each completed event, the
    live literal entries are exactly the literals that the live asserted
    propositions entail (``tests/truthtable.py``).  Before that, the model's
    invariants (ROADMAP item 8): no entry's strength has fallen, every
    derived entry is at or below inference, no atom is live in both
    polarities, and no live node depends on a defeated one.  An event that
    raises ends its dialogue; every other one is checked."""
    checked = 0
    for kinds in itertools.product(KINDS, repeat=3):
        engine = DialogueEngine(DiscourseState("enumerated", ("a", "b"), True))
        strengths = {}  # entry id -> its strength after the last event
        for turn, kind in enumerate(kinds):
            try:
                engine.process(enumerated_event(kind, turn))
            except CommonGroundError:
                break
            where, context = (kinds, turn), engine.state.context
            entries, nodes = context.entries.values(), context.nodes
            assert all(e.strength >= strengths.get(e.entry_id, e.strength) for e in entries), \
                where
            strengths = {e.entry_id: e.strength for e in entries}
            assert all(e.strength <= Strength.INFERENCE for e in entries if e.derived), where
            live = context.live_entries()
            literals = {e.proposition for e in live if isinstance(e.proposition, Literal)}
            atoms = [p.atom for p in literals]
            assert len(atoms) == len(set(atoms)), where
            assert all(nodes[dep].status == LIVE for node in nodes.values() if node.status == LIVE
                       for dep in node.dependencies if dep in nodes), where
            asserted = [e.proposition for e in live if e.sources]
            assert literals == literal_consequences(asserted), where
            checked += 1
    assert checked == 8168


@pytest.mark.parametrize("path", DIALOGUES + DISPUTES, ids=lambda path: path.stem)
def test_retraction_index_names_every_dependent(path):
    """The context's reverse-dependency index, which ``retract`` walks,
    names every node under every id its dependencies hold, after every
    event: entries, acceptance beliefs and support links alike."""
    transcript = parse(path.read_text(encoding="utf-8"))
    engine = DialogueEngine.for_transcript(transcript)
    context = engine.state.context
    for ev in transcript.events:
        engine.process(ev)
        for nid, node in context.nodes.items():
            for dep in node.dependencies:
                assert nid in context._dependents.get(dep, ()), (ev.utterance_id, nid, dep)
