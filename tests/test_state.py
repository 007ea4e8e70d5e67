"""Acceptance, conflict, defeat/retraction, and support-link behavior."""

import heapq
import random
import sys
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from commonground import (AcceptanceBelief, AcceptanceOutcome, ActType, ConflictDetected,
                          ConflictEvidence, ContextEntry, DefeatRejected, DialogueEngine,
                          DiscourseState, IRUClass, Intonation, OrderingViolation, Participant,
                          Strength, SupportLink, UnknownProposition, UtteranceEvent, defeat,
                          detect_conflict, evaluate_acceptance, parse, parse_proposition,
                          record_support, replay_transcript)
from commonground import Biconditional, Context, Literal, Rule, propositions, saturation
from commonground.acceptance import CONTRADICTORY_ASSERTION, EXPLICIT_REJECTION
from commonground.propositions import DEFEATED, LIVE
from conftest import DIALOGUES, DISPUTES, load_fixture

P = parse_proposition


def fresh_state(require_acceptance=True):
    return DiscourseState("test", (Participant("a"), Participant("b")),
                          require_acceptance)


def event(uid, turn, speaker="a", addressee="b", text="something new here", **kw):
    return UtteranceEvent(uid, turn, speaker, addressee, text, **kw)


def seeded(state, uid, prop, speaker="a", addressee="b", turn=0):
    e = event(uid, turn, speaker, addressee, realizes=(P(prop),))
    state.events[uid] = e
    state.context.assert_prop(P(prop), Strength.LINGUISTIC, uid)
    return e


def evidence(kind=CONTRADICTORY_ASSERTION, against=("p",)):
    return ConflictEvidence("uX", (P("q"), P(against[0])), kind,
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
    conflict = detect_conflict(state, rejecting)
    assert conflict.kind == EXPLICIT_REJECTION
    assert conflict.applies_to((P("cert_15k"),))


def test_detect_conflict_through_closure():
    state = fresh_state()
    seeded(state, "u13", "ira_last_year")
    clashing = event("u14", 1, speaker="b", addressee="a",
                     realizes=(P("started_this_year"),
                               P("started_this_year -> !ira_last_year")))
    conflict = detect_conflict(state, clashing)
    assert conflict.kind == CONTRADICTORY_ASSERTION
    assert conflict.applies_to((P("ira_last_year"),))


def test_detect_conflict_none_for_consistent_assertion():
    state = fresh_state()
    seeded(state, "u1", "p")
    assert detect_conflict(state, event("u2", 1, speaker="b", addressee="a",
                                        realizes=(P("q"),))) is None


def test_detect_conflict_hands_over_the_trial_fixpoint():
    state, direct = fresh_state(), fresh_state()
    for s in (state, direct):
        seeded(s, "u1", "p -> q")
    consistent = event("u2", 1, speaker="b", addressee="a", realizes=(P("p"),))
    fixpoints = []
    assert detect_conflict(state, consistent, fixpoints) is None
    assert {key for key, _ in fixpoints[0].settled} == {"p", "q"}
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
    return (list(context.entries), list(context.nodes), dict(context._by_key),
            context._counter,
            {eid: (e.sources, e.strength, frozenset(e.dependencies), e.status)
             for eid, e in context.entries.items()})


def saturation_view(context):
    return context.saturate().settled


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
    assert clash or fixpoints[0].settled == saturated


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


def test_trial_undoes_a_defeat_and_restores_the_run():
    ctx = rollback_state().context
    before, saturated = trial_view(ctx), saturation_view(ctx)
    mark = ctx.trial()
    ctx.assert_prop(P("!p"), Strength.LINGUISTIC, "u3")  # defeats the weaker p
    assert ctx.lookup(P("p")) is None
    ctx.assert_prop(P("!q"), Strength.LINGUISTIC, "u4")
    ctx.assert_prop(P("!q -> p"), Strength.LINGUISTIC, "u5")
    with pytest.raises(ConflictDetected):
        ctx.saturate()
    ctx.rollback(mark)
    assert trial_view(ctx) == before
    assert saturation_view(ctx) == saturated


def test_a_kept_inner_trial_is_undone_with_the_outer_one():
    ctx = rollback_state().context
    before, saturated = trial_view(ctx), saturation_view(ctx)
    outer = ctx.trial()
    inner = ctx.trial()
    ctx.assert_prop(P("!p"), Strength.LINGUISTIC, "u3")  # defeats the weaker p
    ctx.assert_prop(P("q -> s"), Strength.LINGUISTIC, "u4")
    ctx.commit(ctx.saturate())
    ctx.keep(inner)
    assert ctx.lookup(P("p")) is None and ctx._trials == 1
    ctx.rollback(outer)
    assert trial_view(ctx) == before
    assert ctx._trials == 0
    assert saturation_view(ctx) == saturated


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
    """Apply one drawn step; a clashing assertion leaves the context as it
    was, and a clashing saturation is settled by defeating the latest live
    entry."""
    if step[0] == "assert":
        try:
            ctx.assert_prop(step[1], step[2], next(sources))
        except ConflictDetected:
            pass
    elif step[0] == "saturate":
        try:
            fixpoint = ctx.saturate()
        except ConflictDetected:
            ctx.defeat_entry(max(ctx.live_entries(), key=lambda e: e.order).entry_id)
        else:
            ctx.commit(fixpoint)
    elif step[0] == "defeat":
        ids = sorted(ctx.entries)  # defeated entries too
        if ids:
            ctx.defeat_entry(ids[step[1] % len(ids)])
    else:
        mark = ctx.trial()
        for inner in step[2]:
            apply_trail_step(ctx, inner, sources)
        (ctx.keep if step[1] else ctx.rollback)(mark)


def saturation_outcome(context):
    try:
        return context.saturate()
    except ConflictDetected as clash:
        return clash.clashes


@settings(max_examples=100, deadline=None)
@given(st.lists(trail_steps, max_size=6), st.lists(trail_steps, min_size=1, max_size=6))
def test_rollback_undoes_every_write_of_a_trial(before_steps, steps):
    """Writes before a trial, and then inside it assertions, saturations with
    their commits, defeats and nested trials, kept or rolled back: rolling
    the trial back restores the context, its graph and its run, and closes
    every trial.  The reverse-dependency index only grows, so it still names
    every dependency of every node."""
    ctx, sources = Context(), (f"u{n}" for n in range(10**6))
    for step in before_steps:
        apply_trail_step(ctx, step, sources)
    graph = ctx._graph
    tables = (graph.edges, graph.multis, graph.into, graph.forced, ctx._run)
    before, saturated = trial_view(ctx), saturation_outcome(ctx)
    copies, changed = [dict(t) for t in tables], set(ctx._changed)
    outer = ctx.trial()
    for step in steps:
        apply_trail_step(ctx, step, sources)
    ctx.rollback(outer)
    assert ctx._trials == 0
    assert trial_view(ctx) == before
    assert saturation_outcome(ctx) == saturated
    assert list(tables) == copies and ctx._changed == changed
    for nid, node in ctx.nodes.items():
        assert all(nid in ctx._dependents.get(dep, ()) for dep in node.dependencies)


def test_a_clash_free_event_is_asserted_once(monkeypatch):
    """The conflict trial of an event with no clash is its assertion: a
    rule's edges join the graph in one ``Graph.link`` call, and nothing is
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
        assert trace.conflicts == () and not trace.retractions
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
    retractions = [r for r in engine.state.retractions if r.target in engine.state.context.entries]
    assert len(retractions) == 60  # every rejected restatement defeated its derived entry
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
    state.acceptance_beliefs["a0"] = root
    state.context.add_node("a0", root)
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
    state.acceptance_beliefs["a0"] = belief
    state.context.add_node("a0", belief)
    report = defeat(state, "a0", evidence())
    assert report.defeated == ("a0",)


def test_defeat_requires_strictly_stronger_evidence():
    state = fresh_state()
    belief = AcceptanceBelief("a0", P("p"), "b", Strength.LINGUISTIC, set())
    state.context.add_node("a0", belief)
    with pytest.raises(DefeatRejected):
        defeat(state, "a0", evidence())  # linguistic vs linguistic


@pytest.mark.parametrize("target", list(Strength))
def test_defeat_strictness_over_all_strengths(target):
    state = fresh_state()
    belief = AcceptanceBelief("a0", P("p"), "b", target, set())
    state.context.add_node("a0", belief)
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
    state.acceptance_beliefs["a0"] = root
    state.context.add_node("a0", root)
    ids = ["a0"]
    for i in range(rng.randint(0, 12)):
        nid = f"n{i}"
        dd = set(rng.sample(ids, rng.randint(0, min(3, len(ids)))))
        belief = AcceptanceBelief(nid, P(f"q{i}"), "b", Strength.INFERENCE, dd)
        state.context.add_node(nid, belief)
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
    assert len(state.support_links) == 1


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
    blocked = [a for t in traces for a in t.acceptances if a[0] == "blocked"]
    assert blocked and blocked[0][1] == "rate_five"
    belief = state.find_acceptance(P("rate_five"), "b")
    assert belief is not None and belief.strength is Strength.DEFAULT
    assert belief.trigger_event == "u3" or "u3" in belief.dependencies
    assert state.pending == []


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
    assert any(t.conflicts for t in traces)


def test_rejection_does_not_touch_linguistic_beliefs():
    state = fresh_state()
    seeded(state, "u1", "p")
    belief = AcceptanceBelief("a0", P("p"), "b", Strength.LINGUISTIC, set())
    state.acceptance_beliefs["a0"] = belief
    state.context.add_node("a0", belief)
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


def test_license_evidence_sees_the_context_as_it_was_before_the_event():
    # the implicature p => q rests on p, which is gone when u1 realizes p and
    # q; u1's kept trial holds p, but p was not in the context before u1
    engine = DialogueEngine(fresh_state(require_acceptance=False))
    engine.process(event("u0", 0, realizes=(P("p"),), implicates=(P("p"), P("q"))))
    engine.state.context.defeat_entry("u0")
    with pytest.raises(UnknownProposition, match="license premise p"):
        engine.process(event("u1", 1, "b", "a", realizes=(P("p"), P("q"))))


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


def test_assert_prop_defeat_of_a_weaker_contrary_cascades_through_the_graph():
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
    state.context.assert_prop(P("!q"), Strength.LINGUISTIC, "u7")
    assert q.status == DEFEATED
    assert (belief.status, link.status, goal.status) == (DEFEATED, DEFEATED, DEFEATED)
    assert state.context.lookup(P("p")).status == LIVE


@pytest.mark.parametrize("path", DIALOGUES + DISPUTES, ids=lambda path: path.stem)
def test_one_dependency_graph_after_every_event(path):
    """Entries, acceptance beliefs and support links are the nodes of one
    graph, each under its own id, and retraction left no live node resting
    on a defeated one."""
    transcript = parse(path.read_text(encoding="utf-8"))
    engine = DialogueEngine.for_transcript(transcript)
    state = engine.state
    for ev in transcript.events:
        engine.process(ev)
        kinds = (state.context.entries, state.acceptance_beliefs, state.support_links)
        for nodes in kinds:
            for nid, node in nodes.items():
                assert state.nodes[nid] is node, (ev.utterance_id, nid)
        assert len(state.nodes) == sum(len(nodes) for nodes in kinds), ev.utterance_id
        for nid, node in state.nodes.items():
            if node.status == LIVE:
                for dep in node.dependencies:
                    target = state.nodes.get(dep)
                    assert target is None or target.status == LIVE, (ev.utterance_id, nid, dep)


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
