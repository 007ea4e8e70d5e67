import pickle
import random
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from commonground import (BadPropositionSyntax, Biconditional, ConflictDetected, Context,
                          DefeatRejected, Literal, RedundancyVerdict, Rule, Strength,
                          parse_proposition)
from commonground.propositions import DEFEATED, LIVE, retract
from commonground.saturation import Graph, settle
from conftest import check_live_map, latest_live_literal, live_ids
from saturation_reference import Derivation, reference_commit, reference_key, \
    reference_saturate
from truthtable import literal_consequences

L = Literal


def lit(s):
    return parse_proposition(s)


# -- surface syntax ---------------------------------------------------------

@pytest.mark.parametrize("text,expected", [
    ("foo", L("foo")),
    ("  !foo ", L("foo", False)),
    ("!!foo", L("foo")),
    ("a & b -> c", Rule((L("a"), L("b")), L("c"))),
    ("a->!c", Rule((L("a"),), L("c", False))),
    ("x <-> !y", Biconditional(L("x"), L("y", False))),
])
def test_parse_valid(text, expected):
    assert parse_proposition(text) == expected


@pytest.mark.parametrize("text", [
    "", "  ", "9lives", "a b", "a -> b -> c", "a <-> b -> c", "a & b", "a &  -> c",
    "-> c", "a <->", "a-b",
])
def test_parse_invalid(text):
    with pytest.raises(BadPropositionSyntax):
        parse_proposition(text)


@pytest.mark.parametrize("atom", ["1x", "p\n"])
def test_literal_rejects_bad_atom(atom):
    # "p\n" needs a full match: a "$" anchor also matches before a final newline
    with pytest.raises(BadPropositionSyntax):
        L(atom)


@pytest.mark.parametrize("atom", ["a", "x_1", "Rate9"])
@pytest.mark.parametrize("positive", [True, False])
def test_negated_equals_a_constructed_literal(atom, positive):
    negated = L(atom, positive).negated()
    assert negated == L(atom, not positive)
    assert hash(negated) == hash(L(atom, not positive))
    assert negated.negated() == L(atom, positive)
    assert {negated: 1}[L(atom, not positive)] == 1


def test_rule_invariants():
    with pytest.raises(BadPropositionSyntax):
        Rule((), L("c"))
    with pytest.raises(BadPropositionSyntax):
        Rule((L("a"), L("a")), L("c"))


@pytest.mark.parametrize("text", ["foo", "!foo", "a & b -> c", "a <-> !b"])
def test_format_round_trip(text):
    assert parse_proposition(str(parse_proposition(text))) == parse_proposition(text)


def test_prop_key_collapses_notational_variants():
    assert lit("a & b -> c").key == lit("b & a -> c").key
    assert lit("a <-> !b").key == lit("!b <-> a").key
    assert lit("a").key != lit("!a").key


key_literals = st.builds(L, st.from_regex(r"[A-Za-z][A-Za-z0-9_]{0,4}", fullmatch=True),
                         st.booleans())
key_props = st.one_of(
    key_literals,
    st.builds(Rule, st.lists(key_literals, min_size=1, max_size=4, unique=True).map(tuple),
              key_literals),
    st.builds(Biconditional, key_literals, key_literals),
)


@given(key_props, st.randoms(use_true_random=False))
def test_carried_key_is_the_canonical_key(p, rng):
    assert p.key == reference_key(p)
    if isinstance(p, Rule):
        ants = list(p.antecedents)
        rng.shuffle(ants)
        assert Rule(tuple(ants), p.consequent).key == p.key
    elif isinstance(p, Biconditional):
        assert Biconditional(p.right, p.left).key == p.key
    assert parse_proposition(str(p)).key == p.key
    literals = [p] if isinstance(p, L) else \
        [*p.antecedents, p.consequent] if isinstance(p, Rule) else [p.left, p.right]
    for l in literals:
        assert l.negated().negated() == l
        assert l.negated().key == reference_key(L(l.atom, not l.positive))
        assert l.contrary_key == l.negated().key == pickle.loads(pickle.dumps(l)).contrary_key
        assert repr(l) == f"Literal(atom={l.atom!r}, positive={l.positive})"
        assert hash(l) == hash((l.atom, l.positive))
    # equality and hashing are over the fields alone: never a plain tuple of
    # them, never a proposition of another type, and never key or steps
    names = ("atom", "positive") if isinstance(p, L) else \
        ("antecedents", "consequent") if isinstance(p, Rule) else ("left", "right")
    fields = tuple(getattr(p, name) for name in names)
    assert p != fields and fields != p
    l = literals[0]
    for q in (l, Rule((l,), l), Biconditional(l, l)):
        assert type(q) is type(p) or (q != p and p != q)
    assert type(p)(*fields) == p and hash(type(p)(*fields)) == hash(p) == hash(fields)
    if isinstance(p, Rule):
        assert (Rule(tuple(ants), p.consequent) == p) == (tuple(ants) == p.antecedents)
    elif isinstance(p, Biconditional):
        assert (Biconditional(p.right, p.left) == p) == (p.left == p.right)
    for name in (*names, "key", *(() if isinstance(p, L) else ("steps",))):
        value = getattr(p, name)  # outside the block: a name it lacks fails here
        with pytest.raises(AttributeError):
            setattr(p, name, value)


# -- assertion --------------------------------------------------------------

def test_assert_into_empty_context():
    ctx = Context()
    entry = ctx.assert_prop(lit("!eligible81"), Strength.LINGUISTIC, "u17")
    assert entry.strength is Strength.LINGUISTIC
    assert entry.sources == ("u17",)
    assert len(ctx.live_entries()) == 1


def test_reassert_never_lowers_strength():
    ctx = Context()
    ctx.assert_prop(lit("p"), Strength.LINGUISTIC, "u1")
    entry = ctx.assert_prop(lit("p"), Strength.DEFAULT, "u2")
    assert entry.strength is Strength.LINGUISTIC
    assert entry.sources == ("u1", "u2")


def test_assert_consistent_with_biconditional_chains():
    # oracle agreement: {buyIRA <-> !pension, pension} |= !buyIRA
    props = [lit("buyIRA <-> !pension"), lit("pension")]
    oracle = literal_consequences(props)
    assert L("buyIRA", False) in oracle

    ctx = Context()
    ctx.assert_prop(props[0], Strength.LINGUISTIC, "u15")
    ctx.assert_prop(props[1], Strength.LINGUISTIC, "u16")  # no ConflictDetected
    closure = ctx.closure()
    assert L("buyIRA", False) in closure


def test_direct_contradiction_at_equal_or_greater_strength():
    ctx = Context()
    ctx.assert_prop(lit("p"), Strength.LINGUISTIC, "u1")
    with pytest.raises(ConflictDetected):
        ctx.assert_prop(lit("!p"), Strength.LINGUISTIC, "u2")
    with pytest.raises(ConflictDetected):
        ctx.assert_prop(lit("!p"), Strength.DEFAULT, "u2")


def test_conflict_detected_pickles_with_its_clashes_and_its_text():
    """The clashes are the exception's one argument, so a pickle rebuilds
    it; its text is built when shown."""
    ctx = Context()
    ctx.assert_prop(lit("p"), Strength.LINGUISTIC, "u1")
    with pytest.raises(ConflictDetected) as raised:
        ctx.assert_prop(lit("!p"), Strength.LINGUISTIC, "u2")
    again = pickle.loads(pickle.dumps(raised.value))
    assert again.clashes == raised.value.clashes == ((L("p", False), L("p")),)
    assert str(again) == str(raised.value) == (
        "contradictory literals: ((Literal(atom='p', positive=False), "
        "Literal(atom='p', positive=True)),)")


def test_weaker_contrary_entry_raises_until_the_caller_defeats_it():
    """The store reports a clash with a strictly weaker contrary and never
    settles it: the assertion raises before any write, and goes through
    once the contrary is defeated."""
    ctx = Context()
    ctx.assert_prop(lit("rule_it_out"), Strength.LINGUISTIC, "u1")
    ctx.assert_prop(lit("q"), Strength.LINGUISTIC, "u2")
    ctx.closure()
    old = ctx.assert_prop(lit("weak"), Strength.DEFAULT, "api")
    before, live, counter = full_view(ctx), live_ids(ctx), ctx.counter
    changed, logged = set(ctx._changed), len(ctx._trail)
    with pytest.raises(ConflictDetected) as raised:
        ctx.assert_prop(lit("!weak"), Strength.LINGUISTIC, "u3")
    assert raised.value.clashes == ((L("weak", False), L("weak")),)
    assert full_view(ctx) == before and live_ids(ctx) == live and ctx.counter == counter
    assert ctx._changed == changed and len(ctx._trail) == logged
    assert old.status == LIVE and ctx.lookup(lit("weak")) is old
    assert ctx.defeat_entry(old.entry_id) == [old.entry_id]
    new = ctx.assert_prop(lit("!weak"), Strength.LINGUISTIC, "u3")
    assert old.status == DEFEATED
    assert new.status == LIVE
    assert ctx.lookup(lit("weak")) is None


# -- closure ----------------------------------------------------------------

def test_closure_of_empty_context_is_empty():
    assert Context().closure() == set()


def test_closure_modus_ponens_multi_antecedent():
    ctx = Context()
    ctx.assert_prop(lit("a & b -> c"), Strength.LINGUISTIC, "u1")
    ctx.assert_prop(lit("a"), Strength.LINGUISTIC, "u2")
    assert L("c") not in ctx.closure()
    ctx.assert_prop(lit("b"), Strength.DEFAULT, "u3")
    assert L("c") in ctx.closure()
    entry = ctx.lookup(lit("c"))
    assert entry.strength is Strength.DEFAULT  # weakest premise, already below cap
    assert ctx.asserted_roots(entry) == {"u1", "u2", "u3"}


def test_derived_strength_capped_at_inference():
    ctx = Context()
    ctx.assert_prop(lit("a -> b"), Strength.LINGUISTIC, "u1")
    ctx.assert_prop(lit("a"), Strength.LINGUISTIC, "u2")
    ctx.closure()
    assert ctx.lookup(lit("b")).strength is Strength.INFERENCE


def test_closure_contrapositive_single_antecedent():
    ctx = Context()
    ctx.assert_prop(lit("a -> b"), Strength.LINGUISTIC, "u1")
    ctx.assert_prop(lit("!b"), Strength.LINGUISTIC, "u2")
    assert L("a", False) in ctx.closure()


def test_closure_case_split_is_complete():
    # {a -> b, !a -> b} forces b with no facts asserted at all
    ctx = Context()
    ctx.assert_prop(lit("a -> b"), Strength.LINGUISTIC, "u1")
    ctx.assert_prop(lit("!a -> b"), Strength.LINGUISTIC, "u2")
    assert L("b") in ctx.closure()
    entry = ctx.lookup(lit("b"))
    assert entry.strength is Strength.INFERENCE
    assert ctx.asserted_roots(entry) == {"u1", "u2"}


def test_closure_conflict_lists_clashing_literals():
    ctx = Context()
    ctx.assert_prop(lit("a -> b"), Strength.LINGUISTIC, "u1")
    ctx.assert_prop(lit("c -> !b"), Strength.LINGUISTIC, "u2")
    ctx.assert_prop(lit("a"), Strength.LINGUISTIC, "u3")
    ctx.assert_prop(lit("c"), Strength.LINGUISTIC, "u4")
    with pytest.raises(ConflictDetected) as exc:
        ctx.closure()
    clashing = {str(l) for pair in exc.value.clashes for l in pair}
    assert {"b", "!b"} <= clashing


def test_closure_is_idempotent_and_monotone():
    ctx = Context()
    ctx.assert_prop(lit("a -> b"), Strength.LINGUISTIC, "u1")
    ctx.assert_prop(lit("a"), Strength.LINGUISTIC, "u2")
    first = ctx.closure()
    assert ctx.closure() == first
    before = {e.entry_id: e.strength for e in ctx.live_entries()}
    ctx.closure()
    for e in ctx.live_entries():
        assert e.strength >= before[e.entry_id]


def entry_view(ctx):
    return {eid: (e.proposition, e.strength, frozenset(e.dependencies), e.status, e.order)
            for eid, e in ctx.entries.items()}


def chained_context():
    ctx = Context()
    ctx.assert_prop(lit("a -> b"), Strength.LINGUISTIC, "u1")
    ctx.assert_prop(lit("b <-> c"), Strength.DEFAULT, "u2")
    ctx.assert_prop(lit("a"), Strength.LINGUISTIC, "u3")
    return ctx


def test_saturate_writes_nothing():
    ctx = chained_context()
    before = entry_view(ctx)
    settled = ctx.saturate()
    assert entry_view(ctx) == before
    assert {item[2] for item in settled} == {"a", "b", "c"}


def test_saturate_raises_and_leaves_context_unchanged():
    ctx = chained_context()
    ctx.assert_prop(lit("!c"), Strength.LINGUISTIC, "u4")
    before = entry_view(ctx)
    with pytest.raises(ConflictDetected):
        ctx.saturate()
    assert entry_view(ctx) == before


def test_commit_returns_inserted_entries_in_order():
    ctx = chained_context()
    ids_before = set(ctx.entries)
    inserted = ctx.commit(ctx.saturate())
    new = [e for eid, e in ctx.entries.items() if eid not in ids_before]
    assert inserted == new
    # commit order is by premise orders: c rests on u1, u2, u3; b on u1, u3
    assert [str(e.proposition) for e in inserted] == ["c", "b"]
    assert all(e.derived and e.status == LIVE for e in inserted)
    assert ctx.commit(ctx.saturate()) == []


def test_a_commit_that_settles_nothing_clears_the_changed_keys():
    """A rule over literals no entry holds changes its targets' keys, and its
    saturation settles none of them: the commit of that empty list still
    leaves no key changed."""
    ctx = Context()
    ctx.assert_prop(lit("a -> b"), Strength.LINGUISTIC, "u1")
    assert ctx._changed == {"b", "!a"}
    assert ctx.saturate() == []
    assert ctx.commit([]) == []
    assert ctx._changed == set()


def test_clone_fixpoint_commits_like_a_fresh_closure():
    ctx = chained_context()
    ctx.closure()
    fresh = ctx.clone()
    trial = ctx.clone()
    for c in (fresh, trial, ctx):
        c.assert_prop(lit("c -> d"), Strength.LINGUISTIC, "u4")
    fresh.closure()
    ctx.commit(trial.saturate())
    assert entry_view(ctx) == entry_view(fresh)


# -- randomized oracle comparison -------------------------------------------

ATOMS = "abcdefgh"


def random_context(rng, fragment_only):
    """A satisfiable random context (plus its proposition list)."""
    while True:
        n_atoms = rng.randint(2, 8)
        atoms = list(ATOMS[:n_atoms])
        props = []
        for _ in range(rng.randint(1, 12)):
            kind = rng.random()
            def rlit():
                return L(rng.choice(atoms), rng.random() < 0.5)
            if kind < 0.3:
                props.append(rlit())
            elif kind < 0.6:
                props.append(Rule((rlit(),), rlit()))
            elif kind < 0.8:
                props.append(Biconditional(rlit(), rlit()))
            elif fragment_only:
                props.append(Rule((rlit(),), rlit()))
            else:
                a, b = rng.sample(atoms, 2)
                props.append(Rule((L(a, rng.random() < 0.5), L(b, rng.random() < 0.5)),
                                  rlit()))
        try:
            props = [p for p in props
                     if not (isinstance(p, Rule) and len(set(p.antecedents)) != len(p.antecedents))
                     and not (isinstance(p, Biconditional) and p.left.atom == p.right.atom)]
        except BadPropositionSyntax:
            continue
        if not props or literal_consequences(props) is None:
            continue
        ctx = Context()
        ok = True
        for i, p in enumerate(props):
            try:
                ctx.assert_prop(p, rng.choice(list(Strength)[:4]), f"u{i}")
            except ConflictDetected:
                ok = False
                break
        if ok:
            return ctx, [e.proposition for e in ctx.live_entries()]


def test_closure_sound_against_truth_table_oracle():
    rng = random.Random(20260810)
    for _ in range(60):
        ctx, props = random_context(rng, fragment_only=False)
        derived = ctx.closure()
        oracle = literal_consequences(props)
        assert oracle is not None
        for literal in derived:
            assert literal in oracle, f"unsound: {literal} from {props}"


def test_closure_complete_on_declared_fragment():
    rng = random.Random(987654)
    for _ in range(60):
        ctx, props = random_context(rng, fragment_only=True)
        derived = ctx.closure()
        oracle = literal_consequences(props)
        assert derived == oracle, f"incomplete: {oracle - derived} from {props}"


def test_no_derived_entry_exceeds_inference():
    rng = random.Random(13579)
    for _ in range(40):
        ctx, _ = random_context(rng, fragment_only=False)
        ctx.closure()
        for e in ctx.live_entries():
            if e.derived:
                assert e.strength <= Strength.INFERENCE


def test_derived_dependencies_are_acyclic():
    rng = random.Random(2468)
    for _ in range(25):
        ctx, _ = random_context(rng, fragment_only=False)
        ctx.closure()
        # dependency edges of derived entries point at strictly earlier
        # entries, so the graph cannot contain a cycle
        for e in ctx.live_entries():
            if e.derived:
                for dep in e.dependencies:
                    assert ctx.entries[dep].order < e.order


# -- redundancy -------------------------------------------------------------

def test_is_redundant_said():
    ctx = Context()
    ctx.assert_prop(lit("p7"), Strength.LINGUISTIC, "u7")
    verdict = ctx.is_redundant(lit("p7"))
    assert verdict.kind == RedundancyVerdict.SAID
    assert verdict.antecedents == frozenset({"u7"})


def test_is_redundant_entailed_lists_premises():
    ctx = Context()
    ctx.assert_prop(lit("eligible81 <-> !pension"), Strength.LINGUISTIC, "u15")
    ctx.assert_prop(lit("pension"), Strength.LINGUISTIC, "u16")
    ctx.closure()
    verdict = ctx.is_redundant(lit("!eligible81"))
    assert verdict.kind == RedundancyVerdict.ENTAILED
    assert verdict.antecedents == frozenset({"u15", "u16"})


def test_is_redundant_fresh_atom():
    verdict = Context().is_redundant(lit("novel"))
    assert verdict.kind == RedundancyVerdict.NOT_REDUNDANT
    assert not verdict.redundant


def replaced_derivation():
    """A context where ``d3``, derived from ``a`` at default, is raised to
    inference by a derivation from ``b``: its dependencies become
    ``{u3, u4}``, and the index still lists ``d3`` under ``u1``."""
    ctx = Context()
    ctx.assert_prop(lit("a"), Strength.DEFAULT, "u1")
    ctx.assert_prop(lit("a -> d"), Strength.LINGUISTIC, "u2")
    ctx.closure()
    ctx.assert_prop(lit("b"), Strength.LINGUISTIC, "u3")
    ctx.assert_prop(lit("b -> d"), Strength.LINGUISTIC, "u4")
    ctx.closure()
    d = ctx.lookup(lit("d"))
    assert (d.entry_id, d.strength, d.dependencies) == ("d3", Strength.INFERENCE, {"u3", "u4"})
    assert "d3" in ctx._dependents["u1"]
    return ctx


def test_is_redundant_entailed_walks_through_a_derived_premise():
    """``d3``'s own seed outranks its derivation from ``b``, so ``e`` rests
    on ``d3``, and its roots are those of ``d3``'s derivation."""
    ctx = replaced_derivation()
    ctx.assert_prop(lit("d -> e"), Strength.LINGUISTIC, "u5")
    ctx.closure()
    assert ctx.lookup(lit("e")).dependencies == {"d3", "u5"}
    verdict = ctx.is_redundant(lit("e"))
    assert verdict.kind == RedundancyVerdict.ENTAILED
    assert verdict.antecedents == frozenset({"u3", "u4", "u5"})


def test_entailed_then_said_becomes_said():
    ctx = Context()
    ctx.assert_prop(lit("a -> b"), Strength.LINGUISTIC, "u1")
    ctx.assert_prop(lit("a"), Strength.LINGUISTIC, "u2")
    ctx.closure()
    assert ctx.is_redundant(lit("b")).kind == RedundancyVerdict.ENTAILED
    ctx.assert_prop(lit("b"), Strength.LINGUISTIC, "u3")
    verdict = ctx.is_redundant(lit("b"))
    assert verdict.kind == RedundancyVerdict.SAID
    assert verdict.antecedents == frozenset({"u3"})


# -- retraction helper ------------------------------------------------------

def test_retract_walks_reverse_dependencies():
    ctx = Context()
    root = ctx.assert_prop(lit("root"), Strength.DEFAULT, "u1")
    ctx.assert_prop(lit("root -> leaf"), Strength.LINGUISTIC, "u2")
    ctx.closure()
    defeated = ctx.defeat_entry(root.entry_id)
    assert set(defeated) == {"u1"} | {e.entry_id for e in ctx.entries.values()
                                      if e.derived}
    assert ctx.lookup(lit("leaf")) is None
    assert ctx.lookup(lit("root")) is None


def test_retract_ignores_replaced_dependencies():
    """A stale index entry leads nowhere: ``d3`` no longer rests on ``u1``."""
    ctx = replaced_derivation()
    assert ctx.defeat_entry("u1") == ["u1"]
    assert ctx.lookup(lit("d")).status == LIVE


def test_retract_unknown_target():
    with pytest.raises(KeyError):
        retract({}, "missing", {})


def retract_by_rescan(nodes, target_id):
    """Reference for ``retract``: rescan every node until nothing joins."""
    defeated = {target_id}
    changed = True
    while changed:
        changed = False
        for nid, node in nodes.items():
            if nid in defeated or getattr(node, "status", LIVE) != LIVE:
                continue
            if node.dependencies & defeated:
                defeated.add(nid)
                changed = True
    return sorted(defeated)


@st.composite
def dependency_graphs(draw):
    """Nodes n0..nk with random (possibly cyclic) dependencies, some on ids
    with no node, some nodes already defeated or without a status."""
    ids = [f"n{i}" for i in range(draw(st.integers(1, 12)))]
    pool = ids + ["u1", "u2"]
    nodes = {}
    for nid in ids:
        deps = set(draw(st.lists(st.sampled_from(pool), max_size=4)))
        kind = draw(st.sampled_from([LIVE, LIVE, LIVE, DEFEATED, None]))
        nodes[nid] = (SimpleNamespace(dependencies=deps) if kind is None
                      else SimpleNamespace(dependencies=deps, status=kind))
    return nodes, draw(st.sampled_from(ids))


def dependents_of(nodes):
    """The exact reverse-dependency index of ``nodes``."""
    index = {}
    for nid, node in nodes.items():
        for dep in node.dependencies:
            index.setdefault(dep, set()).add(nid)
    return index


def copy_graph(nodes):
    return {nid: SimpleNamespace(**vars(node)) for nid, node in nodes.items()}


@given(dependency_graphs())
def test_retract_matches_rescan_reference(graph):
    """``retract`` finds the reference's ids and leaves every node as it was:
    ``Context.defeat_entry`` writes the status."""
    nodes, target = graph
    before = copy_graph(nodes)
    assert retract(nodes, target, dependents_of(nodes)) == retract_by_rescan(before, target)
    assert {nid: vars(n) for nid, n in nodes.items()} == \
        {nid: vars(n) for nid, n in before.items()}


# -- incremental saturation against the from-scratch reference ----------------

def full_view(ctx):
    return {eid: (e.proposition, e.strength, frozenset(e.dependencies), e.status, e.order,
                  e.sources) for eid, e in ctx.entries.items()}


inc_literals = st.builds(L, st.sampled_from("abcdefgh"), st.sampled_from([True, True, False]))
inc_props = st.one_of(
    inc_literals,
    st.builds(lambda a, c: Rule((a,), c), inc_literals, inc_literals),
    st.lists(inc_literals, min_size=2, max_size=3, unique=True).flatmap(
        lambda ants: st.builds(lambda c: Rule(tuple(ants), c), inc_literals)),
    st.builds(Biconditional, inc_literals, inc_literals),
)
inc_strengths = st.sampled_from(list(Strength)[:4])
inc_assert = st.tuples(st.just("assert"), inc_props, inc_strengths)
inc_saturate = st.tuples(st.just("saturate"))
inc_event = st.tuples(st.just("event"), st.lists(inc_props, min_size=1, max_size=3))


def rule_before_antecedent(literals, strengths, raised):
    """Steps that assert a rule ``x -> b`` before ``x``, and ``h`` in between
    (at hypothesis first, and raised after a saturation, when ``raised``),
    then join ``b`` and ``h`` into ``t`` by two rules.  The two derivations
    of ``t`` tie whenever their weakest links do, and then the rank decides
    ``t``'s label; ``b``'s rule is older than its premise ``x``."""
    (x, b, h, t), s = literals, strengths
    steps = [("assert", Rule((x,), b), s[0]),
             ("assert", h, Strength.HYPOTHESIS if raised else s[1]),
             ("assert", x, s[2]), ("saturate",)]
    if raised:
        steps += [("assert", h, s[1]), ("saturate",)]
    return steps + [("assert", Rule((b,), t), s[3]), ("assert", Rule((h,), t), s[4]),
                    ("saturate",)]


inc_step = st.one_of(inc_assert, inc_assert, inc_assert, inc_assert,
                     inc_saturate, inc_saturate, inc_saturate, inc_event, inc_event,
                     st.tuples(st.just("defeat"), st.integers(0, 50))).map(lambda step: [step])
inc_join = st.builds(rule_before_antecedent,
                     st.lists(inc_literals, min_size=4, max_size=4, unique_by=lambda l: l.atom),
                     st.lists(inc_strengths, min_size=5, max_size=5), st.booleans())
#: groups of steps, weighted by repetition: one step (assert 4, saturate 3,
#: event 2, defeat 1) 5, and the steps of ``rule_before_antecedent`` 1
inc_steps = st.one_of(inc_step, inc_step, inc_step, inc_step, inc_step, inc_join)

#: a commit raises k; k's own seed then wins its label, which m inherits
RAISED_SEED_WINS = [("assert", lit("k"), Strength.HYPOTHESIS),
                    ("assert", lit("a"), Strength.LINGUISTIC),
                    ("assert", lit("a -> k"), Strength.LINGUISTIC), ("saturate",),
                    ("assert", lit("k -> m"), Strength.LINGUISTIC), ("saturate",)]
#: seeding only from the changed keys, with the stored labels as bounds,
#: settles c on a different derivation than a full saturation does: !e's
#: label gains strength, but d's label through it, capped at inference, has
#: a greater rank than d's stored one, so the bound keeps the stale label
BOUNDS_ARE_NOT_EXACT = [("assert", lit("!a"), Strength.HYPOTHESIS),
                        ("event", [lit("b"), lit("e -> !b"), lit("d <-> !e")]),
                        ("event", [lit("!e"), lit("!c -> !d")])]

#: raising a -> k links it again at linguistic beside its hypothesis copy,
#: which keeps the same id and order: k's label, derived from a and forced
#: through !a -> k, rises to inference, and m then inherits it
RAISED_RULE_JOINS_AGAIN = [("assert", lit("a"), Strength.LINGUISTIC),
                           ("assert", lit("!a -> k"), Strength.LINGUISTIC),
                           ("assert", lit("a -> k"), Strength.HYPOTHESIS), ("saturate",),
                           ("assert", lit("a -> k"), Strength.LINGUISTIC), ("saturate",),
                           ("assert", lit("k -> m"), Strength.LINGUISTIC), ("saturate",)]

#: with premise orders sorted earliest first, b's heap key would be smaller
#: than x's although b pops after x, since the rule x -> b is older than x;
#: raising h puts h and t in the area, and t's label comes through h only if
#: b merges in after h, so a merge by that heap key fails here; m then
#: inherits t's label
MERGED_IN_POP_ORDER = [("assert", lit("x -> b"), Strength.LINGUISTIC),
                       ("assert", lit("b -> t"), Strength.LINGUISTIC),
                       ("assert", lit("h -> t"), Strength.LINGUISTIC),
                       ("assert", lit("h"), Strength.HYPOTHESIS),
                       ("assert", lit("x"), Strength.INFERENCE), ("saturate",),
                       ("assert", lit("h"), Strength.INFERENCE), ("saturate",),
                       ("assert", lit("t -> m"), Strength.LINGUISTIC), ("saturate",)]

#: t's own seed wins its label over the derivation x, x -> b, b -> t, which
#: ties it; a rank with premise orders earliest first would pick the
#: derivation, and t's entry would keep its strength: the entries show that
#: wrong label only once a rule derives from t, the run shows it at once
LABEL_OF_AN_UNRAISED_ENTRY = [("assert", lit("x -> b"), Strength.LINGUISTIC),
                              ("assert", lit("t"), Strength.INFERENCE),
                              ("assert", lit("x"), Strength.INFERENCE),
                              ("assert", lit("b -> t"), Strength.LINGUISTIC), ("saturate",),
                              ("assert", lit("c -> t"), Strength.LINGUISTIC), ("saturate",)]

#: rules alone force !a ... !j, each through every rule, so all ten settle
#: with one strength and one rank: they commit, and take their ids, in the
#: search's pop order, which is key order, whatever order the area's set
#: holds them in (an order that matches key order by chance is 1 in 10!)
EQUAL_RANKS = [("assert", lit(f"{a} <-> {b}"), Strength.LINGUISTIC)
               for a, b in zip("abcdefghi", "bcdefghij")] \
    + [("assert", lit("a -> !j"), Strength.LINGUISTIC), ("saturate",)]

#: the chain !a -> c -> a forces a; the older rule !a & b -> a would give a
#: better-ranked route from !a to a, were a step with two antecedents walked
#: as an edge, and a's forced seed would rest on it alone
FORCED_BY_EDGES_ONLY = [("assert", lit("!a & b -> a"), Strength.LINGUISTIC),
                        ("assert", lit("!a -> c"), Strength.LINGUISTIC),
                        ("assert", lit("c -> a"), Strength.LINGUISTIC), ("saturate",)]

#: the walks from b and from !a both reach x, each through a step with two
#: antecedents, so linking a -> b proposes x; no chain !x -> ... -> x exists,
#: and x gets no forced seed
PROPOSED_NOT_FORCED = [("assert", lit("b & c -> x"), Strength.LINGUISTIC),
                       ("assert", lit("!a & d -> x"), Strength.LINGUISTIC),
                       ("assert", lit("a -> b"), Strength.LINGUISTIC), ("saturate",)]

#: rules alone force !b and d with one strength and one rank
EQUAL_RANKS_IN_AN_EVENT = [("assert", lit("b -> d"), Strength.HYPOTHESIS),
                           ("event", [lit("b <-> !d")])]


#: distinct insertion orders, each flagged as in a subset of them or not
flagged_orders = st.lists(st.tuples(st.integers(0, 10**6), st.booleans()), min_size=1,
                          unique_by=lambda t: t[0])


def test_equal_labels_commit_in_pop_order():
    """Ten literals settle in one saturation with one strength and one rank
    (``EQUAL_RANKS``).  ``saturate`` lists them, and ``commit`` inserts them
    and gives them ids, in the order the search pops them: by key."""
    ctx = Context()
    for n, (_, p, strength) in enumerate(EQUAL_RANKS[:-1]):
        ctx.assert_prop(p, strength, f"u{n}")
    settled = ctx.saturate()
    assert len({(item[0], item[1], item[4]) for item in settled}) == 1
    inserted = ctx.commit(settled)
    keys = ["!" + atom for atom in "abcdefghij"]
    assert [item[2] for item in settled] == keys
    assert [e.proposition.key for e in inserted] == keys
    assert [e.entry_id for e in inserted] == [f"d{n}" for n in range(11, 30, 2)]
    assert [e.order for e in inserted] == list(range(12, 31, 2))


@given(flagged_orders)
def test_rank_never_falls_along_a_derivation(flagged):
    """A rank only rises along a derivation, so ``settle`` can merge recorded
    items by heap key.  The rank ``settle`` builds for ``c`` from ``a & b ->
    c`` holds the orders of both premises and the rule's, split between the
    premises by flag: it is greater than each premise's, as the rule's order
    is new to both.  The step ``c -> e`` of the same rule adds no order, and
    ``e``'s rank equals ``c``'s."""
    orders = [o for o, _ in flagged]
    graph = Graph([])
    for rule in ("a & b -> c", "c -> e"):
        graph.link("r", Strength.LINGUISTIC, orders[0], lit(rule))
    items = [(-Strength.LINGUISTIC, tuple(sorted((o for o, kept in flagged[1:] if kept is flag),
                                                 reverse=True)), key, lit(key), frozenset())
             for key, flag in (("a", True), ("b", False))]
    settled = settle(graph, items, {"a", "b", "c", "e"})
    assert settled["c"][1] == tuple(sorted(orders, reverse=True))
    assert settled["c"][1] > settled["a"][1] and settled["c"][1] > settled["b"][1]
    assert settled["e"][1] == settled["c"][1] and settled["e"][4] == settled["c"][4] == {"r"}


def entry_labels(ctx):
    """The labels the live entries of ``ctx`` hold, by key, as the reference
    gives them."""
    return {e.proposition.key: (e.label[3], Derivation(Strength(-e.label[0]), e.label[4],
                                                       e.label[1]))
            for e in ctx.live_entries() if e.label is not None}


def check_labels(ctx, labels, committed):
    """Only the live entries of keys a rule mentions hold a label, each the
    label of ``labels``, the reference's at the last commit.  Right after a
    commit (``committed``), every other label of ``labels`` is the seed of
    its key's live entry, and no edge or rule leads into that key."""
    held = entry_labels(ctx)
    assert all(ctx._graph.mentions(key) for key in held)
    assert {key: labels.get(key) for key in held} == held
    if committed:
        for key, label in labels.items():
            if key not in held:
                entry = ctx.lookup_key(key)
                assert key not in ctx._graph.into
                assert label == (entry.proposition, Derivation(
                    entry.strength, frozenset([entry.entry_id]), (entry.order,)))


def clashes_of(run):
    try:
        return None, run()
    except ConflictDetected as clash:
        return clash.clashes, None


@settings(max_examples=300, deadline=None)
@given(st.lists(inc_steps, min_size=1, max_size=20).map(lambda groups: sum(groups, [])))
@example(RAISED_SEED_WINS)
@example(BOUNDS_ARE_NOT_EXACT)
@example(RAISED_RULE_JOINS_AGAIN)
@example(MERGED_IN_POP_ORDER)
@example(LABEL_OF_AN_UNRAISED_ENTRY)
@example(EQUAL_RANKS)
@example(EQUAL_RANKS_IN_AN_EVENT)
@example(FORCED_BY_EDGES_ONLY)
@example(PROPOSED_NOT_FORCED)
def test_incremental_saturation_matches_from_scratch_reference(steps):
    """Random assert / saturate+commit / trial event / defeat sequences give
    the same entries, inserted ids and clash lists as the from-scratch
    saturation, step by step.  After each commit and each rolled-back trial
    the labels the live entries hold are the reference's labels at the last
    commit, on the keys a rule mentions; after each commit every other
    reference label is its key's seed (``check_labels``).  A defeat of a
    literal goes through; that of a rule is refused."""
    ctx, ref = Context(), Context()
    labels = {}  # key -> (literal, derivation) the reference settled at the last commit

    def recorded(fixpoint):
        labels.clear()
        labels.update(fixpoint[0])
        return fixpoint

    for n, step in enumerate(steps):
        source = f"u{n}"
        if step[0] == "assert":
            _, p, strength = step
            got = clashes_of(lambda: ctx.assert_prop(p, strength, source).entry_id)
            assert got == clashes_of(lambda: ref.assert_prop(p, strength, source).entry_id)
            other = None if got[0] is None else ctx.lookup(got[0][0][1])
            if other is not None and other.strength < strength:
                # settled as the defeat phase would: the weaker contrary goes
                assert ctx.defeat_entry(other.entry_id) == ref.defeat_entry(other.entry_id)
                assert ctx.assert_prop(p, strength, source).entry_id == \
                    ref.assert_prop(p, strength, source).entry_id
        elif step[0] == "saturate":
            got = clashes_of(lambda: [e.entry_id for e in ctx.commit(ctx.saturate())])
            want = clashes_of(lambda: [e.entry_id for e in
                                       reference_commit(ref, recorded(reference_saturate(ref)))])
            assert got == want
            if got[0] is None:
                check_labels(ctx, labels, committed=True)
            else:
                # settle the clash so later steps work on a consistent context,
                # unless rules alone force the clashing literals
                latest = latest_live_literal(ctx)
                if latest is not None:
                    assert ctx.defeat_entry(latest) == ref.defeat_entry(latest)
        elif step[0] == "event":
            # the engine's flow: a trial that is rolled back on a clash and
            # otherwise stands as the assertion, then the commit of its fixpoint
            props = step[1]

            def trial_live():
                mark = ctx.trial()
                try:
                    for p in props:
                        ctx.assert_prop(p, Strength.LINGUISTIC, source)
                    fixpoint = ctx.saturate()
                except BaseException:
                    ctx.rollback(mark)
                    raise
                ctx.keep(mark)
                return fixpoint

            def trial_clone():
                scratch = ref.clone()
                check_live_map(scratch)
                for p in props:
                    scratch.assert_prop(p, Strength.LINGUISTIC, source)
                return reference_saturate(scratch)

            (clash, fixpoint), (ref_clash, ref_fixpoint) = \
                clashes_of(trial_live), clashes_of(trial_clone)
            assert clash == ref_clash
            assert ctx._trials == 0
            if fixpoint is not None:
                for p in props:
                    ref.assert_prop(p, Strength.LINGUISTIC, source)
                assert full_view(ctx) == full_view(ref)
                assert [e.entry_id for e in ctx.commit(fixpoint)] == \
                    [e.entry_id for e in reference_commit(ref, recorded(ref_fixpoint))]
            check_labels(ctx, labels, committed=fixpoint is not None)
        else:
            live = sorted(e.entry_id for e in ctx.live_entries())
            if live:
                target = live[step[1] % len(live)]
                if isinstance(ctx.entries[target].proposition, Literal):
                    assert ctx.defeat_entry(target) == ref.defeat_entry(target)
                else:
                    with pytest.raises(DefeatRejected):
                        ctx.defeat_entry(target)
        assert full_view(ctx) == full_view(ref)
        assert live_ids(ctx) == live_ids(ref) and ctx.counter == ref.counter
        check_live_map(ctx)
        check_live_map(ref)
