import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from commonground import (ActType, DialogueEngine, DiscourseState, DuplicateUtterance,
                          IRUClass, LicenseLink, Participant, Strength, UnknownProposition,
                          UtteranceEvent, apply_any_next_upgrade, apply_iru_upgrade,
                          classify_iru, min_strength, open_record, parse,
                          parse_proposition, record_license_evidence,
                          replay_transcript, understanding_strength)
from commonground.errors import DanglingAntecedent
from commonground import grounding
from commonground.grounding import (ASSUMPTION_ORDER, ATTEND, BASE_ASSUMPTIONS, COPRESENT, HEAR,
                                    LICENSE, REALIZE, UPGRADE_TABLE, AssumptionRecord, Intonation,
                                    normalize_tokens, tokens_match_repeat)
from commonground.propositions import Context
from commonground.trace import RecordSnapshot, TraceRecord, snapshot_record
from conftest import DIALOGUES, DISPUTES, load_fixture

PRODUCIBLE = [Strength.HYPOTHESIS, Strength.DEFAULT, Strength.INFERENCE,
              Strength.LINGUISTIC]

LIVE_CLASSES = [c for c in IRUClass if c is not IRUClass.NONE]


def fresh_state(require_acceptance=False):
    return DiscourseState("test", (Participant("a"), Participant("b")),
                          require_acceptance)


def event(uid, turn, speaker="a", addressee="b", text="hello there", **kw):
    return UtteranceEvent(uid, turn, speaker, addressee, text, **kw)


def random_record(rng, with_license=None) -> AssumptionRecord:
    names = list(BASE_ASSUMPTIONS)
    if with_license is None:
        with_license = rng.random() < 0.5
    if with_license:
        names.append(LICENSE)
    return AssumptionRecord(
        utterance_id="uX", speaker="a", addressee="b",
        strengths={n: rng.choice(PRODUCIBLE) for n in names})


# -- token normalization ----------------------------------------------------

def test_normalize_tokens():
    assert normalize_tokens("IT DOES.") == ("it", "does")
    assert normalize_tokens("  that's  CORRECT! ") == ("that's", "correct")
    assert normalize_tokens("$125.45 per month") == ("125", "45", "per", "month")


def test_tokens_match_repeat_contiguous_either_direction():
    assert tokens_match_repeat(("it", "does"), ("yes", "it", "does"))
    assert tokens_match_repeat(("yes", "it", "does"), ("it", "does"))
    assert not tokens_match_repeat(("it", "does"), ("it", "surely", "does"))
    assert not tokens_match_repeat((), ("a",))


# -- open_record ------------------------------------------------------------

def test_open_record_starts_all_hypothesis():
    state = fresh_state()
    record = open_record(state, event("u7", 0))
    assert record.strengths == {name: Strength.HYPOTHESIS for name in BASE_ASSUMPTIONS}


def test_open_record_with_implicature_adds_license_slot():
    state = fresh_state()
    e = event("u17", 0, implicates=(parse_proposition("p"), parse_proposition("q")))
    record = open_record(state, e)
    assert record.strengths[LICENSE] is Strength.HYPOTHESIS


def test_process_rejects_duplicate_utterance():
    engine = DialogueEngine(fresh_state())
    engine.process(event("u7", 0))
    with pytest.raises(DuplicateUtterance):
        engine.process(event("u7", 1, speaker="b", addressee="a"))


# -- upgrade table ----------------------------------------------------------

def test_repeat_on_fresh_record():
    state = fresh_state()
    record = open_record(state, event("u7", 0))
    apply_iru_upgrade(record, IRUClass.REPEAT)
    assert record.strengths == {
        COPRESENT: Strength.HYPOTHESIS,
        ATTEND: Strength.LINGUISTIC,
        HEAR: Strength.LINGUISTIC,
        REALIZE: Strength.HYPOTHESIS,
    }


def test_prompt_upgrades_attention_only():
    state = fresh_state()
    record = open_record(state, event("u1", 0))
    apply_iru_upgrade(record, IRUClass.PROMPT)
    changed = [n for n, s in record.strengths.items() if s != Strength.HYPOTHESIS]
    assert changed == [ATTEND]


def test_paraphrase_upgrades_three_assumptions():
    state = fresh_state()
    record = open_record(state, event("u20", 0))
    apply_iru_upgrade(record, IRUClass.PARAPHRASE)
    for name in (ATTEND, HEAR, REALIZE):
        assert record.strengths[name] is Strength.LINGUISTIC
    assert record.strengths[COPRESENT] is Strength.HYPOTHESIS


def test_inference_classes_add_missing_license_slot():
    state = fresh_state()
    record = open_record(state, event("u16", 0))
    assert LICENSE not in record.strengths
    apply_iru_upgrade(record, IRUClass.EXPLICIT_INFERENCE)
    assert record.strengths[LICENSE] is Strength.LINGUISTIC


@pytest.mark.parametrize("cls", LIVE_CLASSES)
def test_upgrade_table_exactness(cls):
    rng = random.Random(hash(cls.value) & 0xFFFF)
    for _ in range(100):
        record = random_record(rng, with_license=True)
        before = dict(record.strengths)
        apply_iru_upgrade(record, cls)
        for name in record.strengths:
            if name in UPGRADE_TABLE[cls]:
                assert record.strengths[name] == max(before[name], Strength.LINGUISTIC)
            else:
                assert record.strengths[name] == before[name]


def test_upgrade_rejects_none_class():
    state = fresh_state()
    record = open_record(state, event("u1", 0))
    with pytest.raises(ValueError):
        apply_iru_upgrade(record, IRUClass.NONE)


# -- any-next-utterance row ---------------------------------------------------

def test_any_next_on_fresh_record():
    state = fresh_state()
    record = open_record(state, event("u7", 0))
    apply_any_next_upgrade(record)
    assert record.strengths == {
        COPRESENT: Strength.LINGUISTIC,
        ATTEND: Strength.DEFAULT,
        HEAR: Strength.DEFAULT,
        REALIZE: Strength.DEFAULT,
    }


def test_any_next_after_repeat_keeps_linguistic_and_fills_default():
    state = fresh_state()
    record = open_record(state, event("u7", 0))
    apply_iru_upgrade(record, IRUClass.REPEAT)
    apply_any_next_upgrade(record)
    assert record.strengths[ATTEND] is Strength.LINGUISTIC
    assert record.strengths[HEAR] is Strength.LINGUISTIC
    assert record.strengths[REALIZE] is Strength.DEFAULT
    assert record.strengths[COPRESENT] is Strength.LINGUISTIC


def test_any_next_leaves_interrupted_record_alone():
    state = fresh_state()
    record = open_record(state, event("u7", 0, interrupted=True))
    apply_any_next_upgrade(record)
    assert set(record.strengths.values()) == {Strength.HYPOTHESIS}


# -- upgrades through the engine ------------------------------------------------

def dialogue(require, *turns):
    """A two-party dialogue of ``(speaker, extra field lines)`` turns, ids u0, u1, ..."""
    blocks = [f"id: u{i}\nturn: {i}\nspeaker: {speaker}\n"
              f"addressee: {'b' if speaker == 'a' else 'a'}\ntext: turn {i}"
              + "".join(f"\n{line}" for line in extra)
              for i, (speaker, *extra) in enumerate(turns)]
    return (f"dialogue: d\nparticipants: a, b\nrequire-acceptance: {require}\n\n"
            + "\n\n".join(blocks) + "\n")


def records_of(trace):
    return {snap.utterance_id: dict(snap.strengths) for snap in trace.records}


@pytest.mark.parametrize("before", [2, 4])
def test_prompt_without_antecedents_upgrades_the_latest_record_addressed_to_the_prompter(before):
    turns = [("a" if i % 2 == 0 else "b", f"realizes: p{i}") for i in range(before)]
    engine, traces = replay_transcript(parse(dialogue("false", *turns, ("a", "act: prompt"))))
    prompt, latest = traces[-1], f"u{before - 1}"
    assert prompt.iru_class == "prompt" and not prompt.antecedents
    assert records_of(prompt) == {latest: {
        COPRESENT: Strength.LINGUISTIC, ATTEND: Strength.LINGUISTIC,
        HEAR: Strength.DEFAULT, REALIZE: Strength.DEFAULT}}
    assert [uid for uid, r in engine.state.records.items()
            if r.strengths[ATTEND] is Strength.LINGUISTIC] == [latest]


def test_interrupted_utterance_neither_upgrades_nor_is_upgraded():
    engine, traces = replay_transcript(parse(dialogue(
        "true", ("a", "realizes: p"), ("b", "interrupted: true"), ("b",), ("a",), ("b",))))
    interrupted = traces[1]
    assert not interrupted.records and not interrupted.acceptances
    # b's next uninterrupted turn gives u0 its any-next upgrade
    assert set(records_of(traces[2])) == {"u0"}
    # a's turn upgrades u2's record, never the interrupted u1's
    assert set(records_of(traces[3])) == {"u2"}
    assert set(engine.state.records["u1"].strengths.values()) == {Strength.HYPOTHESIS}
    assert engine.state.records["u2"].strengths[COPRESENT] is Strength.LINGUISTIC


# -- understanding strength ---------------------------------------------------

def test_understanding_examples():
    state = fresh_state()
    record = open_record(state, event("u7", 0))
    record.strengths.update({COPRESENT: Strength.LINGUISTIC, ATTEND: Strength.LINGUISTIC,
                             HEAR: Strength.LINGUISTIC, REALIZE: Strength.DEFAULT})
    assert understanding_strength(record) is Strength.DEFAULT
    record.strengths[REALIZE] = Strength.LINGUISTIC
    assert understanding_strength(record) is Strength.LINGUISTIC
    fresh = open_record(state, event("u8", 1))
    assert understanding_strength(fresh) is Strength.HYPOTHESIS


@given(st.integers(0, 2**32 - 1))
def test_understanding_is_weakest_link(seed):
    record = random_record(random.Random(seed))
    assert understanding_strength(record) == min_strength(record.strengths.values())


def test_paraphrase_dominates_repeat_dominates_prompt():
    rng = random.Random(31337)
    for _ in range(200):
        base = random_record(rng)
        results = {}
        for cls in (IRUClass.PROMPT, IRUClass.REPEAT, IRUClass.PARAPHRASE):
            record = AssumptionRecord("uX", "a", "b", dict(base.strengths))
            apply_iru_upgrade(record, cls)
            results[cls] = understanding_strength(record)
        assert results[IRUClass.PARAPHRASE] >= results[IRUClass.REPEAT]
        assert results[IRUClass.REPEAT] >= results[IRUClass.PROMPT]


def test_understanding_of_a_record_with_no_assumptions_raises():
    with pytest.raises(ValueError):
        understanding_strength(AssumptionRecord("uX", "a", "b", {}))


# -- trace text -----------------------------------------------------------------

def test_snapshot_lists_strengths_in_assumption_order_whatever_the_dict_order():
    filled = [LICENSE, REALIZE, COPRESENT, HEAR, ATTEND]
    strengths = {name: PRODUCIBLE[i % len(PRODUCIBLE)] for i, name in enumerate(filled)}
    snap = snapshot_record(AssumptionRecord("uX", "a", "b", strengths), 3, Strength.HYPOTHESIS)
    assert snap.strengths == tuple((name, strengths[name]) for name in ASSUMPTION_ORDER)
    partial = snapshot_record(AssumptionRecord("uX", "a", "b", {HEAR: Strength.DEFAULT,
                                                                 COPRESENT: Strength.LINGUISTIC}),
                              3, Strength.DEFAULT)
    assert partial.strengths == ((COPRESENT, Strength.LINGUISTIC), (HEAR, Strength.DEFAULT))


@pytest.mark.parametrize("strength", list(Strength))
def test_every_strength_renders_in_a_trace_line_as_its_str(strength):
    s = str(strength)
    snap = RecordSnapshot("u0", 0, ((COPRESENT, strength),), strength)
    trace = TraceRecord("u1", 1, "b", "a", "assert", "unmarked", "none", (), (snap,),
                        (("p", "q", strength, "inference"),), (), (),
                        (("p", strength, ""),), (("q", strength, ("u0",)),))
    assert trace.render().splitlines()[4:] == [
        "record: u0", f"  copresent: {s}", f"  understand: {s}",
        f"license: p => q [{s}] (inference)", f"asserted: p [{s}]", f"derived: q [{s}] from(u0)"]


@pytest.mark.parametrize("act", list(ActType))
@pytest.mark.parametrize("intonation", list(Intonation))
def test_trace_text_of_every_act_and_intonation_is_its_value(act, intonation):
    engine = DialogueEngine(fresh_state())
    engine.process(event("u0", 0, realizes=(parse_proposition("p"),)))
    trace = engine.process(event("u1", 1, "b", "a", act=act, intonation=intonation))
    assert (trace.act, trace.intonation) == (act.value, intonation.value)


@pytest.mark.parametrize("cls", list(IRUClass))
def test_trace_text_of_every_iru_class_is_its_value(cls, monkeypatch):
    engine = DialogueEngine(fresh_state())
    engine.process(event("u0", 0, realizes=(parse_proposition("p"),)))
    monkeypatch.setattr(grounding, "classify_iru", lambda *args: cls)
    assert engine.process(event("u1", 1, "b", "a", act=ActType.OTHER)).iru_class == cls.value


# -- monotonicity -------------------------------------------------------------

def test_random_operation_sequences_never_lower_strengths():
    rng = random.Random(424242)
    for _ in range(200):
        state = fresh_state()
        record = open_record(state, event("u0", 0, implicates=(
            parse_proposition("p"), parse_proposition("q"))))
        snapshot = dict(record.strengths)
        for _ in range(rng.randint(1, 12)):
            op = rng.random()
            if op < 0.4:
                apply_iru_upgrade(record, rng.choice(LIVE_CLASSES))
            elif op < 0.8:
                apply_any_next_upgrade(record)
            else:
                record.raise_to(rng.choice(list(record.strengths)),
                                rng.choice(PRODUCIBLE))
            for name, old in snapshot.items():
                assert record.strengths[name] >= old
            snapshot = dict(record.strengths)


# -- classification -----------------------------------------------------------

def test_classification_matches_printed_examples(fixtures_dir):
    cases = {
        "example1.dlg": {"u8": "repeat", "u9": "paraphrase"},
        "example2.dlg": {"u20": "paraphrase"},
        "example3.dlg": {"u17": "explicit_inference", "u18": "implicature_reinforcement"},
    }
    for name, expected in cases.items():
        transcript = parse(load_fixture(name))
        _, traces = replay_transcript(transcript)
        got = {t.event_id: t.iru_class for t in traces}
        for uid, cls in expected.items():
            assert got[uid] == cls, (name, uid)


def test_prompt_classification():
    state = fresh_state()
    assert classify_iru(event("u1", 0, act=ActType.PROMPT, text="uh huh"),
                        state, [], []) is IRUClass.PROMPT


def test_classification_is_deterministic_and_pure():
    transcript = parse(load_fixture("example3.dlg"))
    engine, _ = replay_transcript(transcript)
    state = engine.state
    e = event("u99", 99, speaker="h", addressee="j",
              realizes=(parse_proposition("!eligible81"),))
    before = {k: v.strength for k, v in state.license_links.items()}
    verdicts = [state.context.is_redundant(p) for p in e.realizes]
    links = [link for link in state.license_links.values()
             if link.conclusion.key in {p.key for p in e.realizes}]
    first = classify_iru(e, state, verdicts, links)
    second = classify_iru(e, state, verdicts, links)
    assert first is second
    assert {k: v.strength for k, v in state.license_links.items()} == before


class CountingLinks(dict):
    """A license-link store that counts the scans of its links."""

    scans = 0

    def values(self):
        self.scans += 1
        return super().values()


def per_event_counts(monkeypatch):
    """Replay every fixture dialogue; yields each event with the number of
    ``Context.is_redundant`` calls and license-link scans it made."""
    calls = []
    is_redundant = Context.is_redundant
    monkeypatch.setattr(Context, "is_redundant",
                        lambda self, p: calls.append(p) or is_redundant(self, p))
    for path in DIALOGUES + DISPUTES:
        transcript = parse(path.read_text(encoding="utf-8"))
        engine = DialogueEngine.for_transcript(transcript)
        links = engine.state.license_links = CountingLinks()
        for ev in transcript.events:
            calls.clear()
            links.scans = 0
            engine.process(ev)
            yield f"{path.name} {ev.utterance_id}", ev, len(calls), links.scans


def test_one_redundancy_verdict_per_realized_proposition(monkeypatch):
    """Classification, antecedent resolution and the trace's redundancy
    notes share one verdict per realized proposition."""
    for where, ev, verdicts, _ in per_event_counts(monkeypatch):
        assert verdicts == len(ev.realizes), where


def test_license_links_are_scanned_once_per_event(monkeypatch):
    """Classification, antecedent resolution and the license lift share one
    match of the stored links against the event's content."""
    for where, _, _, scans in per_event_counts(monkeypatch):
        assert scans <= 1, where


def test_process_rejects_dangling_antecedent():
    engine = DialogueEngine(fresh_state())
    with pytest.raises(DanglingAntecedent):
        engine.process(event("u1", 0, antecedent_ids=("missing",)))


# -- license links -------------------------------------------------------------

def test_record_license_evidence_strengthens_to_max():
    state = fresh_state()
    open_record(state, event("u16", 0))
    state.events["u16"] = event("u16", 0)
    state.context.assert_prop(parse_proposition("pension"), Strength.LINGUISTIC, "u16")
    link = LicenseLink(parse_proposition("pension"), parse_proposition("!eligible81"),
                       Strength.INFERENCE, LicenseLink.ORIGIN_INFERENCE, "u16")
    stored = record_license_evidence(state, link, Strength.INFERENCE)
    assert stored.strength is Strength.INFERENCE
    record_license_evidence(state, stored, Strength.LINGUISTIC)
    assert stored.strength is Strength.LINGUISTIC
    record_license_evidence(state, stored, Strength.DEFAULT)  # never lowered
    assert stored.strength is Strength.LINGUISTIC
    assert state.records["u16"].strengths[LICENSE] is Strength.LINGUISTIC


def test_record_license_evidence_requires_known_premise():
    state = fresh_state()
    link = LicenseLink(parse_proposition("ghost"), parse_proposition("q"),
                       Strength.HYPOTHESIS, LicenseLink.ORIGIN_IMPLICATURE, "u1")
    with pytest.raises(UnknownProposition):
        record_license_evidence(state, link, Strength.HYPOTHESIS)
