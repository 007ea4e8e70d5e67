"""Apply each mutant of ``MUTANTS`` to a copy of ``src`` and run the tests
that must catch it; print whether each mutant was killed or survived.

A mutant is killed when every test it names fails (or errors) with the
mutant applied; a parametrized test fails when any of its cases does, and
every test of a file fails when the file cannot be collected.  The
tests run in a subprocess, with ``PYTHONPATH`` at the copy and pytest's own
``pythonpath`` setting emptied, so they import the mutated package.  Its
working directory is the copy's temporary directory, where hypothesis keeps
its example database, so no mutant replays another's failing examples.
The script exits nonzero if a mutant survives, or if a mutant's old text is
not in its file exactly once: then the code it was written against has
changed, and the mutant must be written again; ``tests/test_mutants.py``
checks that, and the tests each mutant names, without running a mutant.
pytest does not collect this file (its name does not start with ``test``).

    python3 tests/mutants.py [mutant-name ...]
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    path: str  # relative to src/
    old: str  # exact text, found once in the file
    new: str
    tests: tuple[str, ...]  # pytest ids, relative to the repository root


#: the enumerated replay whose checks of the model's invariants the three
#: mutants before ``kept-trial-asserted-again`` break, one check each.  Its
#: check that no live node depends on a defeated one has no mutant: in that
#: space only acceptance beliefs are defeated in an event that completes,
#: and no node depends on one
LIVE_LITERALS = ("tests/test_state.py::"
                 "test_live_literals_are_the_consequences_of_the_live_assertions")

MUTANTS = (
    Mutant("rule-defeat-allowed", "commonground/propositions.py",
           "        if rules:\n"
           "            raise DefeatRejected(f\"a rule stays in the implication graph: "
           "{', '.join(rules)}\")\n",
           "",
           ("tests/test_state.py::test_a_rule_entry_is_never_defeated",)),
    Mutant("raised-entry-not-entered", "commonground/propositions.py",
           "            if raised:  # its seed, or its steps once more, at the new strength\n"
           "                self._enter(existing)\n",
           "",
           ("tests/test_propositions.py::"
            "test_incremental_saturation_matches_from_scratch_reference",)),
    Mutant("reused-id-before-empty-id", "commonground/grounding.py",
           "    if uid and uid in earlier:\n",
           "    if uid in earlier:\n",
           ("tests/test_admission.py::"
            "test_a_second_empty_id_is_reported_as_empty_not_as_reused",)),
    Mutant("strengths-in-dict-order", "commonground/trace.py",
           "            for name in ASSUMPTION_ORDER:\n",
           "            for name in strengths:\n",
           ("tests/test_grounding.py::"
            "test_snapshot_lists_strengths_in_assumption_order_whatever_the_dict_order",)),
    Mutant("redundancy-note-dropped", "commonground/trace.py",
           "                if verdict.redundant else \"\"\n",
           "                if False else \"\"\n",
           ("tests/test_golden.py::test_cli_output_matches_golden",)),
    Mutant("second-defeat-allowed", "commonground/propositions.py",
           "        if self.nodes[node_id].status != LIVE:\n"
           "            raise DefeatRejected(f\"already defeated: {node_id}\")\n",
           "",
           ("tests/test_state.py::test_a_node_is_defeated_once",)),
    Mutant("in-place-defeat-restored", "commonground/propositions.py",
           "            if other is not None:\n"
           "                raise ConflictDetected([(p, other.proposition)])\n",
           "            if other is not None:\n"
           "                if other.strength >= strength:\n"
           "                    raise ConflictDetected([(p, other.proposition)])\n"
           "                self.defeat_entry(other.entry_id)\n",
           ("tests/test_propositions.py::"
            "test_weaker_contrary_entry_raises_until_the_caller_defeats_it",
            "tests/test_state.py::test_defeat_of_a_weaker_contrary_cascades_through_the_graph")),
    Mutant("conflict-exception-held", "commonground/acceptance.py",
           "        clashes = raised.clashes\n",
           "        clash = raised\n"
           "        clashes = clash.clashes\n",
           ("tests/test_state.py::test_a_caught_clash_leaves_no_garbage",)),
    Mutant("defeated-support-link-reused", "commonground/acceptance.py",
           "    if link is not None and link.status == LIVE:\n",
           "    if link is not None:\n",
           ("tests/test_state.py::test_record_support_replaces_a_defeated_link",
            "tests/test_state.py::"
            "test_a_support_said_again_after_its_link_was_defeated_is_live")),
    Mutant("defeat-status-unlogged", "commonground/propositions.py",
           "            self._set(node, \"status\", DEFEATED)\n",
           "            setattr(node, \"status\", DEFEATED)\n",
           ("tests/test_state.py::test_trial_undoes_a_defeat_and_restores_the_labels",
            "tests/test_state.py::test_rollback_undoes_every_write_of_a_trial")),
    Mutant("label-write-unlogged", "commonground/propositions.py",
           "            self._set(entry, \"label\", item)\n",
           "            entry.label = item\n",
           ("tests/test_state.py::test_rollback_undoes_every_write_of_a_trial",)),
    Mutant("clashes-read-only-the-labels", "commonground/propositions.py",
           "        clashing = clashes(settled, label, area)\n",
           "        clashing = clashes(settled,\n"
           "                           lambda key: getattr(live.get(key), \"label\", None), area)\n",
           ("tests/test_state.py::"
            "test_a_rule_derives_the_contrary_of_a_literal_no_rule_mentioned",)),
    Mutant("boundary-reads-only-the-labels", "commonground/propositions.py",
           "            item = label(key)\n",
           "            item = getattr(live.get(key), \"label\", None)\n",
           ("tests/test_state.py::"
            "test_a_rule_over_an_unmentioned_literal_derives_its_consequent",)),
    Mutant("defeat-leaves-key-live", "commonground/propositions.py",
           "                put(self._trail, self._live, node.proposition.key, None)\n",
           "",
           ("tests/test_state.py::test_trial_undoes_a_defeat_and_restores_the_labels",
            "tests/test_state.py::test_rollback_undoes_every_write_of_a_trial",
            "tests/test_propositions.py::"
            "test_weaker_contrary_entry_raises_until_the_caller_defeats_it")),
    Mutant("live-map-unlogged", "commonground/propositions.py",
           "                        (live, key, live.get(key)))  # each as ``put`` logs it\n",
           "                        )  # the _live record left out\n",
           ("tests/test_state.py::test_detect_conflict_trial_leaves_the_context_as_it_was",
            "tests/test_state.py::test_a_kept_inner_trial_is_undone_with_the_outer_one")),
    Mutant("settled-in-area-order", "commonground/propositions.py",
           "        fresh = [item for key, item in settled.items() if key in area]\n",
           "        fresh = [settled[key] for key in area if key in settled]\n",
           ("tests/test_propositions.py::test_equal_labels_commit_in_pop_order",
            "tests/test_propositions.py::"
            "test_incremental_saturation_matches_from_scratch_reference")),
    Mutant("every-literal-marked", "commonground/propositions.py",
           "        if isinstance(p, Literal):\n"
           "            self._mark(p.key)\n",
           "        if isinstance(p, Literal):\n"
           "            self._changed.add(p.key)\n",
           ("tests/test_state.py::test_literals_no_rule_mentions_are_never_searched",
            "tests/test_propositions.py::"
            "test_incremental_saturation_matches_from_scratch_reference")),
    Mutant("understanding-takes-max", "commonground/grounding.py",
           "    return min(record.strengths.values())\n",
           "    return max(record.strengths.values())\n",
           ("tests/test_grounding.py::test_understanding_is_weakest_link",
            "tests/test_grounding.py::"
            "test_understanding_is_a_member_and_lower_bound_in_any_slot_order",
            "tests/test_grounding.py::test_raising_a_held_slot_never_lowers_understanding")),
    Mutant("accept-always-adds-a-belief", "commonground/acceptance.py",
           "    if belief is None:\n"
           "        belief = AcceptanceBelief(",
           "    if True:\n"
           "        belief = AcceptanceBelief(",
           ("tests/test_state.py::test_one_dependency_graph_after_every_event[reaccepted]",)),
    Mutant("trial-before-iru-upgrade", "commonground/engine.py",
           "        licenses = self._iru_upgrade(event, cls, antecedents, matched, touched)\n"
           "        # 5. detect conflict evidence; a kept trial hands over its fixpoint\n"
           "        fixpoints: list[list[Item]] = []\n"
           "        conflict = acc.detect_conflict(state, event, fixpoints)\n",
           "        fixpoints: list[list[Item]] = []\n"
           "        conflict = acc.detect_conflict(state, event, fixpoints)\n"
           "        licenses = self._iru_upgrade(event, cls, antecedents, matched, touched)\n",
           ("tests/test_state.py::"
            "test_license_evidence_sees_the_context_as_it_was_before_the_event",)),
    Mutant("self-addressed-admitted", "commonground/grounding.py",
           "    if speaker == addressee:\n"
           "        return [(None, \"bad-value\", \"speaker and addressee coincide\")]\n",
           "",
           ("tests/test_admission.py::test_a_record_level_refusal_is_reported_alone",
            "tests/test_admission.py::test_parse_raises_exactly_when_process_refuses_an_event")),
    Mutant("prompt-with-content-admitted", "commonground/grounding.py",
           "    if event.act is ACT_PROMPT and realizes:\n"
           "        return [(None, \"bad-value\", \"a prompt realizes no propositions\")]\n",
           "",
           ("tests/test_admission.py::test_a_record_level_refusal_is_reported_alone",
            "tests/test_admission.py::test_parse_raises_exactly_when_process_refuses_an_event")),
    Mutant("empty-id-admitted", "commonground/grounding.py",
           "    issues = [] if uid else [(\"id\", \"bad-value\", "
           "\"utterance id must be nonempty\")]\n",
           "    issues = []\n",
           ("tests/test_admission.py::"
            "test_a_second_empty_id_is_reported_as_empty_not_as_reused",
            "tests/test_admission.py::test_parse_raises_exactly_when_process_refuses_an_event")),
    Mutant("comma-id-admitted", "commonground/grounding.py",
           "    if \",\" in uid:  # an ``antecedents`` field could not name it\n"
           "        issues.append((\"id\", \"bad-value\", "
           "\"utterance id must not contain ','\"))\n",
           "",
           ("tests/test_admission.py::test_every_broken_rule_is_one_triple_on_its_field",
            "tests/test_admission.py::test_parse_raises_exactly_when_process_refuses_an_event")),
    Mutant("record-without-a-field-not-earlier", "commonground/transcript.py",
           "            if \"id\" in fields:  # refused, but later records may still name it\n"
           "                earlier.add(fields[\"id\"][1])\n",
           "",
           ("tests/test_admission.py::test_a_refused_record_still_counts_as_earlier",)),
    Mutant("record-with-a-bad-turn-not-earlier", "commonground/transcript.py",
           "            issues.append(ParseIssue(turn_line, \"bad-value\", "
           "\"turn must be an integer\"))\n"
           "            earlier.add(uid)\n",
           "            issues.append(ParseIssue(turn_line, \"bad-value\", "
           "\"turn must be an integer\"))\n",
           ("tests/test_admission.py::test_a_refused_record_still_counts_as_earlier",)),
    Mutant("empty-dialogue-id-admitted", "commonground/transcript.py",
           "    elif not dialogue_id:\n"
           "        issues.append(ParseIssue(dialogue_line, \"bad-value\", "
           "\"dialogue id must be nonempty\"))\n",
           "",
           ("tests/test_transcript.py::test_empty_dialogue_id",)),
    Mutant("accepted-outcome-without-detail", "commonground/acceptance.py",
           "                      (AcceptanceOutcome.ACCEPTED, p, agent, trigger, "
           "belief.strength, \"\"))\n",
           "                      (AcceptanceOutcome.ACCEPTED, p, agent, trigger, "
           "belief.strength))\n",
           ("tests/test_records.py::"
            "test_every_record_of_the_event_path_holds_one_value_per_field",)),
    Mutant("refused-outcome-without-detail", "commonground/acceptance.py",
           "(kind, p, agent, trigger, None, detail)) for p in props]\n",
           "(kind, p, agent, trigger, None)) for p in props]\n",
           ("tests/test_records.py::"
            "test_every_record_of_the_event_path_holds_one_value_per_field",
            "tests/test_golden.py::test_cli_output_matches_golden")),
    Mutant("any-next-copresence-at-default", "commonground/grounding.py",
           "    if strengths[COPRESENT] < LINGUISTIC:\n"
           "        strengths[COPRESENT] = LINGUISTIC\n",
           "",
           ("tests/test_grounding.py::test_any_next_on_fresh_record",
            "tests/test_grounding.py::"
            "test_any_next_after_repeat_keeps_linguistic_and_fills_default",
            "tests/test_golden.py::test_cli_output_matches_golden")),
    Mutant("empty-commit-leaves-changed-stale", "commonground/propositions.py",
           "        self._changed = set()\n"
           "        inserted = []\n",
           "        if not settled:\n"
           "            return []\n"
           "        self._changed = set()\n"
           "        inserted = []\n",
           ("tests/test_propositions.py::"
            "test_a_commit_that_settles_nothing_clears_the_changed_keys",)),
    Mutant("new-literal-always-marked", "commonground/propositions.py",
           "        elif key in graph.into or key in graph.steps:  # _mark, inline\n",
           "        else:\n",
           ("tests/test_state.py::test_literals_no_rule_mentions_are_never_searched",)),
    Mutant("insert-leaves-dependents-unindexed", "commonground/propositions.py",
           "        if dependencies:\n"
           "            add_dependents(self._dependents, eid, dependencies)\n",
           "",
           ("tests/test_propositions.py::test_retract_walks_reverse_dependencies",
            "tests/test_state.py::test_retraction_index_names_every_dependent")),
    Mutant("retract-ignores-replaced-dependencies", "commonground/propositions.py",
           "            if (node is not None and getattr(node, \"status\", LIVE) == LIVE\n"
           "                    and dep in node.dependencies):\n",
           "            if node is not None and getattr(node, \"status\", LIVE) == LIVE:\n",
           ("tests/test_propositions.py::test_retract_ignores_replaced_dependencies",)),
    Mutant("roots-stop-at-derived-premise", "commonground/propositions.py",
           "            else:\n"
           "                stack.extend(e.dependencies)\n",
           "",
           ("tests/test_propositions.py::"
            "test_is_redundant_entailed_walks_through_a_derived_premise",)),
    Mutant("forced-walks-multi-steps", "commonground/saturation.py",
           "            if len(ants) == 1 and dst.key not in done:\n",
           "            if dst.key not in done:\n",
           ("tests/test_propositions.py::"
            "test_incremental_saturation_matches_from_scratch_reference",)),
    Mutant("step-fires-without-a-premise", "commonground/saturation.py",
           "                if premise is None:\n"
           "                    break\n",
           "                if premise is None:\n"
           "                    continue\n",
           ("tests/test_propositions.py::test_rank_never_falls_along_a_derivation",
            "tests/test_propositions.py::"
            "test_incremental_saturation_matches_from_scratch_reference")),
    Mutant("rank-drops-rule-order", "commonground/saturation.py",
           "{rule_id}, {rule_order}\n",
           "{rule_id}, set()\n",
           ("tests/test_propositions.py::test_rank_never_falls_along_a_derivation",
            "tests/test_propositions.py::"
            "test_incremental_saturation_matches_from_scratch_reference")),
    Mutant("arriving-left-set", "commonground/engine.py",
           "        if state.arriving:\n"
           "            state.arriving = frozenset()\n",
           "",
           ("tests/test_state.py::test_arriving_keys_end_with_their_event",)),
    Mutant("rule-without-contrapositive", "commonground/propositions.py",
           "((c, antecedents), (a.negated(), (c.negated(),)))\n",
           "((c, antecedents),)\n",
           ("tests/test_propositions.py::"
            "test_incremental_saturation_matches_from_scratch_reference",)),
    Mutant("empty-event-saturates", "commonground/engine.py",
           "        if not realizes:\n"
           "            return asserted, derived\n"
           "        context = state.context\n",
           "        context = state.context\n",
           ("tests/test_golden.py::test_cli_output_matches_golden",)),
    Mutant("arriving-holds-repeated-keys", "commonground/engine.py",
           "        state.arriving = frozenset([p.key for p, verdict in zip(realizes, verdicts)\n"
           "                                    if verdict.kind == "
           "RedundancyVerdict.NOT_REDUNDANT])\n",
           "        state.arriving = frozenset([p.key for p in realizes])\n",
           ("tests/test_state.py::test_a_repeated_proposition_is_not_arriving",)),
    Mutant("repeat-capped-as-derived", "commonground/propositions.py",
           "                self._set(existing, \"strength\", strength)\n"
           "                # direct assertion",
           "                self._set(existing, \"strength\", min(strength, Strength.INFERENCE))\n"
           "                # direct assertion",
           (LIVE_LITERALS,)),  # an entry's strength falls
    Mutant("derivation-uncapped", "commonground/saturation.py",
           "weakest, ids, orders = -min(rule_strength, DERIVED_CAP),",
           "weakest, ids, orders = -rule_strength,",
           (LIVE_LITERALS,)),  # a derived entry above inference
    Mutant("contrary-assertion-admitted", "commonground/propositions.py",
           "            if other is not None:\n"
           "                raise ConflictDetected([(p, other.proposition)])\n",
           "            if other is not None:\n"
           "                pass\n",
           (LIVE_LITERALS,)),  # an atom live in both polarities
    Mutant("kept-trial-asserted-again", "commonground/engine.py",
           "        fixpoint = fixpoints[0] if fixpoints else "
           "context.assert_all(realizes, LINGUISTIC, uid)\n",
           "        fixpoint = context.assert_all(realizes, LINGUISTIC, uid)\n",
           ("tests/test_state.py::test_a_clash_free_event_is_saturated_once",)),
    Mutant("stored-license-strength-falls", "commonground/grounding.py",
           "    elif strength > stored.strength:\n"
           "        stored.strength = strength\n",
           "    else:\n"
           "        stored.strength = strength\n",
           ("tests/test_grounding.py::test_record_license_evidence_strengthens_to_max",)),
    # output stays byte-identical: only the guard sees the slower read
    Mutant("member-read-through-its-enum", "commonground/acceptance.py",
           "        fixpoint = context.assert_all(realizes, LINGUISTIC, uid)\n",
           "        fixpoint = context.assert_all(realizes, Strength.LINGUISTIC, uid)\n",
           ("tests/test_member_loads.py::"
            "test_no_function_loads_an_enum_member_through_its_class",)),
)


def failed_ids(report: str, cwd: str) -> list[str]:
    """The test ids on the FAILED and ERROR lines of a ``-rfE`` summary, with
    each path, which pytest gives relative to ``cwd``, made relative to the
    repository root."""
    found = []
    for line in report.splitlines():
        words = line.split()
        if line.startswith(("FAILED ", "ERROR ")) and len(words) > 1:
            path, sep, rest = words[1].partition("::")
            path = os.path.join(os.path.realpath(cwd), path)
            found.append(os.path.relpath(path, ROOT) + sep + rest)
    return found


def run(mutant: Mutant) -> str:
    """``killed``, ``survived`` or ``stale`` (the old text is not in the file
    exactly once)."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        target = src / mutant.path
        text = target.read_text(encoding="utf-8")
        if text.count(mutant.old) != 1:
            return "stale"
        target.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
             "-o", "pythonpath=", "--rootdir", str(ROOT),
             *(str(ROOT / t) for t in mutant.tests)],
            cwd=tmp, env=env, capture_output=True, text=True)
    failed = failed_ids(done.stdout, tmp)
    # a case of a parametrized test, or the whole file when it fails to import
    caught = all(any(f == t or f.startswith(t + "[") or t.startswith(f + "::") for f in failed)
                 for t in mutant.tests)
    return "killed" if caught else "survived"


def main(argv: list[str]) -> int:
    chosen = [m for m in MUTANTS if len(argv) < 2 or m.name in argv[1:]]
    outcomes = []
    for mutant in chosen:
        outcome = run(mutant)
        outcomes.append(outcome)
        print(f"{outcome:9s} {mutant.name}  ({mutant.path})", flush=True)
    print(f"{outcomes.count('killed')} of {len(outcomes)} mutants killed")
    return 0 if all(o == "killed" for o in outcomes) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
