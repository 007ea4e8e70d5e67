"""Apply each mutant of ``MUTANTS`` to a copy of ``src`` and run the tests
that must catch it; print whether each mutant was killed or survived.

A mutant is killed when every test it names fails (or errors) with the
mutant applied; a parametrized test fails when any of its cases does, and
every test of a file fails when the file cannot be collected.  The
tests run in a subprocess from the repository root, with ``PYTHONPATH`` at
the copy and pytest's own ``pythonpath`` setting emptied, so they import
the mutated package.  The script exits nonzero if a mutant survives, or if
a mutant's old text is not in its file exactly once: then the code it was
written against has changed, and the mutant must be written again.
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


MUTANTS = (
    Mutant("rule-defeat-allowed", "commonground/propositions.py",
           "        if rules:\n"
           "            raise DefeatRejected(f\"a rule stays in the implication graph: "
           "{', '.join(rules)}\")\n",
           "",
           ("tests/test_state.py::test_a_rule_entry_is_never_defeated",)),
    Mutant("raised-entry-not-entered", "commonground/propositions.py",
           "            if raised:  # its seed, or its edges once more, at the new strength\n"
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
)


def failed_ids(report: str) -> list[str]:
    """The test ids on the FAILED and ERROR lines of a ``-rfE`` summary."""
    return [line.split()[1] for line in report.splitlines()
            if line.startswith(("FAILED ", "ERROR ")) and len(line.split()) > 1]


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
             "-o", "pythonpath=", *mutant.tests],
            cwd=ROOT, env=env, capture_output=True, text=True)
    failed = failed_ids(done.stdout)
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
