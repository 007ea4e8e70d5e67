"""Byte-for-byte CLI output on every fixture dialogue.

The goldens under ``fixtures/golden`` pin what ``trace`` and ``classify``
print for each fixture dialogue, what ``trace`` prints for each dispute
dialogue, and what ``stats`` prints for the corpus.
Any change to the engine, the closure or the renderers that alters a single
byte of user-visible output fails here.  To regenerate them after a change
that is meant to alter output, run from the repository root::

    PYTHONPATH=src python tests/test_golden.py
"""

import io
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from commonground import cli

sys.path.insert(0, str(Path(__file__).parent))  # conftest, when run as a script
from conftest import DIALOGUES, DISPUTES, FIXTURES  # noqa: E402

GOLDEN = FIXTURES / "golden"


def run_cli(*argv: str) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        status = cli.main(list(argv))
    assert status == cli.EXIT_OK, argv
    return out.getvalue()


def golden_outputs() -> dict[str, list[str]]:
    """Golden file name -> the CLI arguments that produce it."""
    cases = {}
    for path in DIALOGUES:
        cases[f"{path.stem}.trace"] = ["trace", str(path)]
        cases[f"{path.stem}.classify"] = ["classify", str(path)]
    for path in DISPUTES:
        cases[f"{path.stem}.trace"] = ["trace", str(path)]
    corpus = str(FIXTURES / "corpus")
    cases["corpus.stats"] = ["stats", corpus]
    cases["corpus.stats.tabular"] = ["stats", corpus, "--format", "tabular"]
    return cases


CASES = golden_outputs()


def test_every_fixture_dialogue_has_goldens():
    assert len(DIALOGUES) == 30
    assert len(DISPUTES) == 3
    assert sorted(p.name for p in GOLDEN.iterdir()) == sorted(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name):
    expected = (GOLDEN / name).read_text(encoding="utf-8")
    assert run_cli(*CASES[name]) == expected


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in CASES.items():
        (GOLDEN / name).write_text(run_cli(*argv), encoding="utf-8")
    print(f"wrote {len(CASES)} goldens to {GOLDEN}", file=sys.stderr)
