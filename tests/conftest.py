import sys
from pathlib import Path

import pytest

from commonground import Literal

sys.path.insert(0, str(Path(__file__).parent))  # make the oracle module importable

FIXTURES = Path(__file__).parent.parent / "fixtures"
#: every fixture dialogue: the worked examples, then the corpus
DIALOGUES = sorted(FIXTURES.glob("example*.dlg")) + sorted((FIXTURES / "corpus").glob("*.dlg"))
#: hand-written disputes: defeats, retraction cascades and swept support links
DISPUTES = sorted((FIXTURES / "disputes").glob("*.dlg"))


@pytest.fixture
def fixtures_dir() -> Path:
    return FIXTURES


def load_fixture(name: str) -> str:
    return (FIXTURES / name).read_text(encoding="utf-8")


def live_ids(context):
    """``context``'s map of live entries, as the id of each key's entry."""
    return {key: entry.entry_id for key, entry in context._live.items()}


def check_live_map(context):
    """``_live`` maps the key of each live entry to that entry, and holds
    nothing else."""
    live = {e.proposition.key: e for e in context.live_entries()}
    assert context._live.keys() == live.keys()
    assert all(context._live[key] is entry for key, entry in live.items())


def latest_live_literal(context):
    """The id of ``context``'s live literal entry inserted last, or None if
    none is live: what the property tests defeat to settle a clash."""
    literals = [e for e in context.live_entries() if isinstance(e.proposition, Literal)]
    return max(literals, key=lambda e: e.order).entry_id if literals else None
