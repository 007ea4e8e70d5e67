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


def latest_live_literal(context):
    """The id of ``context``'s live literal entry inserted last, or None if
    none is live: what the property tests defeat to settle a clash."""
    literals = [e for e in context.live_entries() if isinstance(e.proposition, Literal)]
    return max(literals, key=lambda e: e.order).entry_id if literals else None
