"""The per-dialogue discourse state shared by grounding and acceptance."""

from __future__ import annotations

from dataclasses import dataclass

from .acceptance import AcceptanceBelief, ConflictEvidence, PendingAcceptance, \
    RetractionReport, SupportLink
from .grounding import AssumptionRecord, LicenseLink, Participant, UtteranceEvent
from .propositions import LIVE, Context, Proposition, prop_key


@dataclass
class EngineConfig:
    """Tunables for replaying a dialogue."""

    affirmation_phrases: tuple[str, ...] = ("that's correct", "right", "yup", "absolutely")


class DiscourseState:
    """Common-ground store for one two-party dialogue.

    Holds the propositional context, per-utterance assumption records,
    license and support links, acceptance beliefs, recorded conflicts, and
    the unified dependency graph that retraction walks.  Strictly sequential
    within a dialogue; independent dialogues may run in parallel.
    """

    def __init__(self, dialogue_id: str, participants: tuple[Participant, Participant],
                 require_acceptance: bool = False, config: EngineConfig | None = None):
        if len({p.id for p in participants}) != 2:
            raise ValueError("a dialogue has exactly two distinct participants")
        self.dialogue_id = dialogue_id
        self.participants = participants
        self.require_acceptance = require_acceptance
        self.config = config or EngineConfig()
        self.context = Context()
        self.events: dict[str, UtteranceEvent] = {}
        self.order: list[str] = []
        self.records: dict[str, AssumptionRecord] = {}
        self.license_links: dict[tuple[str, str], LicenseLink] = {}
        self.acceptance_beliefs: dict[str, AcceptanceBelief] = {}
        self.support_links: dict[str, SupportLink] = {}
        self.conflicts: list[ConflictEvidence] = []
        self.pending: list[PendingAcceptance] = []
        self.retractions: list[RetractionReport] = []
        self.nodes: dict[str, object] = {}  # unified id space for retraction
        self._belief_counter = 0
        self._support_counter = 0

    def participant_ids(self) -> set[str]:
        return {p.id for p in self.participants}

    def next_belief_id(self) -> str:
        self._belief_counter += 1
        return f"a{self._belief_counter}"

    def next_support_id(self) -> str:
        self._support_counter += 1
        return f"s{self._support_counter}"

    def register_entry(self, entry) -> None:
        self.nodes[entry.entry_id] = entry

    def sync_context_after_defeat(self, defeated_ids) -> None:
        """Keep the context's live index coherent after graph retraction."""
        for eid in defeated_ids:
            self.context.unindex(eid)

    def find_acceptance(self, p: Proposition, agent: str) -> AcceptanceBelief | None:
        key = prop_key(p)
        for belief in self.acceptance_beliefs.values():
            if (belief.status == LIVE and belief.accepting_agent == agent
                    and prop_key(belief.proposition) == key):
                return belief
        return None

    def live_acceptances(self) -> list[AcceptanceBelief]:
        return [b for b in self.acceptance_beliefs.values() if b.status == LIVE]
