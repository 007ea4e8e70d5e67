"""The per-dialogue discourse state shared by grounding and acceptance."""

from __future__ import annotations

from .acceptance import AcceptanceBelief, ConflictEvidence, PendingAcceptance, \
    RetractionReport, SupportLink
from .grounding import AssumptionRecord, LicenseLink, Participant, UtteranceEvent
from .propositions import LIVE, Context, Proposition, prop_key


class DiscourseState:
    """Common-ground store for one two-party dialogue.

    Holds the propositional context, per-utterance assumption records,
    license and support links, acceptance beliefs, recorded conflicts, and
    the retraction reports.  The context owns the one dependency graph:
    ``nodes`` is the context's own dict of proposition entries, acceptance
    beliefs and support links, and ``Context.defeat_entry`` is the one walk
    that retracts along it.  ``events`` is the context's dict of utterances,
    so no node takes an utterance's id.  Strictly sequential within a
    dialogue; independent dialogues may run in parallel.
    """

    def __init__(self, dialogue_id: str, participants: tuple[Participant, Participant],
                 require_acceptance: bool = False):
        if len({p.id for p in participants}) != 2:
            raise ValueError("a dialogue has exactly two distinct participants")
        self.dialogue_id = dialogue_id
        self.participants = participants
        self.require_acceptance = require_acceptance
        self.context = Context()
        self.events: dict[str, UtteranceEvent] = self.context.utterances
        self.order: list[str] = []
        self.records: dict[str, AssumptionRecord] = {}
        #: addressee -> ids of the uninterrupted utterances, in dialogue
        #: order, whose any-next upgrade waits for the addressee's next turn
        self.awaiting: dict[str, list[str]] = {}
        self.license_links: dict[tuple[str, str], LicenseLink] = {}
        self.acceptance_beliefs: dict[str, AcceptanceBelief] = {}
        #: (proposition key, agent) -> the beliefs ``add_acceptance`` added, in order
        self._acceptances: dict[tuple[str, str], list[AcceptanceBelief]] = {}
        self.support_links: dict[str, SupportLink] = {}
        self.conflicts: list[ConflictEvidence] = []
        self.pending: list[PendingAcceptance] = []
        self.retractions: list[RetractionReport] = []

    @property
    def nodes(self) -> dict[str, object]:
        """Every node of the dependency graph, by id (the context's dict)."""
        return self.context.nodes

    def participant_ids(self) -> set[str]:
        return {p.id for p in self.participants}

    def add_acceptance(self, belief: AcceptanceBelief) -> None:
        """Add a belief to the acceptance beliefs, the graph and the index."""
        self.acceptance_beliefs[belief.belief_id] = self.nodes[belief.belief_id] = belief
        self._acceptances.setdefault((prop_key(belief.proposition), belief.accepting_agent),
                                     []).append(belief)

    def find_acceptance(self, p: Proposition, agent: str) -> AcceptanceBelief | None:
        """The first live belief of ``agent`` in ``p`` that ``add_acceptance`` added."""
        for belief in self._acceptances.get((prop_key(p), agent), ()):
            if belief.status == LIVE:
                return belief
        return None

    def live_acceptances(self) -> list[AcceptanceBelief]:
        return [b for b in self.acceptance_beliefs.values() if b.status == LIVE]
