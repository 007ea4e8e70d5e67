"""The per-dialogue discourse state shared by grounding and acceptance."""

from __future__ import annotations

from typing import Iterable

from .acceptance import AcceptanceBelief, PendingAcceptance, RetractionReport, SupportLink
from .grounding import AssumptionRecord, LicenseLink, Participant, UtteranceEvent
from .propositions import LIVE, Context, ContextEntry, Proposition


class DiscourseState:
    """Common-ground store for one two-party dialogue.

    Holds the propositional context, per-utterance assumption records,
    license and support links, acceptance beliefs, and the retraction
    reports.  The context owns the one dependency graph: ``nodes`` is the
    context's own dict of proposition entries, acceptance beliefs and
    support links, which join it through ``Context.add_node``, and
    ``Context.defeat_entry`` is the one walk that retracts along it.
    ``events`` is the context's dict of utterances, in dialogue order, so no
    node takes an utterance's id.  Strictly sequential within a dialogue;
    independent dialogues may run in parallel.
    """

    def __init__(self, dialogue_id: str, participants: tuple[Participant, Participant],
                 require_acceptance: bool = False):
        #: the participants' ids, for admission to check each event against
        self.participant_ids = frozenset([p.id for p in participants])
        if len(self.participant_ids) != 2:
            raise ValueError("a dialogue has exactly two distinct participants")
        self.dialogue_id = dialogue_id
        self.participants = participants
        self.require_acceptance = require_acceptance
        self.context = Context()
        self.events: dict[str, UtteranceEvent] = self.context.utterances
        self.records: dict[str, AssumptionRecord] = {}
        #: addressee -> ids of the uninterrupted utterances, in dialogue
        #: order, whose any-next upgrade waits for the addressee's next turn
        self.awaiting: dict[str, list[str]] = {}
        self.license_links: dict[tuple[str, str], LicenseLink] = {}
        #: conclusion key -> (store order, link) for the links ``add_license_link``
        #: stored, in order
        self._links_to: dict[str, list[tuple[int, LicenseLink]]] = {}
        self.acceptance_beliefs: dict[str, AcceptanceBelief] = {}
        #: (proposition key, agent) -> (add order, belief) for the beliefs
        #: ``add_acceptance`` added, in order
        self._acceptances: dict[tuple[str, str], list[tuple[int, AcceptanceBelief]]] = {}
        self.support_links: dict[str, SupportLink] = {}
        #: (belief key, goal key) -> the link ``record_support`` added
        self.support_between: dict[tuple[str, str], SupportLink] = {}
        #: keys of the current event's propositions that the context did not
        #: hold before the event, while its kept conflict trial holds them
        #: ahead of its assertion step (see ``entry_before_event``)
        self.arriving: frozenset[str] = frozenset()
        self.pending: list[PendingAcceptance] = []
        self.retractions: list[RetractionReport] = []

    @property
    def nodes(self) -> dict[str, object]:
        """Every node of the dependency graph, by id (the context's dict)."""
        return self.context.nodes

    def entry_before_event(self, p: Proposition) -> ContextEntry | None:
        """The live entry of ``p`` as the context held it before the current
        event: none for a key in ``arriving``."""
        return None if p.key in self.arriving else self.context.lookup(p)

    def add_license_link(self, link: LicenseLink) -> None:
        """Store a license link under its key and index it by its conclusion."""
        self._links_to.setdefault(link.conclusion.key, []).append((len(self.license_links), link))
        self.license_links[link.key] = link

    def links_concluding(self, props: Iterable[Proposition]) -> list[LicenseLink]:
        """The stored license links that conclude one of ``props``, in the
        order ``add_license_link`` stored them."""
        found = {order: link for p in props for order, link in self._links_to.get(p.key, ())}
        return [found[order] for order in sorted(found)] if found else []

    def add_acceptance(self, belief: AcceptanceBelief) -> None:
        """Add a belief to the acceptance beliefs, the graph and the index."""
        self._acceptances.setdefault((belief.proposition.key, belief.accepting_agent),
                                     []).append((len(self.acceptance_beliefs), belief))
        self.acceptance_beliefs[belief.belief_id] = belief
        self.context.add_node(belief.belief_id, belief)

    def find_acceptance(self, p: Proposition, agent: str) -> AcceptanceBelief | None:
        """The first live belief of ``agent`` in ``p`` that ``add_acceptance`` added."""
        for _, belief in self._acceptances.get((p.key, agent), ()):
            if belief.status == LIVE:
                return belief
        return None

    def live_acceptances_of(self, keys: Iterable[str]) -> list[AcceptanceBelief]:
        """The live beliefs of either participant in the propositions with
        ``keys``, in the order ``add_acceptance`` added them."""
        found = [(order, belief) for key in keys for agent in self.participants
                 for order, belief in self._acceptances.get((key, agent.id), ())
                 if belief.status == LIVE]
        return [belief for _, belief in sorted(found, key=lambda f: f[0])]
