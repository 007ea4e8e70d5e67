"""The per-dialogue discourse state shared by grounding and acceptance."""

from __future__ import annotations

from typing import Iterable

from .acceptance import AcceptanceBelief, PendingAcceptance, SupportLink
from .grounding import AssumptionRecord, LicenseLink, UtteranceEvent
from .propositions import LIVE, Context, ContextEntry, Proposition


class DiscourseState:
    """Common-ground store for one two-party dialogue.

    Holds the propositional context, per-utterance assumption records,
    license and support links, acceptance beliefs and the pending acceptance
    questions.  The context owns the one dependency graph: ``nodes`` is the
    context's own dict of proposition entries, acceptance beliefs and
    support links, which join it through ``Context.add_node``, and
    ``Context.defeat_entry`` retracts along it, the one place a node's status
    changes.
    ``events`` is the context's dict of utterances, in dialogue order, so no
    node takes an utterance's id.  An utterance's own facts (who spoke, to
    whom, whether it was interrupted) live only there; ``records`` holds its
    assumption strengths under the same id, in the same order.  A
    proposition and agent have at most one live acceptance belief: the one
    added last.  Strictly sequential within a dialogue; independent
    dialogues may run in parallel.
    """

    def __init__(self, dialogue_id: str, participants: tuple[str, str],
                 require_acceptance: bool = False):
        #: the participants' ids, for admission to check each event against
        self.participant_ids = frozenset(participants)
        if len(self.participant_ids) != 2:
            raise ValueError("a dialogue has exactly two distinct participants")
        self.dialogue_id = dialogue_id
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
        #: (proposition key, agent) -> (add order, belief) for the belief
        #: ``add_acceptance`` added last, the only one that can be live
        self._acceptances: dict[tuple[str, str], tuple[int, AcceptanceBelief]] = {}
        #: (belief key, goal key) -> the link ``record_support`` added
        self.support_between: dict[tuple[str, str], SupportLink] = {}
        #: keys of the current event's propositions that the context did not
        #: hold before it, set for every event from its conflict trial until
        #: its acceptance step is done (see ``entry_before_event``)
        self.arriving: frozenset[str] = frozenset()
        self.pending: list[PendingAcceptance] = []

    @property
    def nodes(self) -> dict[str, object]:
        """Every node of the dependency graph, by id (the context's dict)."""
        return self.context.nodes

    def entry_before_event(self, p: Proposition) -> ContextEntry | None:
        """The live entry of ``p`` as the context held it before the current
        event: none for a key in ``arriving``.  Its one reader is acceptance,
        which may run while a kept conflict trial holds the event's content."""
        return None if p.key in self.arriving else self.context.lookup(p)

    def add_license_link(self, link: LicenseLink) -> None:
        """Store a license link under its key and index it by its conclusion."""
        self._links_to.setdefault(link.conclusion.key, []).append((len(self.license_links), link))
        self.license_links[link.key] = link

    def links_concluding(self, props: Iterable[Proposition]) -> list[LicenseLink]:
        """The stored license links that conclude one of ``props``, in the
        order ``add_license_link`` stored them."""
        found: dict[int, LicenseLink] = {}
        for p in props:
            found.update(self._links_to.get(p.key, ()))
        return [found[order] for order in sorted(found)] if found else []

    def add_acceptance(self, belief: AcceptanceBelief) -> None:
        """Add a belief to the acceptance beliefs, the graph and the index.
        The caller adds one only when ``find_acceptance`` finds none live."""
        self._acceptances[belief.proposition.key, belief.accepting_agent] = \
            (len(self.acceptance_beliefs), belief)
        self.acceptance_beliefs[belief.belief_id] = belief
        self.context.add_node(belief.belief_id, belief)

    def find_acceptance(self, p: Proposition, agent: str) -> AcceptanceBelief | None:
        """The live belief of ``agent`` in ``p``, if any: the one
        ``add_acceptance`` added last, as every earlier one is defeated."""
        found = self._acceptances.get((p.key, agent))
        return found[1] if found is not None and found[1].status == LIVE else None

    def live_acceptances_of(self, keys: Iterable[str]) -> list[AcceptanceBelief]:
        """The live beliefs of either participant in the propositions with
        ``keys``, in the order ``add_acceptance`` added them."""
        found = [pair for key in keys for agent in self.participant_ids
                 if (pair := self._acceptances.get((key, agent))) is not None
                 and pair[1].status == LIVE]
        return [belief for _, belief in sorted(found, key=lambda f: f[0])]
