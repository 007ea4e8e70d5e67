"""Small propositional language plus the graded common-ground context store.

The language is deliberately tiny: literals, conjunctive-antecedent rules,
and biconditionals between literals.  It is just enough to detect when an
utterance is informationally redundant and to chain the inferences that
dialogue annotations rely on.

Surface syntax (whitespace-insensitive)::

    atom            positive literal
    !atom           negated literal
    a & b -> c      rule with conjunctive antecedents
    a <-> !b        biconditional between two literals

Identifiers match ``[A-Za-z][A-Za-z0-9_]*`` and are case-sensitive.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Iterable, Optional, Union

from .errors import BadPropositionSyntax, ConflictDetected
from .evidence import Strength
from .saturation import Derivation, Fixpoint, Graph, Item, clashes, forced_literals, forward, \
    settle

ATOM_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*$")

LIVE = "live"
DEFEATED = "defeated"

_set = object.__setattr__  # fills the derived fields of the frozen propositions


@dataclass(frozen=True)
class Literal:
    """An atom or its negation.  ``key`` is the canonical text (``p``,
    ``!p``); it takes no part in equality, hashing or repr."""

    atom: str
    positive: bool = True
    key: str = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not ATOM_RE.match(self.atom):
            raise BadPropositionSyntax(f"bad atom name {self.atom!r}")
        _set(self, "key", self.atom if self.positive else "!" + self.atom)

    def negated(self) -> "Literal":
        # the atom was validated when self was made, so skip __post_init__
        other = object.__new__(Literal)
        _set(other, "atom", self.atom)
        _set(other, "positive", not self.positive)
        _set(other, "key", other.atom if other.positive else "!" + other.atom)
        return other

    def __str__(self) -> str:
        return self.key


@dataclass(frozen=True)
class Rule:
    """``key`` sorts the antecedents, so notational variants share it."""

    antecedents: tuple[Literal, ...]
    consequent: Literal
    key: str = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.antecedents:
            raise BadPropositionSyntax("rule with no antecedents")
        if len(set(self.antecedents)) != len(self.antecedents):
            raise BadPropositionSyntax("duplicate rule antecedents")
        _set(self, "key", " & ".join(sorted(a.key for a in self.antecedents))
             + " -> " + self.consequent.key)

    def __str__(self) -> str:
        return " & ".join(a.key for a in self.antecedents) + " -> " + self.consequent.key


@dataclass(frozen=True)
class Biconditional:
    """``key`` sorts the sides, so notational variants share it."""

    left: Literal
    right: Literal
    key: str = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        _set(self, "key", " <-> ".join(sorted((self.left.key, self.right.key))))

    def __str__(self) -> str:
        return f"{self.left.key} <-> {self.right.key}"


Proposition = Union[Literal, Rule, Biconditional]


def parse_proposition(text: str) -> Proposition:
    """Parse one proposition in the surface syntax.  Raises BadPropositionSyntax."""

    def lit(chunk: str) -> Literal:
        chunk = chunk.strip()
        neg = False
        while chunk.startswith("!"):
            neg = not neg
            chunk = chunk[1:].strip()
        try:
            return Literal(chunk, not neg)
        except BadPropositionSyntax:
            raise BadPropositionSyntax(f"bad literal {chunk!r} in {text!r}") from None

    s = text.strip()
    if not s:
        raise BadPropositionSyntax("empty proposition")
    if "<->" in s:
        left, _, right = s.partition("<->")
        if "->" in left or "->" in right or "<->" in right:
            raise BadPropositionSyntax(f"malformed biconditional {text!r}")
        return Biconditional(lit(left), lit(right))
    if "->" in s:
        head, _, tail = s.partition("->")
        if "->" in tail:
            raise BadPropositionSyntax(f"malformed rule {text!r}")
        ants = tuple(lit(a) for a in head.split("&"))
        return Rule(ants, lit(tail))
    if "&" in s:
        raise BadPropositionSyntax(f"conjunction outside a rule body: {text!r}")
    return lit(s)


@dataclass(frozen=True)
class RedundancyVerdict:
    """Outcome of a redundancy check.

    ``antecedents`` carries the ids of the utterances that already put the
    proposition (or its premises) into the context; stats over multiple and
    remote antecedents are folded from these sets.
    """

    kind: str  # "not_redundant" | "said" | "entailed"
    antecedents: frozenset[str] = frozenset()

    NOT_REDUNDANT = "not_redundant"
    SAID = "said"
    ENTAILED = "entailed"

    @property
    def redundant(self) -> bool:
        return self.kind != self.NOT_REDUNDANT


@dataclass
class ContextEntry:
    """One proposition in the common ground with its evidential bookkeeping.

    ``sources`` lists the utterances that explicitly asserted the
    proposition, in order; it is empty for purely derived entries.
    ``dependencies`` holds the entry ids a derivation rests on; a derived
    entry's strength is the MIN over those premises, capped at inference.
    """

    entry_id: str
    proposition: Proposition
    strength: Strength
    sources: tuple[str, ...] = ()
    dependencies: set[str] = field(default_factory=set)
    status: str = LIVE
    order: int = 0

    @property
    def derived(self) -> bool:
        return not self.sources


class Context:
    """Mutable common-ground store for one dialogue, and the one dependency
    graph of its discourse state.

    ``nodes`` maps every id to its node: the proposition entries, and the
    acceptance beliefs and support links that rest on them.  ``entries``
    holds the proposition entries among them, and ``utterances`` the
    dialogue's utterances by id.  Ids are allocated against every node and
    utterance, so no node overwrites or aliases another or an utterance.
    Every index names a proposition by its ``key``, which it carries from
    construction.

    For saturation the context also keeps three things: the implication
    graph of its live rules (rebuilt when a rule is inserted or raised, or an
    entry is defeated); the run of its last committed saturation (every
    settled literal's label, in pop order); and the literal keys whose seeds
    or in-edges changed since (literals inserted or raised by an assertion
    or raised by ``commit``, and the targets of inserted and raised rules).
    Defeating an entry drops the graph and the run, so the next saturation
    covers every key, as on a fresh context.

    Single-threaded per dialogue by contract; distinct dialogues never share
    a context.  ``trial`` and ``rollback`` undo what-if writes on the
    context itself.
    """

    def __init__(self):
        self.nodes: dict[str, object] = {}
        self.entries: dict[str, ContextEntry] = {}
        self.utterances: dict[str, object] = {}
        self._by_key: dict[str, str] = {}  # proposition key -> latest entry id
        self._counter = 0
        self._graph: Optional[Graph] = None  # graph at the last commit
        self._rules_changed = False  # a rule was inserted or raised since
        self._run: Optional[dict[str, Item]] = None  # last committed run
        self._changed: set[str] = set()  # literal keys with new seeds since
        self._trail: Optional[list[tuple]] = None  # undo records of a trial

    # -- plumbing ---------------------------------------------------------

    def clone(self) -> "Context":
        """Copy the entries and share the utterances and other nodes.  The
        clone sees every id, so it allocates the ids this context would; a
        defeat on the clone would reach the shared acceptance beliefs and
        support links.  The clone keeps no run, so its first saturation
        covers every key.  Off the per-event path: the conflict trial uses
        ``trial`` and ``rollback``."""
        other = Context()
        other.utterances = self.utterances
        other._counter = self._counter
        other._by_key.update(self._by_key)
        other.nodes.update(self.nodes)
        for eid, e in self.entries.items():
            other.entries[eid] = other.nodes[eid] = ContextEntry(
                entry_id=e.entry_id,
                proposition=e.proposition,
                strength=e.strength,
                sources=e.sources,
                dependencies=set(e.dependencies),
                status=e.status,
                order=e.order,
            )
        return other

    def trial(self) -> tuple:
        """Start an undo trail: from here on every write to the context is
        logged (entry fields, insertions, defeats) until ``rollback`` with
        the returned mark undoes them.  The id counter, graph, run and
        changed keys are restored as a whole.  Trials nest.  Nodes the
        context does not own (acceptance beliefs, support links) are
        restored only in their status."""
        mark = (self._trail, self._counter, self._graph, self._rules_changed, self._run,
                self._changed)
        self._trail, self._changed = [], set(self._changed)
        return mark

    def rollback(self, mark: tuple) -> None:
        """Undo every write since ``trial`` returned ``mark``."""
        for record in reversed(self._trail):
            if record[0] == "entry":
                _, entry, entry.sources, entry.strength, entry.dependencies = record
            elif record[0] == "insert":
                _, eid, key, previous = record
                del self.entries[eid], self.nodes[eid]
                if previous is None:
                    del self._by_key[key]
                else:
                    self._by_key[key] = previous
            else:
                _, node, node.status = record
        (self._trail, self._counter, self._graph, self._rules_changed, self._run,
         self._changed) = mark

    def _log(self, entry: ContextEntry) -> None:
        if self._trail is not None:
            self._trail.append(("entry", entry, entry.sources, entry.strength,
                                entry.dependencies))

    def live_entries(self) -> list[ContextEntry]:
        return [e for e in self.entries.values() if e.status == LIVE]

    def lookup(self, p: Proposition) -> Optional[ContextEntry]:
        return self.lookup_key(p.key)

    def lookup_key(self, key: str) -> Optional[ContextEntry]:
        eid = self._by_key.get(key)
        if eid is None:
            return None
        entry = self.entries[eid]
        return entry if entry.status == LIVE else None

    def fresh_id(self, prefix: str, n: int) -> str:
        """The first of ``<prefix><n>``, ``<prefix><n+1>``, ... that names no
        node and no utterance."""
        nid = f"{prefix}{n}"
        while nid in self.nodes or nid in self.utterances:
            n += 1
            nid = f"{prefix}{n}"
        return nid

    def _insert(self, p: Proposition, strength: Strength, sources: tuple[str, ...],
                dependencies: set[str]) -> ContextEntry:
        if not sources:
            self._counter += 1
            eid = self.fresh_id("d", self._counter)
        elif sources[0] in self.nodes:
            eid = self.fresh_id(sources[0] + "#", 2)
        else:
            eid = sources[0]
        self._counter += 1
        entry = ContextEntry(
            entry_id=eid,
            proposition=p,
            strength=strength,
            sources=sources,
            dependencies=dependencies,
            order=self._counter,
        )
        key = p.key
        if self._trail is not None:
            self._trail.append(("insert", eid, key, self._by_key.get(key)))
        self.entries[eid] = self.nodes[eid] = entry
        self._by_key[key] = eid
        return entry

    def _touch(self, p: Proposition) -> None:
        """Mark the literal keys whose seeds or in-edges ``p`` changes: a
        literal's own key, or the targets of a rule's edges."""
        if isinstance(p, Literal):
            self._changed.add(p.key)
            return
        self._rules_changed = True
        if isinstance(p, Rule):
            self._changed.add(p.consequent.key)
            if len(p.antecedents) == 1:
                self._changed.add(p.antecedents[0].negated().key)
        else:
            for side in (p.left, p.right):
                self._changed.add(side.key)
                self._changed.add(side.negated().key)

    # -- assertion --------------------------------------------------------

    def assert_prop(self, p: Proposition, strength: Strength, source: str) -> ContextEntry:
        """Add ``p`` at ``strength`` on behalf of utterance ``source``.

        Re-asserting an existing proposition raises its strength to the new
        value (never lowers it).  A direct contradiction with a live literal
        of equal or greater strength raises ConflictDetected; a strictly
        weaker contrary literal is defeated in place and cascaded.
        """
        existing = self.lookup_key(p.key)
        if existing is not None:
            self._log(existing)
            if source not in existing.sources:
                existing.sources = existing.sources + (source,)
            if strength > existing.strength:
                self._touch(p)
            if strength >= existing.strength:
                existing.strength = strength
                # direct assertion supersedes any derivation as support
                existing.dependencies = set()
            return existing
        if isinstance(p, Literal):
            contrary = self.lookup(p.negated())
            if contrary is not None:
                if contrary.strength >= strength:
                    raise ConflictDetected([(p, contrary.proposition)])
                self.defeat_entry(contrary.entry_id)
        self._touch(p)
        return self._insert(p, strength, (source,), set())

    def defeat_entry(self, node_id: str) -> list[str]:
        """Mark a node defeated, with every live node whose dependencies
        reach it: entries, acceptance beliefs and support links alike.  This
        is the one retraction walk.  Returns the defeated ids, sorted.  When
        an entry goes, the graph and the run go with it, and the next
        saturation covers every key; defeating only beliefs and links keeps
        both."""
        target = self.nodes.get(node_id)
        status = getattr(target, "status", LIVE)
        defeated = retract(self.nodes, node_id)
        if self._trail is not None:
            # every other defeated node was live: retract walks live nodes only
            self._trail.extend(("status", self.nodes[nid], LIVE if nid != node_id else status)
                               for nid in defeated)
        if any(nid in self.entries for nid in defeated):
            self._graph = self._run = None
            self._changed = set()
        return defeated

    # -- inference --------------------------------------------------------

    def closure(self) -> set[Literal]:
        """Forward-chain to fixpoint and return all live literals.

        Saturates (``saturate``) and commits the result (``commit``).  Raises
        ConflictDetected if the fixpoint contains both polarities of an
        atom, listing the clashing literals; the context is then unchanged.
        Off the per-event path: the engine saturates and commits itself.
        """
        self.commit(self.saturate())
        return {e.proposition for e in self.live_entries()
                if isinstance(e.proposition, Literal)}

    def saturate(self) -> Fixpoint:
        """Chain the live entries to fixpoint without writing anything.

        Mechanisms: modus ponens on rules, biconditionals expanded to both
        directional rules, contrapositives of single-antecedent rules, and
        self-refutation (a literal whose own negation implies it is forced).
        A derived literal's strength is MIN over its premises, capped at
        inference.  Labels settle in a Dijkstra order: strongest first, then
        the derivation with earliest premises.

        The saturation covers an area: the keys whose seeds or in-edges
        changed since the last commit, and every key the rule graph leads to
        from them.  It runs the labelled search on the area only
        (``saturation.settle``), and merges in the pops of the other keys
        from the last committed run, in their recorded order, by heap key.
        No edge leads out of the area, so those keys keep their labels and
        relative order, and the result is exactly the saturation of the whole
        context.  Seeding the changed keys with the stored labels as bounds
        would not be: the rank tie-break is not monotone along a path.  A
        forced label changes only through a new or raised rule whose target
        leads to the forced literal, so the area holds it already.  A fresh
        context, a clone, or one after an entry was defeated has no run: every
        live literal and every forced literal counts as changed, so the area
        is every key the search can reach.  The fixpoint holds labels, not
        entries: ``commit`` looks up the live entry of each key itself.

        Raises ConflictDetected if the fixpoint contains both polarities of
        an atom, listing the clashing literals by atom.
        """
        graph = self._graph
        if graph is None or self._rules_changed:
            graph = self._build_graph()
        run, changed = self._run, self._changed
        if run is None:
            run = {}
            changed = [e.proposition.key for e in self.entries.values()
                       if e.status == LIVE and isinstance(e.proposition, Literal)]
            changed += graph.forced.keys()
        area = forward(graph, changed)
        seeds = [_seed(e) for e in map(self.lookup_key, area) if e is not None]
        seeds += [graph.forced[key] for key in area if key in graph.forced]
        settled = settle(graph, seeds, self._rank, run, area)
        # the last run had no clash, so a clash has a key in the area
        clashing = clashes(settled, area)
        if clashing:
            raise ConflictDetected(clashing)
        fresh = [(key, (item[1], item[2])) for key, item in settled.items() if key in area]
        fresh.sort(key=lambda kv: kv[1][1].rank)
        return Fixpoint(fresh, graph, settled)

    def commit(self, fixpoint: Fixpoint) -> list[ContextEntry]:
        """Apply a fixpoint from ``saturate``: raise the live entry of each
        settled key whose label is stronger, with the label's dependencies,
        and insert the literals it derives.  Returns the inserted entries in
        insertion order.

        The entries are the ones ``saturate`` saw: commit follows it, or a
        rollback that replays the same assertions under the same ids.  A
        label other than its entry's own seed is derived, so already capped
        at inference; one resting on the entry's own id starts from that
        seed, which settles the key first and never raises it.

        The context keeps the fixpoint's graph and run.  The raised keys
        become the changed keys of the next saturation, since a raised
        entry's own seed may now win its label.  An inserted entry's seed
        ranks after every premise of its derivation, so it never pops first
        and its key stays unchanged.  Keys outside the fixpoint's area kept
        their labels, so committing them again would change nothing."""
        self._graph, self._rules_changed, self._run = fixpoint.graph, False, fixpoint.run
        self._changed = set()
        inserted = []
        for key, (lit, deriv) in fixpoint.settled:
            existing = self.lookup_key(key)
            if existing is None:
                inserted.append(self._insert(lit, deriv.strength, (), set(deriv.deps)))
            elif deriv.strength > existing.strength:
                self._log(existing)
                existing.strength = deriv.strength
                existing.dependencies = set(deriv.deps)
                self._changed.add(key)
        return inserted

    def _rank(self, deps: Iterable[str]) -> tuple[int, ...]:
        return tuple(sorted(self.entries[d].order for d in deps))

    def _build_graph(self) -> Graph:
        edges: dict[str, list[tuple[Literal, str, Strength, int]]] = {}
        multis: dict[str, list[tuple[tuple[Literal, ...], Literal, str, Strength]]] = {}
        for e in self.entries.values():
            p = e.proposition
            if e.status != LIVE or isinstance(p, Literal):
                continue
            if isinstance(p, Rule):
                if len(p.antecedents) > 1:
                    rule = (p.antecedents, p.consequent, e.entry_id, e.strength)
                    for a in p.antecedents:
                        multis.setdefault(a.key, []).append(rule)
                    continue
                a = p.antecedents[0]
                pairs = ((a, p.consequent), (p.consequent.negated(), a.negated()))
            else:
                l, r = p.left, p.right
                pairs = ((l, r), (r, l), (r.negated(), l.negated()), (l.negated(), r.negated()))
            for src, dst in pairs:
                edges.setdefault(src.key, []).append((dst, e.entry_id, e.strength, e.order))
        return Graph(edges, multis, forced_literals(edges))

    # -- redundancy -------------------------------------------------------

    def is_redundant(self, p: Proposition) -> RedundancyVerdict:
        """Classify ``p`` against the current context.

        ``said`` if an identical proposition was explicitly asserted (the
        verdict lists every asserting utterance); ``entailed`` if it is a
        live derived entry that was never asserted (the verdict lists the
        asserted roots of its derivation); ``not_redundant`` otherwise.
        Call closure() first so derived entries are current.
        """
        entry = self.lookup(p)
        if entry is None:
            return RedundancyVerdict(RedundancyVerdict.NOT_REDUNDANT)
        if entry.sources:
            return RedundancyVerdict(RedundancyVerdict.SAID, frozenset(entry.sources))
        return RedundancyVerdict(RedundancyVerdict.ENTAILED,
                                 frozenset(self.asserted_roots(entry)))

    def asserted_roots(self, entry: ContextEntry) -> set[str]:
        """Utterances at the bottom of an entry's derivation chain."""
        roots: set[str] = set()
        seen: set[str] = set()
        stack = list(entry.dependencies)
        while stack:
            eid = stack.pop()
            if eid in seen:
                continue
            seen.add(eid)
            e = self.entries[eid]
            if e.sources:
                roots.update(e.sources)
            else:
                stack.extend(e.dependencies)
        return roots


def _seed(entry: ContextEntry) -> Item:
    """The saturation's seed item for a live literal entry."""
    return ((-entry.strength, (entry.order,), entry.proposition.key), entry.proposition,
            Derivation(entry.strength, frozenset([entry.entry_id]), (entry.order,)))


def retract(nodes: dict, target_id: str) -> list[str]:
    """Mark ``target_id`` defeated plus everything whose dependency closure
    reaches it.  Returns the defeated ids, sorted.  ``nodes`` maps ids to
    objects with ``status`` and ``dependencies`` attributes; dependency ids
    with no node (e.g. raw event ids kept for provenance) are ignored, and
    nodes that are not live neither join nor pass the defeat on."""
    if target_id not in nodes:
        raise KeyError(target_id)
    dependents: dict[str, list[str]] = {}
    for nid, node in nodes.items():
        if getattr(node, "status", LIVE) == LIVE:
            for dep in node.dependencies:
                dependents.setdefault(dep, []).append(nid)
    defeated = {target_id}
    frontier = [target_id]
    while frontier:
        for nid in dependents.get(frontier.pop(), ()):
            if nid not in defeated:
                defeated.add(nid)
                frontier.append(nid)
    result = sorted(defeated)
    for nid in result:
        nodes[nid].status = DEFEATED
    return result
