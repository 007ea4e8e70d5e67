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

The package's value types are ``NamedTuple`` records or slotted classes
(``Slotted``, ``Frozen``), not the standard library's data classes: that
decorator generates and compiles each class's methods on every import, and
its module imports ``inspect``.
"""

from __future__ import annotations

import re
from typing import Iterable, NamedTuple, Optional, Union

from .errors import BadPropositionSyntax, ConflictDetected
from .evidence import Strength
# the status names stay importable from here, as the package does
from .retraction import DEFEATED, LIVE, add_dependents, retract  # noqa: F401
from .saturation import Derivation, Fixpoint, Graph, Item, boundary, clashes, contrary, \
    forward, put, settle

ATOM_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*$")


class Slotted:
    """Equality and repr over the fields named in ``_fields``: an instance
    equals only an instance of the same class, and shows as
    ``Name(field=value, ...)``.  Defining ``__eq__`` leaves a subclass
    unhashable unless it defines ``__hash__``, as ``Frozen`` does.

    The constructors that run once or more per event (``ContextEntry``,
    ``AcceptanceBelief``, ``AssumptionRecord``, ``UtteranceEvent``, and the
    ``NamedTuple`` records ``TraceRecord`` and ``AcceptanceOutcome``) are
    called positionally: the interpreter matches each keyword argument to a
    parameter by name on every call, which costs a per-event path more than
    the binding itself."""

    __slots__ = ()
    _fields: tuple[str, ...]  # set by each subclass

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"


class Frozen(Slotted):
    """A ``Slotted`` class whose attributes are set once, by ``__init__``
    through ``object.__setattr__``: rebinding or deleting one raises
    AttributeError.  It hashes its ``_fields``, which are the parameters of
    its ``__init__`` in order."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values())

    def __reduce__(self):  # copies and pickles rebuild through __init__
        return type(self), self._values()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Literal(Frozen):
    """An atom or its negation.  ``key`` is the canonical text (``p``,
    ``!p``); it takes no part in equality, hashing or repr."""

    __slots__ = ("atom", "positive", "key")
    _fields = ("atom", "positive")

    def __init__(self, atom: str, positive: bool = True):
        if not ATOM_RE.match(atom):
            raise BadPropositionSyntax(f"bad atom name {atom!r}")
        object.__setattr__(self, "atom", atom)
        object.__setattr__(self, "positive", positive)
        object.__setattr__(self, "key", atom if positive else "!" + atom)

    def negated(self) -> "Literal":
        return Literal(self.atom, not self.positive)

    def __str__(self) -> str:
        return self.key


class Rule(Frozen):
    """``key`` sorts the antecedents, so notational variants share it.
    ``edges`` holds the implication edges of a single-antecedent rule: the
    rule and then its contrapositive; a rule with several antecedents has
    none.  Neither takes part in equality, hashing or repr."""

    __slots__ = ("antecedents", "consequent", "key", "edges")
    _fields = ("antecedents", "consequent")

    def __init__(self, antecedents: tuple[Literal, ...], consequent: Literal):
        if not antecedents:
            raise BadPropositionSyntax("rule with no antecedents")
        if len(set(antecedents)) != len(antecedents):
            raise BadPropositionSyntax("duplicate rule antecedents")
        object.__setattr__(self, "antecedents", antecedents)
        object.__setattr__(self, "consequent", consequent)
        object.__setattr__(self, "key", " & ".join(sorted(a.key for a in antecedents))
                           + " -> " + consequent.key)
        a, c = antecedents[0], consequent
        object.__setattr__(self, "edges", ((a, c), (c.negated(), a.negated()))
                           if len(antecedents) == 1 else ())

    def __str__(self) -> str:
        return " & ".join(a.key for a in self.antecedents) + " -> " + self.consequent.key


class Biconditional(Frozen):
    """``key`` sorts the sides, so notational variants share it.  ``edges``
    holds its implication edges: both ways, and then their contrapositives
    in the same order.  Neither takes part in equality, hashing or repr."""

    __slots__ = ("left", "right", "key", "edges")
    _fields = ("left", "right")

    def __init__(self, left: Literal, right: Literal):
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)
        object.__setattr__(self, "key", " <-> ".join(sorted((left.key, right.key))))
        not_l, not_r = left.negated(), right.negated()
        object.__setattr__(self, "edges", ((left, right), (right, left), (not_r, not_l),
                                           (not_l, not_r)))

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


class RedundancyVerdict(NamedTuple):
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


#: the one verdict ``Context.is_redundant`` gives every proposition it does not hold
_NOT_REDUNDANT = RedundancyVerdict(RedundancyVerdict.NOT_REDUNDANT)


class ContextEntry(Slotted):
    """One proposition in the common ground with its evidential bookkeeping.

    ``sources`` lists the utterances that explicitly asserted the
    proposition, in order; it is empty for purely derived entries.
    ``dependencies`` holds the entry ids a derivation rests on; a derived
    entry's strength is the MIN over those premises, capped at inference.
    An entry joins a context's dependency graph through ``Context.add_node``,
    as every node does; the context indexes the dependencies it writes.
    """

    _fields = __slots__ = ("entry_id", "proposition", "strength", "sources", "dependencies",
                           "status", "order")

    def __init__(self, entry_id: str, proposition: Proposition, strength: Strength,
                 sources: tuple[str, ...] = (), dependencies: Optional[set[str]] = None,
                 status: str = LIVE, order: int = 0):
        self.entry_id = entry_id
        self.proposition = proposition
        self.strength = strength
        self.sources = sources
        self.dependencies = set() if dependencies is None else dependencies
        self.status = status
        self.order = order

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
    construction.  Every node joins through ``add_node``, beliefs and links
    gain dependencies through ``depend``, and ``commit`` indexes those it
    gives an entry: so the context keeps the index ``retract`` walks, for
    each id the nodes whose dependencies may hold it.

    For saturation the context also keeps three things, each written only
    where an assertion, a defeat or a commit changes it: the implication
    graph of its live rules (``saturation.Graph``: a rule's edges join when
    it is inserted, are replaced when it is raised and go when it is
    defeated); the run, every literal's item as its committed saturations
    settled it; and the literal keys whose seeds or in-edges changed since
    the last commit (literals inserted or raised by an assertion or raised by
    ``commit``, the keys of defeated literals, the targets of the rules
    inserted, raised or defeated, and the literals whose forced seed changed).

    Single-threaded per dialogue by contract; distinct dialogues never share
    a context.  Every write logs one undo record ``(holder, slot, old)``, a
    dict slot (``saturation.put``) or an attribute (an entry's field, a
    node's status), on the trail the graph shares; ``trial`` marks a
    position on it for ``rollback`` to undo back to, or ``keep`` to close.
    """

    def __init__(self):
        self.nodes: dict[str, object] = {}
        self.entries: dict[str, ContextEntry] = {}
        self.utterances: dict[str, object] = {}
        self._by_key: dict[str, str] = {}  # proposition key -> latest entry id
        self._dependents: dict[str, set[str]] = {}  # id -> nodes that may depend on it
        self._counter = 0
        self._trail: list[tuple] = []  # undo records: (dict, key, old) or (object, name, old)
        self._trials = 0  # open trials
        self._graph = Graph(self._trail)
        self._run: dict[str, Item] = {}  # key -> settled item, as last committed
        self._changed: set[str] = set()  # literal keys with new seeds or in-edges since

    # -- plumbing ---------------------------------------------------------

    def clone(self) -> "Context":
        """Copy the entries and share the utterances and other nodes.  The
        clone sees every id, so it allocates the ids this context would; a
        defeat on the clone would reach the shared acceptance beliefs and
        support links.  The clone enters its live entries as an assertion
        does and has no run, so its first saturation covers every key.  Off
        the per-event path: the conflict trial runs on the context itself
        (``trial``)."""
        other = Context()
        other.utterances = self.utterances
        other._counter = self._counter
        other._by_key.update(self._by_key)
        other.nodes.update(self.nodes)
        other._dependents = {nid: set(ids) for nid, ids in self._dependents.items()}
        for eid, e in self.entries.items():
            entry = other.entries[eid] = other.nodes[eid] = ContextEntry(
                e.entry_id, e.proposition, e.strength, e.sources, set(e.dependencies),
                e.status, e.order)
            if entry.status == LIVE:
                other._enter(entry)
        return other

    def trial(self) -> int:
        """Open a trial and return its mark, the trail's length: ``rollback``
        undoes every write after it and ``keep`` lets them stand.  Each trial
        logs the id counter and the changed keys, restored as a whole; an
        outermost one first empties the trail, as nothing can undo the writes
        before it.  Trials nest.  Of the nodes the context does not own
        (acceptance beliefs, support links), a rollback restores only their
        status and their slot in ``nodes``."""
        if not self._trials:
            self._trail.clear()
        self._trials += 1
        mark = len(self._trail)
        self._trail.extend(((self, "_counter", self._counter), (self, "_changed", self._changed)))
        self._changed = set(self._changed)
        return mark

    def rollback(self, mark: int) -> None:
        """Undo every write after ``mark``, latest first, and close its trial."""
        trail = self._trail
        while len(trail) > mark:
            holder, slot, old = trail.pop()
            if holder.__class__ is not dict:
                setattr(holder, slot, old)
            elif old is None:
                holder.pop(slot, None)
            else:
                holder[slot] = old
        self._trials -= 1

    def keep(self, mark: int) -> None:
        """Close the trial that returned ``mark`` and let its writes stand.
        The outermost one empties the trail: nothing can undo its writes, and
        its records of the context would hold it in a reference cycle."""
        self._trials -= 1
        if not self._trials:
            self._trail.clear()

    def _set(self, node, name: str, value) -> None:
        """Set attribute ``name`` of ``node``, logging its old value."""
        self._trail.append((node, name, getattr(node, name)))
        setattr(node, name, value)

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

    def add_node(self, node_id: str, node) -> None:
        """Add ``node`` (anything with ``status`` and ``dependencies``) to the
        dependency graph under ``node_id``, and index its dependencies."""
        put(self._trail, self.nodes, node_id, node)
        add_dependents(self._dependents, node_id, node.dependencies)

    def depend(self, node_id: str, ids: Iterable[str]) -> None:
        """Add ``ids`` to the dependencies of node ``node_id``: how the
        acceptance beliefs and support links, which the context does not
        own, gain them."""
        self.nodes[node_id].dependencies.update(ids)
        add_dependents(self._dependents, node_id, ids)

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
        entry = ContextEntry(eid, p, strength, sources, dependencies, LIVE, self._counter)
        put(self._trail, self.entries, eid, entry)
        self.add_node(eid, entry)
        put(self._trail, self._by_key, p.key, eid)
        return entry

    def _enter(self, entry: ContextEntry) -> None:
        """Mark what a live entry brings to saturation: a literal's seed, or
        a rule's edges, which join the graph."""
        p = entry.proposition
        if isinstance(p, Literal):
            self._changed.add(p.key)
        else:
            self._changed |= self._graph.link(entry.entry_id, entry.strength, entry.order, p)

    def _leave(self, entry: ContextEntry) -> None:
        """Mark what an entry takes from saturation: a literal's seed, or a
        rule's edges, which leave the graph."""
        p = entry.proposition
        if isinstance(p, Literal):
            self._changed.add(p.key)
        else:
            self._changed |= self._graph.unlink(entry.entry_id, p)

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
            if source not in existing.sources:
                self._set(existing, "sources", existing.sources + (source,))
            raised = strength > existing.strength
            if strength >= existing.strength:
                self._set(existing, "strength", strength)
                # direct assertion supersedes any derivation as support
                self._set(existing, "dependencies", set())
            if raised:  # its seed or its edges now carry the new strength
                self._leave(existing)
                self._enter(existing)
            return existing
        if isinstance(p, Literal):
            other = self.lookup_key(contrary(p))
            if other is not None:
                if other.strength >= strength:
                    raise ConflictDetected([(p, other.proposition)])
                self.defeat_entry(other.entry_id)
        entry = self._insert(p, strength, (source,), set())
        self._enter(entry)
        return entry

    def defeat_entry(self, node_id: str) -> list[str]:
        """Mark a node defeated, with every live node whose dependencies
        reach it: entries, acceptance beliefs and support links alike.  This
        is the one retraction walk.  Returns the defeated ids, sorted.  Each
        entry that goes leaves saturation (``_leave``): a literal's key
        changes, and a rule's edges leave the graph, which changes their
        targets.  Every key whose committed label rested on a defeated entry
        is reached from those keys (see ``saturate``), so the next saturation
        covers it; defeating only beliefs and links changes nothing there."""
        target = self.nodes.get(node_id)
        status = getattr(target, "status", LIVE)
        defeated = retract(self.nodes, node_id, self._dependents)
        # every other defeated node was live: retract walks live nodes only
        self._trail.extend((self.nodes[nid], "status", LIVE if nid != node_id else status)
                           for nid in defeated)
        for nid in defeated:
            entry = self.entries.get(nid)
            if entry is not None and (nid != node_id or status == LIVE):
                self._leave(entry)
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
        the smallest rank (premise orders, latest first).

        The saturation covers an area: the keys whose seeds or in-edges
        changed since the last commit, and every key the rule graph leads to
        from them.  It runs the labelled search on the area only, and merges
        in the run's items of the keys outside the area with an edge or a
        rule into it, where a search over every key would pop them
        (``saturation.settle``).  No edge leads out of the area, so the other
        keys keep their labels, and the result is exactly the saturation of
        the whole context.  Seeding the changed keys with the stored labels as
        bounds would not be: a label that gains strength can, once capped at
        inference, pass on a greater rank than the label it replaced.

        A label outside the area never rests on a defeated entry.  Follow its
        derivation from the last defeated entry in it to the key: that
        entry's key, or the target of its edge, changed, and every later
        step is an edge or a rule still in the graph.  So the area holds
        every key whose label rested on a defeated entry, also one whose own
        entry stays live because its label was a derivation of equal strength
        and smaller rank.  A forced label changes only with an edge on a
        chain from its negation to it, and then its key counts as changed.
        A fresh context and a clone have no run, and every live entry counted
        as changed when it entered, so the area is every key the search can
        reach.  The fixpoint holds labels, not entries: ``commit`` looks up
        the live entry of each key itself.

        Raises ConflictDetected if the fixpoint contains both polarities of
        an atom, listing the clashing literals by atom.
        """
        graph, run = self._graph, self._run
        area = forward(graph, self._changed)
        seeds = [_seed(e) for e in map(self.lookup_key, area) if e is not None]
        seeds += [graph.forced[key] for key in area if key in graph.forced]
        settled = settle(graph, seeds, self._rank, boundary(graph, run, area), area)
        # the run has no clash, so a clash has a key in the area
        clashing = clashes(settled, run, area)
        if clashing:
            raise ConflictDetected(clashing)
        fresh = [(key, (item[1], item[2])) for key, item in settled.items() if key in area]
        fresh.sort(key=lambda kv: kv[1][1].rank[::-1])
        return Fixpoint(fresh, {key: settled.get(key) for key in area})

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

        The context stores the fixpoint's items of its area in the run.  The
        raised keys become the changed keys of the next saturation, since a
        raised entry's own seed may now win its label.  An inserted entry's
        seed ranks after every premise of its derivation, so it never pops
        first and its key stays unchanged.  Keys outside the fixpoint's area
        kept their labels, so committing them again would change nothing."""
        for key, item in fixpoint.run.items():
            put(self._trail, self._run, key, item)
        self._changed = set()
        inserted = []
        for key, (lit, deriv) in fixpoint.settled:
            existing = self.lookup_key(key)
            if existing is None:
                inserted.append(self._insert(lit, deriv.strength, (), set(deriv.deps)))
            elif deriv.strength > existing.strength:
                self._set(existing, "strength", deriv.strength)
                self._set(existing, "dependencies", set(deriv.deps))
                add_dependents(self._dependents, existing.entry_id, deriv.deps)
                self._changed.add(key)
        return inserted

    def _rank(self, deps: Iterable[str]) -> tuple[int, ...]:
        return tuple(sorted((self.entries[d].order for d in deps), reverse=True))

    # -- redundancy -------------------------------------------------------

    def is_redundant(self, p: Proposition) -> RedundancyVerdict:
        """Classify ``p`` against the current context.

        ``said`` if an identical proposition was explicitly asserted (the
        verdict lists every asserting utterance); ``entailed`` if it is a
        live derived entry that was never asserted (the verdict lists the
        asserted roots of its derivation); ``not_redundant`` otherwise.
        Derived entries are current wherever the last assertion was
        saturated and committed, as the engine does for every event.
        """
        entry = self.lookup(p)
        if entry is None:
            return _NOT_REDUNDANT
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
