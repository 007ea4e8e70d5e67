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
from functools import lru_cache
from typing import Iterable, NamedTuple, Optional, Union

from .errors import BadPropositionSyntax, ConflictDetected, DefeatRejected
from .evidence import Strength
from .saturation import Graph, Item, clashes, contrary, forward, put, settle

ATOM_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
new_record = tuple.__new__  # (cls, every field's value) -> a NamedTuple record; see Slotted
#: the status of a node of the dependency graph (``Context``)
LIVE = "live"
DEFEATED = "defeated"


class Slotted:
    """Equality and repr over the fields named in ``_fields``: an instance
    equals only an instance of the same class, and shows as
    ``Name(field=value, ...)``.  Defining ``__eq__`` leaves a subclass
    unhashable unless it defines ``__hash__``, as ``Frozen`` does.

    The constructors that run once or more per event (``ContextEntry``,
    ``AcceptanceBelief``, ``AssumptionRecord``) are called positionally: the
    interpreter matches each keyword argument by name on every call.  The
    event path builds its ``NamedTuple`` records with ``new_record(cls,
    values)``, which is ``tuple.__new__``: it costs half the ``__new__`` that
    ``NamedTuple`` generates in Python, but checks no arity and fills in no
    default, so each call passes every field, in order."""

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
    its ``__init__`` in order.  It serves only ``Literal``, ``Rule`` and
    ``Biconditional``."""

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
        if not ATOM_RE.fullmatch(atom):
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
    ``steps`` holds its ``(target, antecedents)`` implication steps: the
    rule, then for a single antecedent its contrapositive.  Neither takes
    part in equality, hashing or repr."""

    __slots__ = ("antecedents", "consequent", "key", "steps")
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
        object.__setattr__(self, "steps", ((c, antecedents), (a.negated(), (c.negated(),)))
                           if len(antecedents) == 1 else ((c, antecedents),))

    def __str__(self) -> str:
        return " & ".join(a.key for a in self.antecedents) + " -> " + self.consequent.key


class Biconditional(Frozen):
    """``key`` sorts the sides, so notational variants share it.  ``steps``
    holds its steps both ways, then their contrapositives in the same
    order.  Neither takes part in equality, hashing or repr."""

    __slots__ = ("left", "right", "key", "steps")
    _fields = ("left", "right")

    def __init__(self, left: Literal, right: Literal):
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)
        object.__setattr__(self, "key", " <-> ".join(sorted((left.key, right.key))))
        not_l, not_r = left.negated(), right.negated()
        object.__setattr__(self, "steps", ((right, (left,)), (left, (right,)),
                                           (not_l, (not_r,)), (not_r, (not_l,))))

    def __str__(self) -> str:
        return f"{self.left.key} <-> {self.right.key}"


Proposition = Union[Literal, Rule, Biconditional]


@lru_cache(maxsize=4096)
def parse_proposition(text: str) -> Proposition:
    """Parse one proposition in the surface syntax.  Raises BadPropositionSyntax.

    Results are memoized on the exact text, across documents: propositions
    are immutable, so every caller may share one.  A text that does not parse
    is never stored, so each line it is on reports it.  The bound limits the
    memory a long-running caller spends on texts it will not see again."""

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
#: a label's negated strength -> the strength
_STRENGTH = {-s: s for s in Strength}


class ContextEntry(Slotted):
    """One proposition in the common ground with its evidential bookkeeping.

    ``sources`` lists the utterances that explicitly asserted the
    proposition, in order; it is empty for purely derived entries.
    ``dependencies`` holds the entry ids a derivation rests on; a derived
    entry's strength is the MIN over those premises, capped at inference.
    An entry joins a context's dependency graph through ``Context.add_node``,
    as every node does; the context indexes the dependencies it writes.
    A literal entry's ``label`` is the item its key last settled with
    (``saturation.Item``), or None for its seed; it takes no part in
    equality or repr, and only ``Context.commit`` writes it.
    """

    _fields = ("entry_id", "proposition", "strength", "sources", "dependencies", "status",
               "order")
    __slots__ = _fields + ("label",)

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
        self.label = None

    @property
    def derived(self) -> bool:
        return not self.sources


class Context:
    """Mutable common-ground store for one dialogue, and the one dependency
    graph of its discourse state.

    ``nodes`` maps every id to its node: the proposition entries
    (``entries``), and the acceptance beliefs and support links that rest on
    them; ``utterances`` maps ids to the dialogue's utterances.  Ids are
    allocated against every node and utterance, so none aliases another.
    Every index names a proposition by its ``key``.  ``_live`` maps each key
    with a live entry to that entry; other modules read it through
    ``lookup`` and ``lookup_key``.  Nodes join through ``add_node`` (entries
    through ``_insert``) and gain dependencies through ``depend`` or
    ``commit``, and each of these indexes them for ``retract``: for each id,
    the nodes whose dependencies may hold it.  The index only grows, and a
    raise replaces an entry's dependencies, so ``retract`` checks each node.

    For saturation the context keeps the implication graph of its rules
    (``saturation.Graph``), which only grows, as a rule once entered is
    never defeated: a rule's steps join when it is inserted and again at
    each raise; and the changed keys, the mentioned keys
    (``Graph.mentions``) whose seeds or in-steps changed since the last
    commit (a literal an assertion inserts or raises, a defeat takes or a
    commit raises; a rule's targets; a key whose forced seed changed).  The
    labels' invariant, which ``saturate`` rests on and ``commit`` keeps:
    each live literal entry's ``label`` is the item its key settled with in
    the last commit of an area holding it, or None when none did, and then
    its label is its seed (``_label``).  A defeated entry's label is never
    read.  A fresh context's and a clone's entries have no label, and they
    count as changed every mentioned key with a live entry or a step in.

    Single-threaded per dialogue by contract.  Every write logs one undo
    record ``(holder, slot, old)``, a dict slot (``saturation.put``) or an
    attribute, on the trail the graph shares; ``trial`` marks a position on
    it for ``rollback`` to undo back to, or ``keep`` to close.
    """

    def __init__(self):
        self.nodes: dict[str, object] = {}
        self.entries: dict[str, ContextEntry] = {}
        self.utterances: dict[str, object] = {}
        self._live: dict[str, ContextEntry] = {}  # proposition key -> its live entry
        self._dependents: dict[str, set[str]] = {}  # id -> nodes that may depend on it
        self._counter = 0
        self._trail: list[tuple] = []  # undo records: (dict, key, old) or (object, name, old)
        self._trials = 0  # open trials
        self._graph = Graph(self._trail)
        self._changed: set[str] = set()  # mentioned keys with new seeds or in-steps since

    # -- plumbing ---------------------------------------------------------

    def clone(self) -> "Context":
        """Copy the entries and share the utterances and other nodes.  The
        clone sees every id, so it allocates the ids this context would; a
        defeat on the clone would reach the shared acceptance beliefs and
        support links.  The clone enters its live entries as an assertion
        does, with no label, so its first saturation covers every mentioned
        key.  Off the per-event path: the conflict trial runs on the context
        itself (``trial``)."""
        other = Context()
        other.utterances = self.utterances
        other._counter = self._counter
        other.nodes.update(self.nodes)
        other._dependents = {nid: set(ids) for nid, ids in self._dependents.items()}
        for eid, e in self.entries.items():
            entry = other.entries[eid] = other.nodes[eid] = ContextEntry(
                e.entry_id, e.proposition, e.strength, e.sources, set(e.dependencies),
                e.status, e.order)
            if entry.status == LIVE:
                other._live[entry.proposition.key] = entry
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
        return self._live.get(p.key)

    def lookup_key(self, key: str) -> Optional[ContextEntry]:
        return self._live.get(key)

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
        entries, nodes, live, key = self.entries, self.nodes, self._live, p.key
        self._trail += ((entries, eid, entries.get(eid)), (nodes, eid, nodes.get(eid)),
                        (live, key, live.get(key)))  # each as ``put`` logs it
        entries[eid] = nodes[eid] = live[key] = entry
        if dependencies:
            add_dependents(self._dependents, eid, dependencies)
        return entry

    def _enter(self, entry: ContextEntry) -> None:
        """Mark what a live entry brings to saturation at its strength: a
        literal's seed, or a rule's steps, which join the graph."""
        p = entry.proposition
        if isinstance(p, Literal):
            self._mark(p.key)
        else:
            self._changed |= self._graph.link(entry.entry_id, entry.strength, entry.order, p)

    def _mark(self, key: str) -> None:
        if self._graph.mentions(key):  # else no label but its own seed rests on it
            self._changed.add(key)

    def _label(self, key: str) -> Optional[Item]:
        """The item of ``key`` as last committed: its live entry's label, else
        that entry's seed; None with no live entry."""
        entry = self._live.get(key)
        if entry is not None:
            return entry.label or _seed(entry)
        return None

    # -- assertion --------------------------------------------------------

    def assert_prop(self, p: Proposition, strength: Strength, source: str) -> ContextEntry:
        """Add ``p`` at ``strength`` on behalf of utterance ``source``.

        Re-asserting an existing proposition raises its strength to the new
        value (never lowers it).  A literal whose contrary is live, at any
        strength, raises ConflictDetected before any write: the store
        reports a clash and never settles it, as defeats belong to the
        caller (``acceptance.defeat``).
        """
        key = p.key
        existing = self._live.get(key)
        if existing is not None:
            if source not in existing.sources:
                self._set(existing, "sources", existing.sources + (source,))
            raised = strength > existing.strength
            if strength >= existing.strength:
                self._set(existing, "strength", strength)
                # direct assertion supersedes any derivation as support
                self._set(existing, "dependencies", set())
            if raised:  # its seed, or its steps once more, at the new strength
                self._enter(existing)
            return existing
        if isinstance(p, Literal):
            other = self._live.get(contrary(key))
            if other is not None:
                raise ConflictDetected([(p, other.proposition)])
        entry = self._insert(p, strength, (source,), set())
        graph = self._graph
        if not isinstance(p, Literal):
            self._enter(entry)
        elif key in graph.into or key in graph.steps:  # _mark, inline
            self._changed.add(key)
        return entry

    def assert_all(self, props: tuple, strength: Strength, source: str) -> list[Item]:
        """Assert each of ``props`` (``assert_prop``), then saturate; returns
        the settled items for ``commit``.  Raises ConflictDetected as they do."""
        for p in props:
            self.assert_prop(p, strength, source)
        return self.saturate()

    def defeat_entry(self, node_id: str) -> list[str]:
        """Mark a node defeated, with every live node whose dependencies
        reach it (``retract``): entries, acceptance beliefs and support links
        alike.  Returns the defeated ids, sorted.  This is the one place a
        node's status changes, each write logged (``_set``).

        A target that is not live, or a defeat whose ids hold a rule entry
        (a rule stays in the implication graph), raises DefeatRejected,
        naming them, before any write.  Each literal entry that goes leaves
        ``_live`` and marks its key changed (``_mark``), from which the next
        saturation reaches every label that rested on it (``saturate``)."""
        defeated = retract(self.nodes, node_id, self._dependents)
        if self.nodes[node_id].status != LIVE:
            raise DefeatRejected(f"already defeated: {node_id}")
        entries = self.entries
        rules = [nid for nid in defeated
                 if nid in entries and not isinstance(entries[nid].proposition, Literal)]
        if rules:
            raise DefeatRejected(f"a rule stays in the implication graph: {', '.join(rules)}")
        for nid in defeated:  # each one live: the target, and what retract found
            node = self.nodes[nid]
            if nid in entries:
                put(self._trail, self._live, node.proposition.key, None)
                self._mark(node.proposition.key)
            self._set(node, "status", DEFEATED)
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

    def saturate(self) -> list[Item]:
        """Chain the live entries to fixpoint without writing anything.

        Mechanisms: modus ponens on rules, biconditionals expanded to both
        directional rules, contrapositives of single-antecedent rules, and
        self-refutation (a literal whose own negation implies it is forced).
        A derived literal's strength is MIN over its premises, capped at
        inference.  Labels settle in a Dijkstra order: strongest first, then
        the smallest rank (premise orders, latest first); equal labels in
        pop order, which is key order.

        The search covers an area: the changed keys and every key the rule
        graph leads to from them; with none changed it returns an empty
        list.  Its items are the area's seeds and forced seeds, and the
        labels (``_label``) of the keys outside it with a step into it,
        merged in where a search over every key would pop them
        (``saturation.settle``).  No step
        leads out of the area, so the other keys keep their labels and
        the result is the saturation of the whole context.  Seeding the
        changed keys with their stored labels as bounds would not be: a
        label that gains strength can, once capped at inference, pass on a
        greater rank than the label it replaced.  Only mentioned keys count
        as changed: an unmentioned key has no derivation, no forced seed and
        no step out.

        A label outside the area never rests on a defeated entry.  Only
        literals are defeated, and the graph only grows.  Follow a label's
        derivation from the last defeated entry in it to the key: a step
        after it makes that entry's key mentioned, so changed, and every
        later step is in the graph.  So the area holds every key whose label
        rested on a defeated entry, also one whose own entry stays live
        because its label was a derivation of equal strength and smaller
        rank.  A forced label changes only with a step on a chain from its
        negation to it, and then its key counts as changed.

        Returns the items the area settled, in commit order: earliest
        premises first, and equal ranks in pop order.  ``commit`` looks up
        each key's live entry itself.  Raises ConflictDetected if the
        fixpoint contains both polarities of an atom, listing the clashing
        literals by atom.
        """
        if not self._changed:
            return []
        graph, live, label = self._graph, self._live, self._label
        area = forward(graph, self._changed)
        items, sources = [], set()
        for key in area:
            entry = live.get(key)
            if entry is not None:
                items.append(_seed(entry))
            if key in graph.forced:
                items.append(graph.forced[key])
            sources.update(graph.into.get(key, ()))
        for key in sources - area:  # a k said before k -> m has its seed
            item = label(key)
            if item is not None:
                items.append(item)
        settled = settle(graph, items, area)
        # the labels outside the area have no clash, so a clash has a key in it
        clashing = clashes(settled, label, area)
        if clashing:
            raise ConflictDetected(clashing)
        # in pop order, which orders equal ranks
        fresh = [item for key, item in settled.items() if key in area]
        if len(fresh) > 1:  # by rank, earliest premise first
            fresh.sort(key=lambda item: item[1][::-1])
        return fresh

    def commit(self, settled: list[Item]) -> list[ContextEntry]:
        """Apply the items ``saturate`` settled: raise the live entry of each
        key whose label is stronger, with the label's premises as
        dependencies, insert the literals they derive, and store each item
        as its entry's ``label``.  Returns the inserted entries in insertion
        order.

        The entries are the ones ``saturate`` saw: commit follows it, or a
        rollback that replays the same assertions under the same ids.  A
        label other than its entry's own seed is derived, so already capped
        at inference; one resting on the entry's own id starts from that
        seed, which settles the key first and never raises it.

        It keeps the labels' invariant (``Context``): the raised keys become
        the changed keys, since a raised entry's own seed may now win its
        label.  An inserted entry's seed ranks after every premise of its
        derivation, so it never pops first and its key stays unchanged.  A
        key of the area that settles nothing has no live entry, so no label
        to keep."""
        self._changed = set()
        inserted = []
        for item in settled:
            negated, _, key, lit, deps = item
            strength, entry = _STRENGTH[negated], self._live.get(key)
            if entry is None:
                entry = self._insert(lit, strength, (), set(deps))
                inserted.append(entry)
            elif strength > entry.strength:
                self._set(entry, "strength", strength)
                self._set(entry, "dependencies", set(deps))
                add_dependents(self._dependents, entry.entry_id, deps)
                self._changed.add(key)
            self._set(entry, "label", item)
        return inserted

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
            return new_record(RedundancyVerdict, (RedundancyVerdict.SAID, frozenset(entry.sources)))
        roots = frozenset(self.asserted_roots(entry))
        return new_record(RedundancyVerdict, (RedundancyVerdict.ENTAILED, roots))

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


def add_dependents(index: dict[str, set[str]], node_id: str, ids: Iterable[str]) -> None:
    """Record in a reverse-dependency index that ``node_id`` depends on ``ids``."""
    for dep in ids:
        index.setdefault(dep, set()).add(node_id)


def retract(nodes: dict, target_id: str, dependents: dict[str, Iterable[str]]) -> list[str]:
    """The ids of ``target_id`` and of every live node whose dependency
    closure reaches it, sorted; it writes nothing.  ``nodes`` maps ids to
    objects with ``status`` and ``dependencies`` attributes; dependency ids
    with no node (e.g. raw event ids kept for provenance) are ignored, and
    nodes that are not live neither join nor pass the defeat on.
    ``dependents`` maps an id to the ids of the nodes whose dependencies may
    hold it: every node that depends on it, and perhaps others, since each
    one is checked."""
    if target_id not in nodes:
        raise KeyError(target_id)
    defeated = {target_id}
    frontier = [target_id]
    while frontier:
        dep = frontier.pop()
        for nid in dependents.get(dep, ()):
            if nid in defeated:
                continue
            node = nodes.get(nid)
            if (node is not None and getattr(node, "status", LIVE) == LIVE
                    and dep in node.dependencies):
                defeated.add(nid)
                frontier.append(nid)
    return sorted(defeated)


def _seed(entry: ContextEntry) -> Item:
    """The saturation's seed item for a live literal entry."""
    return (-entry.strength, (entry.order,), entry.proposition.key, entry.proposition,
            frozenset((entry.entry_id,)))
