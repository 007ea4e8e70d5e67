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

import heapq
import re
from dataclasses import dataclass, field
from typing import Iterable, Optional, Union

from .errors import BadPropositionSyntax, ConflictDetected
from .evidence import DERIVED_CAP, Strength

ATOM_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*$")

LIVE = "live"
DEFEATED = "defeated"


@dataclass(frozen=True)
class Literal:
    atom: str
    positive: bool = True

    def __post_init__(self):
        if not ATOM_RE.match(self.atom):
            raise BadPropositionSyntax(f"bad atom name {self.atom!r}")

    def negated(self) -> "Literal":
        # the atom was validated when self was made, so skip __post_init__
        other = object.__new__(Literal)
        object.__setattr__(other, "atom", self.atom)
        object.__setattr__(other, "positive", not self.positive)
        return other

    def __str__(self) -> str:
        return self.atom if self.positive else "!" + self.atom


@dataclass(frozen=True)
class Rule:
    antecedents: tuple[Literal, ...]
    consequent: Literal

    def __post_init__(self):
        if not self.antecedents:
            raise BadPropositionSyntax("rule with no antecedents")
        if len(set(self.antecedents)) != len(self.antecedents):
            raise BadPropositionSyntax("duplicate rule antecedents")

    def __str__(self) -> str:
        return " & ".join(str(a) for a in self.antecedents) + " -> " + str(self.consequent)


@dataclass(frozen=True)
class Biconditional:
    left: Literal
    right: Literal

    def __str__(self) -> str:
        return f"{self.left} <-> {self.right}"


Proposition = Union[Literal, Rule, Biconditional]


def parse_proposition(text: str) -> Proposition:
    """Parse one proposition in the surface syntax.  Raises BadPropositionSyntax."""

    def lit(chunk: str) -> Literal:
        chunk = chunk.strip()
        neg = False
        while chunk.startswith("!"):
            neg = not neg
            chunk = chunk[1:].strip()
        if not ATOM_RE.match(chunk):
            raise BadPropositionSyntax(f"bad literal {chunk!r} in {text!r}")
        return Literal(chunk, not neg)

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


def format_proposition(p: Proposition) -> str:
    return str(p)


def prop_key(p: Proposition) -> str:
    """Canonical index key.  Rule antecedents and biconditional sides are
    order-insensitive so that notational variants collapse to one entry."""
    if isinstance(p, Literal):
        return str(p)
    if isinstance(p, Rule):
        return " & ".join(sorted(str(a) for a in p.antecedents)) + " -> " + str(p.consequent)
    return " <-> ".join(sorted((str(p.left), str(p.right))))


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
    def source(self) -> str:
        return self.sources[0] if self.sources else "derived"

    @property
    def derived(self) -> bool:
        return not self.sources


@dataclass(frozen=True)
class _Deriv:
    """Best-known derivation label for a literal during saturation."""

    strength: Strength
    deps: frozenset[str]
    rank: tuple[int, ...]  # sorted insertion orders of deps; earlier premises win ties

    def beats(self, other: Optional["_Deriv"]) -> bool:
        if other is None:
            return True
        if self.strength != other.strength:
            return self.strength > other.strength
        return self.rank < other.rank


@dataclass(frozen=True)
class Fixpoint:
    """A settled saturation of one context, ready for ``Context.commit``.

    ``settled`` holds every literal of the fixpoint as (key, (literal,
    winning derivation)), in commit order: earliest premises first.
    ``entries`` maps the key of each live literal entry the saturation
    started from to its id.
    """

    settled: list[tuple[str, tuple[Literal, _Deriv]]]
    entries: dict[str, str]


class Context:
    """Mutable common-ground store for one dialogue, and the one dependency
    graph of its discourse state.

    ``nodes`` maps every id to its node: the proposition entries, and the
    acceptance beliefs and support links that rest on them.  ``entries``
    holds the proposition entries among them, and ``utterances`` the
    dialogue's utterances by id.  Ids are allocated against every node and
    utterance, so no node overwrites or aliases another or an utterance.

    Single-threaded per dialogue by contract; distinct dialogues never share
    a context.  ``clone()`` gives an independent copy for what-if checks.
    """

    def __init__(self):
        self.nodes: dict[str, object] = {}
        self.entries: dict[str, ContextEntry] = {}
        self.utterances: dict[str, object] = {}
        self._by_key: dict[str, str] = {}  # proposition key -> latest entry id
        self._counter = 0

    # -- plumbing ---------------------------------------------------------

    def clone(self) -> "Context":
        """Copy the entries and share the utterances and other nodes.  The
        clone sees every id, so it allocates the ids this context would; a
        defeat on the clone would reach the shared acceptance beliefs and
        support links."""
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

    def live_entries(self) -> list[ContextEntry]:
        return [e for e in self.entries.values() if e.status == LIVE]

    def lookup(self, p: Proposition) -> Optional[ContextEntry]:
        return self.lookup_key(prop_key(p))

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
        self.entries[eid] = self.nodes[eid] = entry
        self._by_key[prop_key(p)] = eid
        return entry

    # -- assertion --------------------------------------------------------

    def assert_prop(self, p: Proposition, strength: Strength, source: str) -> ContextEntry:
        """Add ``p`` at ``strength`` on behalf of utterance ``source``.

        Re-asserting an existing proposition raises its strength to the new
        value (never lowers it).  A direct contradiction with a live literal
        of equal or greater strength raises ConflictDetected; a strictly
        weaker contrary literal is defeated in place and cascaded.
        """
        existing = self.lookup(p)
        if existing is not None:
            if source not in existing.sources:
                existing.sources = existing.sources + (source,)
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
        return self._insert(p, strength, (source,), set())

    def defeat_entry(self, node_id: str) -> list[str]:
        """Mark a node defeated, with every live node whose dependencies
        reach it: entries, acceptance beliefs and support links alike.  This
        is the one retraction walk.  Returns the defeated ids, sorted."""
        return retract(self.nodes, node_id)

    # -- inference --------------------------------------------------------

    def closure(self) -> set[Literal]:
        """Forward-chain to fixpoint and return all live literals.

        Saturates (``saturate``) and commits the result (``commit``).  Raises
        ConflictDetected if the fixpoint contains both polarities of an
        atom, listing the clashing literals; the context is then unchanged.
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
        inference.  When several derivations reach the same literal, the
        strongest wins and remaining ties go to the derivation with earliest
        premises.

        The result depends only on the id, proposition, strength and order
        of the live entries, so a clone that received the same assertions
        saturates to a fixpoint this context can commit.  Raises
        ConflictDetected if the fixpoint contains both polarities of an
        atom, listing the clashing literals.
        """
        live = self.live_entries()
        lit_entries = {prop_key(e.proposition): e for e in live
                       if isinstance(e.proposition, Literal)}
        edges: dict[str, list[tuple[Literal, ContextEntry]]] = {}
        multis: list[tuple[tuple[Literal, ...], Literal, ContextEntry]] = []

        def add_edge(src: Literal, dst: Literal, entry: ContextEntry) -> None:
            edges.setdefault(str(src), []).append((dst, entry))

        for e in sorted(live, key=lambda x: x.order):
            p = e.proposition
            if isinstance(p, Rule):
                if len(p.antecedents) == 1:
                    a = p.antecedents[0]
                    add_edge(a, p.consequent, e)
                    add_edge(p.consequent.negated(), a.negated(), e)
                else:
                    multis.append((p.antecedents, p.consequent, e))
            elif isinstance(p, Biconditional):
                l, r = p.left, p.right
                for src, dst in ((l, r), (r, l), (r.negated(), l.negated()),
                                 (l.negated(), r.negated())):
                    add_edge(src, dst, e)

        settled: dict[str, tuple[Literal, _Deriv]] = {}
        agenda: list[tuple[tuple[int, tuple[int, ...], str], Literal, _Deriv]] = []

        def push(lit: Literal, deriv: _Deriv) -> None:
            heapq.heappush(agenda, ((-deriv.strength, deriv.rank, str(lit)), lit, deriv))

        for e in sorted(lit_entries.values(), key=lambda x: x.order):
            push(e.proposition, _Deriv(e.strength, frozenset([e.entry_id]), (e.order,)))
        for lit, deriv in self._forced_literals(edges):
            push(lit, deriv)

        def capped(s: Strength) -> Strength:
            return min(s, DERIVED_CAP)

        while agenda:
            _, lit, deriv = heapq.heappop(agenda)
            key = str(lit)
            if key in settled:
                continue
            settled[key] = (lit, deriv)
            for dst, rule_entry in edges.get(key, ()):
                if str(dst) in settled:
                    continue
                deps = deriv.deps | {rule_entry.entry_id}
                push(dst, _Deriv(capped(min(deriv.strength, rule_entry.strength)),
                                 deps, self._rank(deps)))
            for ants, consequent, rule_entry in multis:
                if str(consequent) in settled:
                    continue
                if all(str(a) in settled for a in ants):
                    strengths = [settled[str(a)][1].strength for a in ants]
                    deps = {rule_entry.entry_id}
                    for a in ants:
                        deps |= settled[str(a)][1].deps
                    push(consequent, _Deriv(capped(min(min(strengths), rule_entry.strength)),
                                            frozenset(deps), self._rank(deps)))

        clashes = []
        for key, (lit, _) in sorted(settled.items()):
            neg = str(lit.negated())
            if lit.positive and neg in settled:
                clashes.append((lit, settled[neg][0]))
        if clashes:
            raise ConflictDetected(clashes)

        return Fixpoint(sorted(settled.items(), key=lambda kv: kv[1][1].rank),
                        {key: e.entry_id for key, e in lit_entries.items()})

    def commit(self, fixpoint: Fixpoint) -> list[ContextEntry]:
        """Apply a fixpoint from ``saturate``: raise the strengths it improves,
        with their new dependencies, and insert the literals it derives.
        Returns the inserted entries in insertion order."""
        inserted = []
        for key, (lit, deriv) in fixpoint.settled:
            eid = fixpoint.entries.get(key)
            if eid is not None:
                entry = self.entries[eid]
                derived_strength = min(deriv.strength, DERIVED_CAP)
                if derived_strength > entry.strength:
                    entry.strength = derived_strength
                    entry.dependencies = set(deriv.deps - {eid})
                continue
            existing = self.lookup(lit)
            if existing is not None:
                if deriv.strength > existing.strength:
                    existing.strength = deriv.strength
                    existing.dependencies = set(deriv.deps)
                continue
            inserted.append(self._insert(lit, deriv.strength, (), set(deriv.deps)))
        return inserted

    def _rank(self, deps: Iterable[str]) -> tuple[int, ...]:
        return tuple(sorted(self.entries[d].order for d in deps))

    def _forced_literals(self, edges) -> list[tuple[Literal, _Deriv]]:
        """Literals L whose negation implies L through the rule graph.

        A chain !L -> ... -> L forces L regardless of any asserted facts;
        this closes the gap left by pure unit propagation (e.g. a -> b plus
        !a -> b forces b).  The widest (strongest-weakest-rule) chain wins.
        Only literals that pass a plain reachability test from their
        negation get the labelled search.
        """
        forced = []
        nodes = set(edges)
        for dsts in edges.values():
            nodes.update(str(d) for d, _ in dsts)
        lits = {}
        for key in nodes:
            neg = key.startswith("!")
            lits[key] = Literal(key.lstrip("!"), not neg)
        for key in sorted(nodes):
            target = lits[key]
            start = str(target.negated())
            if not _reaches(edges, start, key):
                continue
            best: dict[str, _Deriv] = {}
            heap: list[tuple[tuple[int, tuple[int, ...], str], str, _Deriv]] = []
            seed = _Deriv(Strength.PHYSICAL, frozenset(), ())
            heapq.heappush(heap, ((-seed.strength, (), start), start, seed))
            while heap:
                _, node, deriv = heapq.heappop(heap)
                if node in best:
                    continue
                best[node] = deriv
                if node == key:
                    break
                for dst, rule_entry in edges.get(node, ()):
                    dk = str(dst)
                    if dk in best:
                        continue
                    deps = deriv.deps | {rule_entry.entry_id}
                    cand = _Deriv(min(deriv.strength, rule_entry.strength),
                                  deps, self._rank(deps))
                    heapq.heappush(heap, ((-cand.strength, cand.rank, dk), dk, cand))
            if key in best and best[key].deps:
                d = best[key]
                forced.append((target, _Deriv(min(d.strength, DERIVED_CAP), d.deps, d.rank)))
        return forced

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


def _reaches(edges, start: str, goal: str) -> bool:
    """Is ``goal`` reachable from ``start`` along ``edges``?"""
    seen = {start}
    stack = [start]
    while stack:
        for dst, _ in edges.get(stack.pop(), ()):
            key = str(dst)
            if key == goal:
                return True
            if key not in seen:
                seen.add(key)
                stack.append(key)
    return False


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
