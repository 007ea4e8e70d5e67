"""The labelled search that saturates a context's literals.

A literal settles with a ``Derivation``: its strength (MIN over its
premises, derived content capped at inference), its premises, and their
insertion orders, latest first, which break ties in favour of the smaller
such tuple.  Adding a premise or taking a union never makes that tuple
smaller, so the (strength, rank) part of a heap key never falls along a
derivation.  The search is a Dijkstra over the implication graph of the live
rules (``Graph``).  The graph and the search hold ``Literal`` objects, and
index them by the ``key`` each literal carries (``p``, ``!p``); ``contrary``
gives the key of a literal's negation without building it.  ``settle``
covers an area of the keys and merges in the recorded items of the keys
outside it that lead into it.
``propositions.Context`` keeps the state and decides what changed.
"""

from __future__ import annotations

import heapq
from typing import Callable, Iterable, NamedTuple, Optional

from .evidence import DERIVED_CAP, Strength


class Derivation(NamedTuple):
    """Best-known derivation label for a literal during saturation."""

    strength: Strength
    deps: frozenset[str]
    rank: tuple[int, ...]  # insertion orders of deps, latest first; the smaller rank wins ties


#: one labelled item: ((-strength, rank, literal.key), literal, derivation).
#: Heap order is a total order on the items that can differ.
Item = tuple[tuple[int, tuple[int, ...], str], object, Derivation]

#: an edge of the graph: (target, rule id, rule strength, rule order)
Edge = tuple[object, str, Strength, int]
#: a multi-antecedent rule: (antecedents, consequent, rule id, rule strength)
Multi = tuple[tuple[object, ...], object, str, Strength]


class Graph:
    """The implication graph of a context's live rules, kept in step with them.

    ``edges`` maps a literal's key to its edges: single-antecedent rules and
    biconditionals both ways, each edge with its contrapositive, so !v -> !u
    is an edge exactly when u -> v is.  ``multis`` maps each antecedent's key
    of a multi-antecedent rule to the rule.  ``into`` maps a key to (source
    key, rule id) for every edge into it and every antecedent of a rule that
    concludes it.  ``forced`` maps the key of each forced literal to its seed
    item (``forced_item``).

    ``link`` adds a rule and ``unlink`` removes it; each returns the keys
    whose in-edges or forced seed changed.  Each write replaces the value
    under one key and logs the old value (``put``) on ``trail``, the undo
    trail of the context that owns the graph.
    """

    def __init__(self, trail: list):
        self.edges: dict[str, tuple[Edge, ...]] = {}
        self.multis: dict[str, tuple[Multi, ...]] = {}
        self.into: dict[str, tuple[tuple[str, str], ...]] = {}
        self.forced: dict[str, Item] = {}
        self.trail = trail

    def link(self, rule_id: str, strength: Strength, order: int, rule) -> set[str]:
        """Add a rule or biconditional: its ``edges``, or, for a rule with
        none, its multi-antecedent form."""
        edges = rule.edges
        if not edges:
            ants, dst = rule.antecedents, rule.consequent
            for a in ants:
                self._add(self.multis, a.key, (ants, dst, rule_id, strength))
                self._add(self.into, dst.key, (a.key, rule_id))
            return {dst.key}
        for src, dst in edges:
            self._add(self.edges, src.key, (dst, rule_id, strength, order))
            self._add(self.into, dst.key, (src.key, rule_id))
        return {dst.key for _, dst in edges} | self._reforce(self._forceable(edges))

    def unlink(self, rule_id: str, rule) -> set[str]:
        """Remove the rule that ``link`` added under ``rule_id``."""
        edges = rule.edges
        if not edges:
            dst = rule.consequent
            for a in rule.antecedents:
                self._drop(self.multis, a.key, 2, rule_id)
            self._drop(self.into, dst.key, 1, rule_id)
            return {dst.key}
        candidates = self._forceable(edges)  # on the graph that still has the edges
        for src, dst in edges:
            self._drop(self.edges, src.key, 1, rule_id)
            self._drop(self.into, dst.key, 1, rule_id)
        return {dst.key for _, dst in edges} | self._reforce(candidates)

    def _add(self, table: dict, key: str, value) -> None:
        put(self.trail, table, key, table.get(key, ()) + (value,))

    def _drop(self, table: dict, key: str, field: int, rule_id: str) -> None:
        kept = tuple(v for v in table.get(key, ()) if v[field] != rule_id)
        put(self.trail, table, key, kept or None)

    def _forceable(self, edges: tuple[tuple[object, object], ...]) -> dict[str, object]:
        """The literals an edge u -> v or its contrapositive !v -> !u can
        force or stop forcing: every L with !L reaching u and v reaching L.
        The graph holds each edge's contrapositive, so !L reaches u exactly
        when !u reaches L, and the contrapositive gives the same literals.
        ``edges`` holds edges and then, in the same order, their
        contrapositives, as a rule's ``edges`` do."""
        half = len(edges) // 2
        found: dict[str, object] = {}
        for (_, dst), (_, negated_src) in zip(edges[:half], edges[half:]):
            back = _reach(self.edges, negated_src)
            found.update((key, lit) for key, lit in _reach(self.edges, dst).items()
                         if key in back)
        return found

    def _reforce(self, candidates: dict[str, object]) -> set[str]:
        changed = set()
        for key, lit in candidates.items():
            item = forced_item(self.edges, lit)
            if item != self.forced.get(key):
                put(self.trail, self.forced, key, item)
                changed.add(key)
        return changed


def put(trail: list, table: dict, key: str, value) -> None:
    """Set ``table[key]``, or delete it when ``value`` is None, and log the
    undo record ``(table, key, old)`` on ``trail``, with ``old`` None for a
    missing key; no stored value is None."""
    trail.append((table, key, table.get(key)))
    if value is None:
        table.pop(key, None)
    else:
        table[key] = value


class Fixpoint(NamedTuple):
    """A settled saturation of one context, ready for ``Context.commit``.

    ``settled`` holds every literal the saturation settled in its area as
    (key, (literal, winning derivation)), in commit order: earliest premises
    first.  ``commit`` looks up the live entry of each key itself.  ``run``
    maps every key of the area to its settled item, or to None when it no
    longer settles; the context stores them once it commits.
    """

    settled: list[tuple[str, tuple[object, Derivation]]]
    run: dict[str, Optional[Item]]


def settle(graph: Graph, seeds: Iterable[Item], rank: Callable[[set[str]], tuple[int, ...]],
           recorded: Iterable[Item], area: set[str]) -> dict[str, Item]:
    """Settle every literal of ``area`` the seeds and ``recorded`` reach,
    strongest first, then smallest rank; returns the settled items by key,
    with the recorded ones.  ``rank`` gives the insertion orders of a set of
    entry ids, latest first.

    ``area`` is a set of keys closed under ``graph``, and the seeds are
    those of the area.  ``recorded`` holds the settled items (from an earlier
    search) of the keys outside the area that have an edge or a rule into it.
    No edge leads out of the area, so those keys keep their items, and the
    search pops each one from the same heap as its own items.  That is where
    a search over every key pops it: the (strength, rank) part of a heap key
    never falls along an edge or a rule, and stays equal only when a step
    reuses a rule already in the derivation.
    """
    edges, multis = graph.edges, graph.multis
    push, pop = heapq.heappush, heapq.heappop
    heap: list[Item] = []
    for item in (*seeds, *recorded):
        push(heap, item)
    settled: dict[str, Item] = {}
    while heap:
        item = pop(heap)
        key = item[0][2]
        if key in settled:
            continue
        settled[key] = item
        deriv = item[2]
        for dst, rule_id, rule_strength, rule_order in edges.get(key, ()):
            dst_key = dst.key
            if dst_key in settled or dst_key not in area:
                continue
            strength = min(deriv.strength, rule_strength, DERIVED_CAP)
            if rule_id in deriv.deps:
                deps, order = deriv.deps, deriv.rank
            else:
                deps, order = deriv.deps | {rule_id}, _with_order(deriv.rank, rule_order)
            push(heap, ((-strength, order, dst_key), dst, Derivation(strength, deps, order)))
        for ants, dst, rule_id, rule_strength in multis.get(key, ()):
            dst_key = dst.key
            if dst_key in settled or dst_key not in area:
                continue
            premises = [settled.get(a.key) for a in ants]
            if None not in premises:
                strength = min(min(p[2].strength for p in premises), rule_strength, DERIVED_CAP)
                deps = {rule_id}
                for p in premises:
                    deps |= p[2].deps
                order = rank(deps)
                push(heap, ((-strength, order, dst_key), dst,
                            Derivation(strength, frozenset(deps), order)))
    return settled


def boundary(graph: Graph, run: dict[str, Item], area: set[str]) -> list[Item]:
    """The items of ``run`` for the keys outside ``area`` with an edge or a
    rule into it: what ``settle`` merges in."""
    into = graph.into
    keys = {src for key in area for src, _ in into.get(key, ()) if src not in area}
    return [run[key] for key in keys if key in run]


def clashes(settled: dict[str, Item], run: dict[str, Item],
            area: set[str]) -> list[tuple[object, object]]:
    """The (positive, negative) literal pairs settled together, by atom, for
    every atom of ``area``: ``settled`` holds the area's items and ``run``
    those of the other keys."""
    pairs = {}
    for key in area:
        if key in settled:
            lit = settled[key][1]
            neg = contrary(lit)
            other = settled.get(neg) if neg in area else run.get(neg)
            if other is not None:
                pairs[lit.atom] = (lit, other[1]) if lit.positive else (other[1], lit)
    return [pairs[atom] for atom in sorted(pairs)]


def contrary(lit) -> str:
    """The key of ``lit``'s negation, read off its atom and polarity."""
    return "!" + lit.atom if lit.positive else lit.atom


def forward(graph: Graph, keys: Iterable[str]) -> set[str]:
    """``keys`` plus every key reachable from them along the edges and
    through multi-antecedent rules (any antecedent reaches the consequent)."""
    area = set(keys)
    stack = list(area)
    while stack:
        key = stack.pop()
        targets = [edge[0] for edge in graph.edges.get(key, ())]
        targets += [rule[1] for rule in graph.multis.get(key, ())]
        for dst in targets:
            if dst.key not in area:
                area.add(dst.key)
                stack.append(dst.key)
    return area


def forced_item(edges: dict[str, tuple[Edge, ...]], lit) -> Optional[Item]:
    """The seed item of ``lit`` if its negation implies it along ``edges``,
    else None.

    A chain !L -> ... -> L forces L regardless of any asserted facts; this
    closes the gap left by pure unit propagation (e.g. a -> b plus !a -> b
    forces b).  The widest (strongest-weakest-rule) chain wins.
    """
    key, start = lit.key, contrary(lit)
    best: dict[str, Derivation] = {}
    heap: list[tuple[tuple[int, tuple[int, ...], str], str, Derivation]] = []
    seed = Derivation(Strength.PHYSICAL, frozenset(), ())
    heapq.heappush(heap, ((-seed.strength, (), start), start, seed))
    while heap:
        _, node, deriv = heapq.heappop(heap)
        if node in best:
            continue
        best[node] = deriv
        if node == key:
            break
        for dst, rule_id, rule_strength, rule_order in edges.get(node, ()):
            dk = dst.key
            if dk in best:
                continue
            if rule_id in deriv.deps:
                deps, rank = deriv.deps, deriv.rank
            else:
                deps, rank = deriv.deps | {rule_id}, _with_order(deriv.rank, rule_order)
            cand = Derivation(min(deriv.strength, rule_strength), deps, rank)
            heapq.heappush(heap, ((-cand.strength, cand.rank, dk), dk, cand))
    if key not in best or not best[key].deps:
        return None
    d = best[key]
    strength = min(d.strength, DERIVED_CAP)
    return (-strength, d.rank, key), lit, Derivation(strength, d.deps, d.rank)


def _reach(edges: dict[str, tuple[Edge, ...]], start) -> dict[str, object]:
    """``start`` and every literal reachable from it along ``edges``, by key."""
    seen = {start.key: start}
    stack = [start.key]
    while stack:
        for edge in edges.get(stack.pop(), ()):
            dst = edge[0]
            if dst.key not in seen:
                seen[dst.key] = dst
                stack.append(dst.key)
    return seen


def _with_order(rank: tuple[int, ...], order: int) -> tuple[int, ...]:
    """``rank`` with one more premise order, kept latest first."""
    return tuple(sorted(rank + (order,), reverse=True))
