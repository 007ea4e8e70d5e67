"""The labelled search that saturates a context's literals.

A literal settles with a label (``Derivation``): its strength (MIN over its
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
``propositions.Context`` keeps the state, decides what changed and collects
the items a search starts from.
"""

from __future__ import annotations

import heapq
from typing import Callable, Iterable, NamedTuple, Optional

from .evidence import DERIVED_CAP, Strength

#: a literal's label, a plain tuple: (strength, the ids of its premises, rank),
#: where the rank holds the premises' insertion orders, latest first, and the
#: smaller rank wins ties.  A plain tuple costs a tenth of a ``NamedTuple``
#: call to build, and the search builds one per push.
Derivation = tuple[Strength, frozenset[str], tuple[int, ...]]

#: one labelled item: ((-strength, rank, literal.key), literal, label).
#: Heap order is a total order on the items that can differ.
Item = tuple[tuple[int, tuple[int, ...], str], object, Derivation]

#: an edge of the graph: (target, rule id, rule strength, rule order)
Edge = tuple[object, str, Strength, int]
#: a multi-antecedent rule: (consequent, antecedents, rule id, rule strength);
#: an edge and a rule both hold their target first
Multi = tuple[object, tuple[object, ...], str, Strength]


class Graph:
    """The implication graph of a context's rules, which only grows.

    ``edges`` maps a literal's key to its edges: single-antecedent rules and
    biconditionals both ways, each edge with its contrapositive, so !v -> !u
    is an edge exactly when u -> v is.  ``multis`` maps each antecedent's key
    of a multi-antecedent rule to the rule.  ``into`` maps a key to the source
    key of every edge into it and every antecedent of a rule that concludes
    it, for the keys a saturation merges in.  ``forced`` maps the key of
    each forced literal to its seed item (``forced_item``).

    A rule mentions a key (``mentions``) when the key is in ``edges``,
    ``into`` or ``multis``; a forced key is in ``into``, as forcing needs an
    edge in.

    ``link`` adds a rule and returns the keys whose in-edges or forced seed
    changed.  Nothing removes one: a rule, once entered, is never defeated,
    and a raised rule is linked again at its new strength beside its weaker
    copies, which have the same id and order and so never give a stronger
    label.  Each write replaces the value under one key and logs the old
    value, as ``put`` does, on ``trail``, the undo trail of the context that
    owns the graph.
    """

    def __init__(self, trail: list):
        self.edges: dict[str, tuple[Edge, ...]] = {}
        self.multis: dict[str, tuple[Multi, ...]] = {}
        self.into: dict[str, tuple[str, ...]] = {}
        self.forced: dict[str, Item] = {}
        self.trail = trail

    def link(self, rule_id: str, strength: Strength, order: int, rule) -> set[str]:
        """Add a rule or biconditional: its ``edges``, or, for a rule with
        none, its multi-antecedent form.  Each write appends one value to the
        tuple under a key of a table."""
        edges, writes, changed = rule.edges, [], set()
        if edges:
            for src, dst in edges:
                writes += ((self.edges, src.key, (dst, rule_id, strength, order)),
                           (self.into, dst.key, src.key))
                changed.add(dst.key)
        else:
            ants, dst = rule.antecedents, rule.consequent
            for a in ants:
                writes += ((self.multis, a.key, (dst, ants, rule_id, strength)),
                           (self.into, dst.key, a.key))
            changed.add(dst.key)
        trail = self.trail
        for table, key, value in writes:
            old = table.get(key)
            trail.append((table, key, old))
            table[key] = (value,) if old is None else old + (value,)
        if edges:
            changed |= self._reforce(edges)
        return changed

    def mentions(self, key: str) -> bool:
        return key in self.into or key in self.edges or key in self.multis

    def _reforce(self, edges: tuple[tuple[object, object], ...]) -> set[str]:
        """Search again the forced seed of each literal an edge u -> v or its
        contrapositive !v -> !u can force, and return the keys whose seed
        changed.  Those literals are every L with !L reaching u and v
        reaching L.  The graph holds each edge's contrapositive, so !L
        reaches u exactly when !u reaches L, and the contrapositive gives the
        same literals.  ``edges`` holds edges and then, in the same order,
        their contrapositives, as a rule's ``edges`` do."""
        half = len(edges) // 2
        changed = set()
        for (_, dst), (_, negated_src) in zip(edges[:half], edges[half:]):
            back = _reach(self.edges, negated_src)
            for key, lit in _reach(self.edges, dst).items():
                if key in back:  # a key both edges reach is searched again, to the same seed
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
    (key, (literal, winning label)), in commit order: earliest premises
    first, and equal ranks in the search's pop order.  ``commit`` looks up
    the live entry of each key itself.  ``run`` maps every key of the area
    to its settled item, or to None when it no longer settles; the context
    stores them once it commits.
    """

    settled: list[tuple[str, tuple[object, Derivation]]]
    run: dict[str, Optional[Item]]


def settle(graph: Graph, items: Iterable[Item], rank: Callable[[set[str]], tuple[int, ...]],
           area: set[str]) -> dict[str, Item]:
    """Settle every literal of ``area`` that ``items`` reach, strongest
    first, then smallest rank; returns the settled items by key, with the
    recorded ones.  ``rank`` gives the insertion orders of a set of entry
    ids, latest first.

    ``area`` is a set of keys closed under ``graph``.  ``items`` holds the
    seeds of the area and the recorded items (from an earlier search) of
    the keys outside the area that have an edge or a rule into it.  No edge
    leads out of the area, so those keys keep their items, and the search
    pops each one from the same heap as its own items.  That is where a
    search over every key pops it: the (strength, rank) part of a heap key
    never falls along an edge or a rule, and stays equal only when a step
    reuses a rule already in the derivation.
    """
    edges, multis = graph.edges, graph.multis
    push, pop = heapq.heappush, heapq.heappop
    heap: list[Item] = []
    for item in items:
        push(heap, item)
    settled: dict[str, Item] = {}
    while heap:
        item = pop(heap)
        key = item[0][2]
        if key in settled:
            continue
        settled[key] = item
        strength, deps, order = item[2]
        for dst, rule_id, rule_strength, rule_order in edges.get(key, ()):
            dst_key = dst.key
            if dst_key in settled or dst_key not in area:
                continue
            weakest = min(strength, rule_strength, DERIVED_CAP)
            if rule_id in deps:
                joined, ranked = deps, order
            else:
                joined, ranked = deps | {rule_id}, _with_order(order, rule_order)
            push(heap, ((-weakest, ranked, dst_key), dst, (weakest, joined, ranked)))
        for dst, ants, rule_id, rule_strength in multis.get(key, ()):
            dst_key = dst.key
            if dst_key in settled or dst_key not in area:
                continue
            premises = [settled.get(a.key) for a in ants]
            if None not in premises:
                weakest = min(min(p[2][0] for p in premises), rule_strength, DERIVED_CAP)
                joined = {rule_id}
                for p in premises:
                    joined |= p[2][1]
                ranked = rank(joined)
                push(heap, ((-weakest, ranked, dst_key), dst,
                            (weakest, frozenset(joined), ranked)))
    return settled


def clashes(settled: dict[str, Item], label: Callable[[str], Optional[Item]],
            area: set[str]) -> list[tuple[object, object]]:
    """The (positive, negative) literal pairs settled together, by atom, for
    every atom of ``area``: ``settled`` holds the area's items and ``label``
    gives the others', such as the seed of a ``!c`` no rule mentions."""
    pairs = {}
    for key in area:
        if key in settled:
            lit = settled[key][1]
            neg = contrary(lit)
            other = settled.get(neg) if neg in area else label(neg)
            if other is not None:
                pairs[lit.atom] = (lit, other[1]) if lit.positive else (other[1], lit)
    return [pairs[atom] for atom in sorted(pairs)]


def contrary(lit) -> str:
    """The key of ``lit``'s negation, read off its atom and polarity."""
    return "!" + lit.atom if lit.positive else lit.atom


def forward(graph: Graph, keys: Iterable[str]) -> set[str]:
    """``keys`` plus every key reachable from them along the edges and
    through multi-antecedent rules (any antecedent reaches the consequent)."""
    edges, multis = graph.edges, graph.multis
    area = set(keys)
    stack = list(area)
    while stack:
        key = stack.pop()
        for step in edges.get(key, ()) + multis.get(key, ()):  # each holds its target first
            if step[0].key not in area:
                area.add(step[0].key)
                stack.append(step[0].key)
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
    heapq.heappush(heap, ((-Strength.PHYSICAL, (), start), start,
                          (Strength.PHYSICAL, frozenset(), ())))
    while heap:
        _, node, deriv = heapq.heappop(heap)
        if node in best:
            continue
        best[node] = deriv
        if node == key:
            break
        strength, deps, rank = deriv
        for dst, rule_id, rule_strength, rule_order in edges.get(node, ()):
            dk = dst.key
            if dk in best:
                continue
            if rule_id in deps:
                joined, ranked = deps, rank
            else:
                joined, ranked = deps | {rule_id}, _with_order(rank, rule_order)
            weakest = min(strength, rule_strength)
            heapq.heappush(heap, ((-weakest, ranked, dk), dk, (weakest, joined, ranked)))
    if key not in best or not best[key][1]:
        return None
    strength, deps, rank = best[key]
    strength = min(strength, DERIVED_CAP)
    return (-strength, rank, key), lit, (strength, deps, rank)


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
