"""The labelled search that saturates a context's literals.

A literal settles with a ``Derivation``: its strength (MIN over its
premises, derived content capped at inference), its premises, and their
insertion orders, which break ties in favour of earlier premises.  The search
is a Dijkstra over the implication graph of the live rules (``Graph``).  The
graph and the search hold ``Literal`` objects, and index them by the
``key`` each literal carries (``p``, ``!p``); a literal's negation is its
``negated()``.  ``settle`` can cover an area of the keys and merge in the
recorded pops of the others.  ``propositions.Context`` keeps the state and
decides what changed.
"""

from __future__ import annotations

import bisect
import heapq
from typing import Callable, Iterable, NamedTuple

from .evidence import DERIVED_CAP, Strength


class Derivation(NamedTuple):
    """Best-known derivation label for a literal during saturation."""

    strength: Strength
    deps: frozenset[str]
    rank: tuple[int, ...]  # sorted insertion orders of deps; earlier premises win ties


#: one labelled heap item: ((-strength, rank, literal.key), literal,
#: derivation).  Heap order is a total order on the items that can differ.
Item = tuple[tuple[int, tuple[int, ...], str], object, Derivation]


class Graph(NamedTuple):
    """The implication graph of a context's live rules.

    ``edges`` maps a literal's key to its edges as (target, rule id, rule
    strength, rule order): single-antecedent rules and their
    contrapositives, and biconditionals both ways with their
    contrapositives.  ``multis`` maps each antecedent's key of a
    multi-antecedent rule to (antecedents, consequent, rule id, rule
    strength).  ``forced`` maps the key of each forced literal to its seed
    item (``forced_literals``).  The graph holds values, not entries, so
    contexts and fixpoints share it.
    """

    edges: dict[str, list[tuple[object, str, Strength, int]]]
    multis: dict[str, list[tuple[tuple[object, ...], object, str, Strength]]]
    forced: dict[str, Item]


class Fixpoint(NamedTuple):
    """A settled saturation of one context, ready for ``Context.commit``.

    ``settled`` holds every literal the saturation settled in its area as
    (key, (literal, winning derivation)), in commit order: earliest premises
    first.  ``commit`` looks up the live entry of each key itself.  ``graph``
    and ``run`` are what the context keeps once it commits: the implication
    graph, and the heap item of every settled literal, in pop order.
    """

    settled: list[tuple[str, tuple[object, Derivation]]]
    graph: Graph
    run: dict[str, Item]


def settle(graph: Graph, seeds: Iterable[Item], rank: Callable[[set[str]], tuple[int, ...]],
           run: dict[str, Item], area: set[str]) -> dict[str, Item]:
    """Settle every literal the seeds reach, strongest first, then earliest
    premises; returns the settled items by key, in pop order.  ``rank``
    gives the sorted insertion orders of a set of entry ids.

    ``area`` is a set of keys closed under ``graph``, and the seeds are
    those of the area.  The search covers the area, and the items of
    ``run`` (a previous result) for the other keys are popped in their
    recorded order whenever they precede the heap's top.  No edge leads out
    of the area, so those keys keep their items and relative order, and the
    result is what a search over every key gives.  With an empty ``run`` the
    area is every key the seeds reach.
    """
    edges, multis = graph.edges, graph.multis
    push, pop = heapq.heappush, heapq.heappop
    heap: list[Item] = []
    for item in seeds:
        push(heap, item)
    later = (item for key, item in run.items() if key not in area)
    recorded = next(later, None)
    settled: dict[str, Item] = {}
    while True:
        if heap and (recorded is None or heap[0][0] < recorded[0]):
            item = pop(heap)
            key = item[0][2]
            if key in settled:
                continue
            inside = True
        elif recorded is not None:
            item, key, inside = recorded, recorded[0][2], False
            recorded = next(later, None)
        else:
            return settled
        settled[key] = item
        deriv = item[2]
        for dst, rule_id, rule_strength, rule_order in edges.get(key, ()):
            dst_key = dst.key
            if dst_key in settled or not (inside or dst_key in area):
                continue
            strength = min(deriv.strength, rule_strength, DERIVED_CAP)
            if rule_id in deriv.deps:
                deps, order = deriv.deps, deriv.rank
            else:
                deps, order = deriv.deps | {rule_id}, _with_order(deriv.rank, rule_order)
            push(heap, ((-strength, order, dst_key), dst, Derivation(strength, deps, order)))
        for ants, dst, rule_id, rule_strength in multis.get(key, ()):
            dst_key = dst.key
            if dst_key in settled or not (inside or dst_key in area):
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


def clashes(settled: dict[str, Item], keys: Iterable[str]) -> list[tuple[object, object]]:
    """The (positive, negative) literal pairs settled together, by atom, for
    every atom of ``keys``."""
    pairs = {}
    for key in keys:
        if key in settled:
            lit = settled[key][1]
            other = settled.get(lit.negated().key)
            if other is not None:
                pairs[lit.atom] = (lit, other[1]) if lit.positive else (other[1], lit)
    return [pairs[atom] for atom in sorted(pairs)]


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


def forced_literals(edges) -> dict[str, Item]:
    """Literals L whose negation implies L along ``edges``, as seed items by
    key.

    A chain !L -> ... -> L forces L regardless of any asserted facts; this
    closes the gap left by pure unit propagation (e.g. a -> b plus !a -> b
    forces b).  The widest (strongest-weakest-rule) chain wins.  Only
    literals that pass a plain reachability test from their negation get the
    labelled search.
    """
    forced: dict[str, Item] = {}
    # only an edge's target can be reached, so only targets can be forced
    targets = {dst[0].key: dst[0] for dsts in edges.values() for dst in dsts}
    for key in sorted(targets):
        start = targets[key].negated().key
        if not _reaches(edges, start, key):
            continue
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
        if key in best and best[key].deps:
            d = best[key]
            strength = min(d.strength, DERIVED_CAP)
            forced[key] = ((-strength, d.rank, key), targets[key],
                           Derivation(strength, d.deps, d.rank))
    return forced


def _reaches(edges, start: str, goal: str) -> bool:
    """Is ``goal`` reachable from ``start`` along ``edges``?"""
    seen = {start}
    stack = [start]
    while stack:
        for dst in edges.get(stack.pop(), ()):
            key = dst[0].key
            if key == goal:
                return True
            if key not in seen:
                seen.add(key)
                stack.append(key)
    return False


def _with_order(rank: tuple[int, ...], order: int) -> tuple[int, ...]:
    """``rank`` with one more premise order, kept sorted."""
    i = bisect.bisect(rank, order)
    return rank[:i] + (order,) + rank[i:]
