"""The labelled search that saturates a context's literals.

A literal settles with a label, one flat item (``Item``) that is also its
heap key: the negated strength (MIN over its premises, derived content
capped at inference), the rank, the key, the literal and its premises' ids.
The rank holds the premises' insertion orders, latest first, and the
smaller rank wins ties.  Adding a premise or taking a union never makes it
smaller, so the first two fields never fall along a derivation.  The search
is a Dijkstra over the steps of the live rules (``Graph``).  The graph and
the search hold ``Literal`` objects, and index them by the ``key`` each
literal carries (``p``, ``!p``).  A literal also carries its contrary's key
(``contrary_key``); ``contrary`` negates a bare key.  ``forward``
gives a search's area, and a superset of the literals a new rule may force,
each of which ``forced_item`` checks.  ``settle`` covers an area of the keys
and merges in the labels of the keys outside it that lead into it.
``propositions.Context`` keeps the state, each live literal's label on its
entry, decides what changed and collects the items a search starts from.
"""

from __future__ import annotations

import heapq
from typing import Callable, Iterable, Optional

from .evidence import DERIVED_CAP, PHYSICAL, Strength

#: a literal's label and heap key, a plain tuple:
#: (-strength, rank, literal.key, literal, the ids of its premises).  Heap
#: order is a total order on the items that can differ.  A plain tuple costs
#: a tenth of a ``NamedTuple`` call to build, and the search builds one per push.
Item = tuple[int, tuple[int, ...], str, object, frozenset[str]]


class Graph:
    """The implication graph of a context's rules, which only grows.

    ``steps`` maps a literal's key to the steps it is an antecedent of:
    (target, antecedents, rule id, rule strength, rule order).  A rule or
    biconditional gives one for each of its own ``steps`` under the key of
    each antecedent.  A single-antecedent rule's contrapositive is among
    them, so !v -> !u is a step exactly when u -> v is.  ``into`` maps a
    key to the antecedent keys of every step into it, for the keys a
    saturation merges in.  ``forced`` maps the key of each forced literal
    to its seed item, searched again for each key a new rule may force
    (``_reforce``).

    A rule mentions a key (``mentions``) when the key is in ``steps`` or
    ``into``; a forced key is in ``into``, as forcing needs a step in.

    ``link`` adds a rule and returns the keys whose in-steps or forced seed
    changed.  Nothing removes one: a rule, once entered, is never defeated,
    and a raised rule is linked again at its new strength beside its weaker
    copies, which have the same id and order and so never give a stronger
    label.  Each write replaces the value under one key and logs the old
    value, as ``put`` does, on ``trail``, the undo trail of the context that
    owns the graph.
    """

    def __init__(self, trail: list):
        self.steps: dict[str, tuple[tuple, ...]] = {}
        self.into: dict[str, tuple[str, ...]] = {}
        self.forced: dict[str, Item] = {}
        self.trail = trail

    def link(self, rule_id: str, strength: Strength, order: int, rule) -> set[str]:
        """Add a rule or biconditional: each of its ``steps`` under each of
        the step's antecedents.  Each write appends one value to the tuple
        under a key of a table."""
        steps, into, trail, changed = self.steps, self.into, self.trail, set()
        for dst, ants in rule.steps:
            step = (dst, ants, rule_id, strength, order)
            for a in ants:
                for table, key, value in ((steps, a.key, step), (into, dst.key, a.key)):
                    old = table.get(key)
                    trail.append((table, key, old))
                    table[key] = (value,) if old is None else old + (value,)
            changed.add(dst.key)
        changed |= self._reforce(rule.steps)
        return changed

    def mentions(self, key: str) -> bool:
        return key in self.into or key in self.steps

    def _reforce(self, steps: tuple[tuple, ...]) -> set[str]:
        """Search again the forced seed of each literal a rule's ``steps`` may
        force, and return the keys whose seed changed.  A first step u -> v
        with one antecedent can force only an L with !L reaching u and v
        reaching L; its contrapositive !v -> !u, halfway along, is in the
        graph, so !L reaches u exactly when !u reaches L.  ``forward`` also
        follows steps with several antecedents, which force nothing, so the
        keys it reaches from both v and !u are a superset, and
        ``forced_item`` gives None for a key not forced.  A biconditional's
        other direction gives the same literals: u and v reach each other,
        and so do !u and !v."""
        (dst, ants), (negated_src, _) = steps[0], steps[len(steps) // 2]
        changed = set()
        if len(ants) == 1:
            for key in forward(self, (dst.key,)) & forward(self, (negated_src.key,)):
                item = forced_item(self.steps, key)
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


def settle(graph: Graph, items: Iterable[Item], area: set[str]) -> dict[str, Item]:
    """Settle every literal of ``area`` that ``items`` reach, strongest
    first, then smallest rank; returns the settled items by key, with the
    labels merged in.  A step fires once each of its antecedents has settled:
    its rank is the premises' orders and the rule's order, latest first.

    ``area`` is a set of keys closed under ``graph``.  ``items`` holds the
    seeds of the area and the labels (from an earlier search) of the keys
    outside the area that have a step into it.  No step leads out
    of the area, so those keys keep their items, and the search pops each
    one from the same heap as its own items.  That is where a search over
    every key pops it: the first two fields of an item never fall along a
    step, and stay equal only when a step reuses a rule already among the
    premises.
    """
    steps = graph.steps
    push, pop = heapq.heappush, heapq.heappop
    heap: list[Item] = []
    for item in items:
        push(heap, item)
    settled: dict[str, Item] = {}
    while heap:
        item = pop(heap)
        key = item[2]
        if key in settled:
            continue
        settled[key] = item
        for dst, ants, rule_id, rule_strength, rule_order in steps.get(key, ()):
            dst_key = dst.key
            if dst_key in settled or dst_key not in area:
                continue
            weakest, ids, orders = -min(rule_strength, DERIVED_CAP), {rule_id}, {rule_order}
            for a in ants:
                premise = settled.get(a.key)
                if premise is None:
                    break
                if premise[0] > weakest:
                    weakest = premise[0]
                ids |= premise[4]
                orders.update(premise[1])
            else:
                push(heap, (weakest, tuple(sorted(orders, reverse=True)), dst_key, dst,
                            frozenset(ids)))
    return settled


def clashes(settled: dict[str, Item], label: Callable[[str], Optional[Item]],
            area: set[str]) -> list[tuple[object, object]]:
    """The (positive, negative) literal pairs settled together, by atom, for
    every atom of ``area``: ``settled`` holds the area's items and ``label``
    gives the others', such as the seed of a ``!c`` no rule mentions."""
    pairs = {}
    for key in area:
        if key in settled:
            lit = settled[key][3]
            neg = lit.contrary_key
            other = settled.get(neg) if neg in area else label(neg)
            if other is not None:
                pairs[lit.atom] = (lit, other[3]) if lit.positive else (other[3], lit)
    return list(map(pairs.get, sorted(pairs)))


def contrary(key: str) -> str:
    """The key of the negation of the literal with key ``key``."""
    return key[1:] if key[0] == "!" else "!" + key


def forward(graph: Graph, keys: Iterable[str]) -> set[str]:
    """``keys`` plus every key reachable from them along the steps (any
    antecedent reaches the target)."""
    steps = graph.steps
    area = set(keys)
    stack = list(area)
    while stack:
        for step in steps.get(stack.pop(), ()):
            if step[0].key not in area:
                area.add(step[0].key)
                stack.append(step[0].key)
    return area


def forced_item(steps: dict[str, tuple[tuple, ...]], key: str) -> Optional[Item]:
    """The seed item of the literal keyed ``key`` (the target of the step
    that reaches it) if its negation implies it along the steps with one
    antecedent, else None, as for a key ``Graph._reforce`` proposes in vain.

    A chain !L -> ... -> L forces L regardless of any asserted facts; this
    closes the gap left by pure unit propagation (e.g. a -> b plus !a -> b
    forces b).  The widest (strongest-weakest-rule) chain wins.
    """
    done: set[str] = set()
    heap: list[Item] = [(-PHYSICAL, (), contrary(key), None, frozenset())]
    while heap:
        weakest, rank, node, lit, ids = heapq.heappop(heap)
        if node in done:
            continue
        done.add(node)
        if node == key:
            return max(weakest, -DERIVED_CAP), rank, key, lit, ids
        for dst, ants, rule_id, rule_strength, rule_order in steps.get(node, ()):
            if len(ants) == 1 and dst.key not in done:
                heapq.heappush(heap, (max(weakest, -rule_strength),
                                      tuple(sorted({*rank, rule_order}, reverse=True)),
                                      dst.key, dst, ids | {rule_id}))
    return None

