"""The dependency graph's one retraction walk, and the reverse-dependency
index it walks.

A node is anything with a ``status`` and a set of ``dependencies``, the
ids it rests on: a proposition entry, an acceptance belief or a support link.
``propositions.Context`` holds the nodes, keeps the index with
``add_dependents``, and writes the status of the nodes ``retract`` finds.
"""

from __future__ import annotations

from typing import Iterable

LIVE = "live"
DEFEATED = "defeated"


def add_dependents(index: dict[str, set[str]], node_id: str, ids: Iterable[str]) -> None:
    """Record in a reverse-dependency index that ``node_id`` depends on
    ``ids``.  The index only grows: ``retract`` checks each node it names."""
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
