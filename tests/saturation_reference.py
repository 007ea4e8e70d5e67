"""The from-scratch saturation that ``Context.saturate`` replaced, kept as a
reference for tests.

It rebuilds the rule graph and runs the labelled search over every key on
every call.  ``Context.saturate`` covers only the keys a change can reach and
must give the same labels, commit order and clash lists.  The reachability
pre-test of the forced-literal search is left out: it skips only searches
that find nothing.  Keys are rebuilt from the surface text
(``reference_key``), independently of the key each proposition carries.
"""

import heapq

from commonground import Biconditional, ConflictDetected, Literal, Rule, Strength
from commonground.evidence import DERIVED_CAP
from commonground.retraction import add_dependents
from commonground.saturation import Derivation

L = Literal


def reference_key(p):
    """Canonical index key, rebuilt from the atoms.  Rule antecedents and
    biconditional sides are order-insensitive so that notational variants
    collapse to one entry."""
    if isinstance(p, Literal):
        return p.atom if p.positive else "!" + p.atom
    if isinstance(p, Rule):
        return (" & ".join(sorted(reference_key(a) for a in p.antecedents))
                + " -> " + reference_key(p.consequent))
    return " <-> ".join(sorted((reference_key(p.left), reference_key(p.right))))


def reference_saturate(ctx):
    """Reference for ``Context.saturate``: the from-scratch saturation it
    replaced, which rebuilds the rule graph and runs the labelled search over
    every key.  Returns (settled in commit order, literal entry ids by key)."""
    live = ctx.live_entries()
    lit_entries = {reference_key(e.proposition): e for e in live
                   if isinstance(e.proposition, L)}
    edges = {}
    multis = []

    def add_edge(src, dst, entry):
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

    def rank(deps):
        return tuple(sorted((ctx.entries[d].order for d in deps), reverse=True))

    settled = {}
    agenda = []

    def push(lit, deriv):
        heapq.heappush(agenda, ((-deriv.strength, deriv.rank, str(lit)), lit, deriv))

    for e in sorted(lit_entries.values(), key=lambda x: x.order):
        push(e.proposition, Derivation(e.strength, frozenset([e.entry_id]), (e.order,)))
    for lit, deriv in reference_forced_literals(edges, rank):
        push(lit, deriv)

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
            push(dst, Derivation(min(deriv.strength, rule_entry.strength, DERIVED_CAP),
                             deps, rank(deps)))
        for ants, consequent, rule_entry in multis:
            if str(consequent) in settled:
                continue
            if all(str(a) in settled for a in ants):
                strengths = [settled[str(a)][1].strength for a in ants]
                deps = {rule_entry.entry_id}
                for a in ants:
                    deps |= settled[str(a)][1].deps
                push(consequent, Derivation(min(min(strengths), rule_entry.strength, DERIVED_CAP),
                                        frozenset(deps), rank(deps)))

    clashes = []
    for key, (lit, _) in sorted(settled.items()):
        neg = str(lit.negated())
        if lit.positive and neg in settled:
            clashes.append((lit, settled[neg][0]))
    if clashes:
        raise ConflictDetected(clashes)
    return (sorted(settled.items(), key=lambda kv: kv[1][1].rank[::-1]),
            {key: e.entry_id for key, e in lit_entries.items()})


def reference_forced_literals(edges, rank):
    forced = []
    nodes = set(edges)
    for dsts in edges.values():
        nodes.update(str(d) for d, _ in dsts)
    for key in sorted(nodes):
        target = L(key.lstrip("!"), not key.startswith("!"))
        start = str(target.negated())
        best = {}
        heap = []
        seed = Derivation(Strength.PHYSICAL, frozenset(), ())
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
                cand = Derivation(min(deriv.strength, rule_entry.strength), deps, rank(deps))
                heapq.heappush(heap, ((-cand.strength, cand.rank, dk), dk, cand))
        if key in best and best[key].deps:
            d = best[key]
            forced.append((target, Derivation(min(d.strength, DERIVED_CAP), d.deps, d.rank)))
    return forced


def reference_commit(ctx, fixpoint):
    """Reference for ``Context.commit`` of a from-scratch fixpoint.  It
    indexes the dependencies it gives an entry, as ``commit`` does."""
    settled, entries = fixpoint
    inserted = []
    for key, (lit, deriv) in settled:
        eid = entries.get(key)
        if eid is not None:
            entry = ctx.entries[eid]
            derived_strength = min(deriv.strength, DERIVED_CAP)
            if derived_strength > entry.strength:
                entry.strength = derived_strength
                entry.dependencies = set(deriv.deps - {eid})
                add_dependents(ctx._dependents, eid, entry.dependencies)
            continue
        existing = ctx.lookup(lit)
        if existing is not None:
            if deriv.strength > existing.strength:
                existing.strength = deriv.strength
                existing.dependencies = set(deriv.deps)
                add_dependents(ctx._dependents, existing.entry_id, existing.dependencies)
            continue
        inserted.append(ctx._insert(lit, deriv.strength, (), set(deriv.deps)))
    return inserted
