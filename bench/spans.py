"""Outside-in spans around calls into the program's modules.

The tracer replaces a public function by a wrapper wherever the program can
reach it: on its class, or on every ``commonground`` module that binds the
function object (``engine`` calls ``acc.defeat`` through the module, while
``cli`` and ``acceptance`` hold their own names for ``parse`` and
``retract``).  Each call records a span: name, start, end, the span that was
open when it began, an optional observed value, and whether it raised.
Spans live in flat arrays while the benchmark runs and are summarised (or
written out) only at the end.

A wrapper costs time of its own: part of it falls inside the span it
records, part before the span opens and after it closes, where it would be
charged to the caller's span.  ``wrapper_cost`` measures both parts on an
empty function, and ``summarise`` takes them out of the spans' self times and
reports them under ``TRACER``.
"""

from __future__ import annotations

import json
import math
import sys
import time
from array import array
from dataclasses import dataclass, field

NO_VALUE = math.nan
TRACER = "harness.tracer"  # summary entry for the wrappers' own time

# how a span was opened: by hand, or by a wrapper with or without an observer
HAND, PLAIN, OBSERVED = 0, 1, 2


class Tracer:
    """Span store for one single-threaded run."""

    def __init__(self):
        self.names: list[str] = []
        self.kinds: list[int] = []  # per name: HAND, PLAIN or OBSERVED
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.value = array("d")
        self.raised = array("b")
        self._open: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.name)

    def _name_id(self, name: str, kind: int) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.kinds.append(kind)
        return nid

    def begin(self, name: str) -> int:
        """Open a span by hand (the harness's own root spans)."""
        return self._begin(self._name_id(name, HAND))

    def _begin(self, nid: int) -> int:
        index = len(self.name)
        self.name.append(nid)
        self.parent.append(self._open[-1] if self._open else -1)
        self.end.append(0.0)
        self.value.append(NO_VALUE)
        self.raised.append(0)
        self._open.append(index)
        self.start.append(time.perf_counter())
        return index

    def finish(self, index: int, raised: bool = False) -> None:
        self.end[index] = time.perf_counter()
        self._open.pop()
        if raised:
            self.raised[index] = 1

    def wrap(self, name: str, fn, observe=None):
        """``fn`` recording a span per call; ``observe(args, result)`` may
        return a number to store on the span (it is called after the span
        closes, and with ``result`` None when the call raised)."""
        nid = self._name_id(name, PLAIN if observe is None else OBSERVED)

        def traced(*args, **kwargs):
            index = self._begin(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.finish(index, raised=True)
                if observe is not None:
                    self.value[index] = observe(args, None)
                raise
            self.finish(index)
            if observe is not None:
                self.value[index] = observe(args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self, package: str, targets) -> None:
        """Wrap each ``(span name, owner, attribute, observe)`` target.

        A class attribute is patched on the class (and restored as it was
        found there, classmethods included).  A module function is
        patched on every loaded module of ``package`` that binds the same
        object, so callers that imported it by name are traced too."""
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == package or n.startswith(package + "."))]
        for name, owner, attr, observe in targets:
            fn = getattr(owner, attr)
            wrapper = self.wrap(name, fn, observe)
            if isinstance(owner, type):
                raw = vars(owner)[attr]
                # a classmethod is looked up already bound to its class
                patch = staticmethod(wrapper) if isinstance(raw, classmethod) else wrapper
                self._patches.append((owner, attr, raw))
                setattr(owner, attr, patch)
                continue
            for holder in [m for m in modules if getattr(m, attr, None) is fn]:
                self._patches.append((holder, attr, fn))
                setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, fn in reversed(self._patches):
            setattr(holder, attr, fn)
        self._patches.clear()

    def write(self, path) -> None:
        """All spans as JSON lines: name, start and end in µs, parent index."""
        t0 = self.start[0] if len(self) else 0.0
        with open(path, "w", encoding="utf-8") as out:
            for i in range(len(self)):
                row = {"i": i, "name": self.names[self.name[i]],
                       "start_us": round((self.start[i] - t0) * 1e6, 3),
                       "end_us": round((self.end[i] - t0) * 1e6, 3),
                       "parent": self.parent[i]}
                if not math.isnan(self.value[i]):
                    row["value"] = self.value[i]
                if self.raised[i]:
                    row["raised"] = True
                out.write(json.dumps(row) + "\n")


@dataclass(frozen=True)
class WrapperCost:
    """Seconds a wrapper adds to one call: ``inside`` between the span's
    start and end stamps, ``outside`` before and after them (``observed``
    for a wrapper that also runs an observer)."""

    inside: float = 0.0
    outside: float = 0.0
    observed: float = 0.0

    def outside_for(self, kind: int) -> float:
        return (0.0, self.outside, self.observed)[kind]


def wrapper_cost(calls: int = 2000, blocks: int = 15) -> WrapperCost:
    """Measure ``WrapperCost`` on an empty function: each figure is taken
    from the fastest of ``blocks`` blocks of ``calls`` calls."""
    probe = Tracer()

    def noop(arg):
        return None

    plain = probe.wrap("probe.plain", noop)
    observed = probe.wrap("probe.observed", noop, lambda args, result: float(result is None))

    def per_call(fn) -> float:
        best = math.inf
        for _ in range(blocks):
            t0 = time.perf_counter()
            for _ in range(calls):
                fn(None)
            best = min(best, time.perf_counter() - t0)
        return best / calls

    def span_length() -> float:
        best = math.inf
        for _ in range(blocks):
            first = len(probe)
            for _ in range(calls):
                plain(None)
            best = min(best, sum(probe.end[i] - probe.start[i]
                                 for i in range(first, len(probe))) / calls)
        return best

    direct = per_call(noop)
    inside = max(0.0, span_length() - direct)
    return WrapperCost(inside=inside,
                       outside=max(0.0, per_call(plain) - direct - inside),
                       observed=max(0.0, per_call(observed) - direct - inside))


@dataclass
class NameStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    raised: int = 0
    values: list[float] = field(default_factory=list)
    by_parent_s: dict[str, float] = field(default_factory=dict)


def summarise(tracer: Tracer, cost: WrapperCost = WrapperCost()) -> dict[str, NameStats]:
    """Per span name: calls, total and self time, raises, observed values,
    and total time split by the name of the parent span.

    Times leave out the wrappers' own time (``cost``): a span's total is its
    duration minus the wrapper time that fell inside it, its own and its
    descendants'; its self time is that total minus its children's totals.
    The wrapper time is reported as the self time of ``TRACER``.  Spans nest
    strictly (one thread, wrappers that close in LIFO order), so children
    never overlap and the self times of all entries add up to the durations
    of the root spans, with nothing counted twice."""
    n = len(tracer)
    kind = array("b", (tracer.kinds[nid] for nid in tracer.name))
    wrapped = array("d", (cost.inside if k != HAND else 0.0 for k in kind))  # inside span i
    children = array("d", bytes(8 * n))  # the totals of span i's children
    wrappers = NameStats()
    # a child always opens after its parent, so walking backwards finishes
    # every span's children before the span itself
    for i in reversed(range(n)):
        p = tracer.parent[i]
        if kind[i] != HAND:
            wrappers.calls += 1
            wrappers.total_s += cost.inside
        if p >= 0:
            wrapped[p] += wrapped[i] + cost.outside_for(kind[i])
            wrappers.total_s += cost.outside_for(kind[i])
    wrappers.self_s = wrappers.total_s
    total = array("d", (tracer.end[i] - tracer.start[i] - wrapped[i] for i in range(n)))
    for i in range(n):
        p = tracer.parent[i]
        if p >= 0:
            children[p] += total[i]
    out: dict[str, NameStats] = {TRACER: wrappers}
    for i in range(n):
        name = tracer.names[tracer.name[i]]
        s = out.get(name)
        if s is None:
            s = out[name] = NameStats()
        s.calls += 1
        s.total_s += total[i]
        s.self_s += total[i] - children[i]
        s.raised += tracer.raised[i]
        if not math.isnan(tracer.value[i]):
            s.values.append(tracer.value[i])
        p = tracer.parent[i]
        pname = tracer.names[tracer.name[p]] if p >= 0 else ""
        s.by_parent_s[pname] = s.by_parent_s.get(pname, 0.0) + total[i]
    return out
