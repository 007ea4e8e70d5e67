"""Replay benchmark for commonground: one command, one workload, one result.

    python3 bench/run.py --workload corpus|contested \\
        --seed N --seconds S --trace 0|1 [--spans FILE]

It imports the program from the ``src`` directory of the checkout that holds
this file, builds the workload's inputs from the seed, runs the correctness
gate untimed, then replays the inputs in whole passes, in this one process
and thread, until ``--seconds`` are used.  Every pass must reproduce the
gate's outputs byte for byte.  The last line of stdout is the result::

    {"correct": true, "attempted": 1840, "failed": 0, "metrics": {...}}

``attempted`` counts the events the timed passes offered the program;
``failed`` counts the events of passes that did not reproduce the gate's
outputs, so it is 0 when the program is correct.  The program's known
uncaught-conflict crash is an outcome the gate checks, not a
failed operation: the events it raises on or cuts off are what
``completed_frac`` (events replayed to completion / events offered) leaves
out.

``--trace 0`` reports the end-to-end metrics (``END_TO_END``).  Every pass
replays the same events; each segment of a pass is timed by the fastest
tenth of its repeats (see ``end_to_end``).  ``setup_s`` is timed in
fresh processes, run between the passes, that import the program and read
the input files; it is the median of their fastest tenth.
``--trace 1`` alternates untraced passes with passes whose calls into the
program are wrapped in spans (see ``spans.py``) and reports the per-layer
metrics (``PER_LAYER``); ``--spans FILE`` also writes every span as JSON
lines.
Without the program's sources beside it, the benchmark exits with status 2
and prints no result.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from array import array
from dataclasses import dataclass
from pathlib import Path

import fit
import gate
import spans
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 30
SEGMENT_EVENTS = 24  # completed events per timed segment of a pass
LAYERS = ("transcript", "engine", "grounding", "acceptance", "propositions",
          "trace", "stats", "cli", "harness")

#: name -> unit, for the metrics a ``--trace 0`` run prints
END_TO_END = {
    "events_per_s": "1/s",
    "event_p50_us": "us",
    "event_p90_us": "us",
    "growth_exp": "exponent",
    "completed_frac": "fraction",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

#: name -> unit, for the metrics a ``--trace 1`` run prints.  ``<layer>.``
#: names a module of the program (``harness`` is the benchmark itself); "per
#: event" is per ``DialogueEngine.process`` call in the traced passes, and
#: "per pass" per replay of the whole workload.  Layer times leave out the
#: wrappers' own time, which ``harness`` carries.
PER_LAYER = {
    **{f"{layer}.self_us_per_event": "us/event" for layer in LAYERS},
    "spans.wall_us_per_event": "us/event",
    "spans.accounted_ratio": "ratio",
    "tracing.overhead_us_per_event": "us/event",
    "tracing.calibrated_us_per_event": "us/event",
    "tracing.overhead_frac": "fraction",
    "engine.process.self_us_per_event": "us/event",
    "propositions.closure.self_us_per_event": "us/event",
    "propositions.closure.calls_per_event": "calls/event",
    "propositions.closure.trial_us_per_event": "us/event",
    "propositions.closure.commit_us_per_event": "us/event",
    "propositions.closure.raised_ratio": "ratio",
    "propositions.clone.us_per_event": "us/event",
    "propositions.context_entries": "entries",
    "propositions.is_redundant.us_per_event": "us/event",
    "propositions.assert_prop.us_per_event": "us/event",
    "propositions.asserted_roots.us_per_event": "us/event",
    "propositions.retract.calls": "calls/pass",
    "propositions.retract.us_per_call": "us/call",
    "acceptance.defeat.retracted_per_call": "ids/call",
    "acceptance.detect_conflict.self_us_per_event": "us/event",
    "acceptance.detect_conflict.conflict_ratio": "ratio",
    "acceptance.evaluate_acceptance.us_per_event": "us/event",
    "acceptance.reevaluate_pending.us_per_event": "us/event",
    "grounding.classify_iru.us_per_event": "us/event",
    "grounding.resolved_antecedents.us_per_event": "us/event",
    "grounding.apply_any_next_upgrade.calls_per_event": "calls/event",
    "grounding.record_license_evidence.calls": "calls/pass",
    "transcript.parse.us_per_event": "us/event",
    "trace.write_trace.us_per_event": "us/event",
    "trace.bytes_per_event": "B/event",
    "stats.collect_observations.us_per_event": "us/event",
    "stats.render_stats.us": "us/pass",
}


class ProcessClock:
    """Times every ``DialogueEngine.process`` call that returns, and notes
    when it started and the event's place in its dialogue; the only wrapper
    an untraced pass carries."""

    def __init__(self, engine_cls):
        self.cls = engine_cls
        self.original = engine_cls.process
        self.starts = array("d")
        self.latencies = array("d")
        self.positions = array("i")

    def install(self) -> None:
        original, clock = self.original, time.perf_counter
        starts, latencies, positions = self.starts, self.latencies, self.positions

        def process(engine, event):
            position = len(engine.traces)  # events this engine has completed
            start = clock()
            record = original(engine, event)
            latencies.append(clock() - start)
            starts.append(start)
            positions.append(position)
            return record

        self.cls.process = process

    def uninstall(self) -> None:
        self.cls.process = self.original


@dataclass
class Pass:
    """One untraced pass: its wall time and, for each event that completed,
    when its ``process`` call started (seconds into the pass), how long the
    call took, and the event's place in its dialogue."""

    wall: float
    starts: array
    latencies: array
    positions: array

    def segment_wall(self, first: int, last: int) -> float:
        """Wall time from the start of completed event ``first`` (or of the
        pass) to the start of event ``last`` (or the end of the pass)."""
        begin = self.starts[first] if first else 0.0
        return (self.starts[last] if last < len(self.starts) else self.wall) - begin


def span_targets(w: workloads.Workload):
    """Every public function a pass reaches, as (span name, owner, attribute,
    observe).  Span names are ``<module>.<function>``; the module is the layer."""
    from commonground import acceptance, grounding, propositions
    context, engine = propositions.Context, w.engine.DialogueEngine
    plain = [
        ("transcript.parse", w.transcript, "parse"),
        ("engine.replay_transcript", w.engine, "replay_transcript"),
        ("engine.for_transcript", engine, "for_transcript"),
        ("engine.process", engine, "process"),
        ("grounding.open_record", grounding, "open_record"),
        ("grounding.understanding_strength", grounding, "understanding_strength"),
        ("grounding.apply_any_next_upgrade", grounding, "apply_any_next_upgrade"),
        ("grounding.classify_iru", grounding, "classify_iru"),
        ("grounding.resolved_antecedents", grounding, "resolved_antecedents"),
        ("grounding.apply_iru_upgrade", grounding, "apply_iru_upgrade"),
        ("grounding.record_license_evidence", grounding, "record_license_evidence"),
        ("acceptance.reevaluate_pending", acceptance, "reevaluate_pending"),
        ("acceptance.evaluate_acceptance", acceptance, "evaluate_acceptance"),
        ("acceptance.record_support", acceptance, "record_support"),
        ("propositions.closure", context, "closure"),
        ("propositions.clone", context, "clone"),
        ("propositions.assert_prop", context, "assert_prop"),
        ("propositions.is_redundant", context, "is_redundant"),
        ("propositions.asserted_roots", context, "asserted_roots"),
        ("propositions.lookup", context, "lookup"),
        ("propositions.lookup_key", context, "lookup_key"),
        ("propositions.defeat_entry", context, "defeat_entry"),
        ("propositions.retract", propositions, "retract"),
        ("trace.snapshot_record", w.trace, "snapshot_record"),
        ("trace.prop_text", w.trace, "prop_text"),
        ("stats.collect_observations", w.stats, "collect_observations"),
        ("stats.aggregate", w.stats, "aggregate"),
        ("stats.render_stats", w.stats, "render_stats"),
        ("cli.main", w.cli, "main"),
    ]
    observed = [
        ("engine.replay", engine, "replay",
         lambda args, result: len(args[0].state.context.entries)),
        ("acceptance.detect_conflict", acceptance, "detect_conflict",
         lambda args, result: float(result is not None)),
        ("acceptance.defeat", acceptance, "defeat",
         lambda args, result: len(result.defeated) if result is not None else spans.NO_VALUE),
        ("trace.write_trace", w.trace, "write_trace",
         lambda args, result: len(result) if result is not None else spans.NO_VALUE),
    ]
    return [(name, owner, attr, None) for name, owner, attr in plain] + observed


def run_passes(w: workloads.Workload, seconds: float, reference: dict[str, str],
               tracer: spans.Tracer | None = None, setup: bool = False):
    """Whole passes until ``seconds`` are used (at least one of each kind).

    Untraced passes carry only the process clock.  With a tracer, traced
    passes alternate with untraced ones.  Each pass starts from a full
    collection, so the program allocates from the same collector state in
    every pass and its collections fall on the same events.  With
    ``setup``, SETUP_REPEATS set-up timings (``setup_once``) are spread
    evenly between the passes, so they sample the same stretches of the host
    as the passes do.  Returns the untraced passes, the traced walls, the
    set-up timings, and a note for each pass that did not reproduce
    ``reference``."""
    clock = ProcessClock(w.engine.DialogueEngine)
    targets = span_targets(w) if tracer is not None else ()
    untraced: list[Pass] = []
    traced: list[float] = []
    setups: list[float] = []
    mismatches: list[str] = []
    start = time.perf_counter()
    wall = 0.0
    while not untraced or (tracer is not None and not traced) \
            or time.perf_counter() - start + wall / 2 < seconds:
        gc.collect()
        tracing = tracer is not None and len(traced) < len(untraced)
        if tracing:
            tracer.install("commonground", targets)
            root = tracer.begin("harness.pass")
        else:
            clock.install()
        done = len(clock.latencies)
        t0 = time.perf_counter()
        try:
            outputs = w.run_pass()
        finally:
            wall = time.perf_counter() - t0
            if tracing:
                tracer.finish(root)
                tracer.uninstall()
            else:
                clock.uninstall()
        if tracing:
            traced.append(wall)
        else:
            untraced.append(Pass(wall, array("d", (t - t0 for t in clock.starts[done:])),
                                 clock.latencies[done:], clock.positions[done:]))
        if gate.digests(outputs) != reference:
            mismatches.append(f"{'traced' if tracing else 'untraced'} pass "
                              f"{len(untraced) + len(traced)} did not reproduce the gate's outputs")
        # at most one set-up timing after each pass, once it is due
        if setup and len(setups) < min(SETUP_REPEATS,
                                       SETUP_REPEATS * (time.perf_counter() - start) / seconds):
            setups.append(setup_once(w.paths))
    while setup and len(setups) < SETUP_REPEATS:
        setups.append(setup_once(w.paths))
    return untraced, traced, setups, mismatches


def setup_once(paths: list[Path]) -> float:
    """Set-up time: a fresh interpreter imports the program and reads the
    workload's input files."""
    code = ("import sys, time\n"
            "t0 = time.perf_counter()\n"
            f"sys.path.insert(0, {str(ROOT / 'src')!r})\n"
            "import commonground\n"
            "for path in sys.argv[1:]:\n"
            "    with open(path, encoding='utf-8') as f:\n"
            "        f.read()\n"
            "print(time.perf_counter() - t0)\n")
    done = subprocess.run([sys.executable, "-c", code, *map(str, paths)],
                          capture_output=True, text=True, check=True, timeout=120)
    return float(done.stdout)


def end_to_end(w: workloads.Workload, seconds: float, reference) -> tuple[dict, int, int, list]:
    # the gate has replayed the workload, so the program's peak is reached;
    # read it before the timed passes pile up their latency samples
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    untraced, _, setups, mismatches = run_passes(w, seconds, reference, setup=True)
    attempted = w.events * len(untraced)
    completed = sum(len(p.latencies) for p in untraced)
    # The host's speed switches every few seconds as other load comes and
    # goes.  Every pass replays the same events and collects at the same
    # points, so each pass is cut into segments of SEGMENT_EVENTS completed
    # events, and each segment is timed, wall to wall, by the median of its
    # fastest tenth over the passes: its cost when nothing else shares the
    # core.  The segments' times add up to the pass time; latencies are
    # pooled from the same fastest segments.
    per_pass = len(untraced[0].latencies)
    pass_s = 0.0
    timed = []  # (latency, place in dialogue) of the events in the fastest segments
    for first in range(0, per_pass, SEGMENT_EVENTS):
        last = min(first + SEGMENT_EVENTS, per_pass)
        fastest = fit.fastest_tenth(untraced, key=lambda p: p.segment_wall(first, last))
        pass_s += statistics.median(p.segment_wall(first, last) for p in fastest)
        for p in fastest:
            timed.extend(zip(p.latencies[first:last], p.positions[first:last]))
    samples = [latency for latency, _ in timed]
    values = {
        "events_per_s": per_pass / pass_s,
        "event_p50_us": statistics.median(samples) * 1e6,
        "event_p90_us": fit.p90(samples) * 1e6,
        "growth_exp": fit.growth_exp(fit.by_position(timed)),
        "completed_frac": completed / attempted,
        "peak_rss_mb": peak_rss_mb,
        "setup_s": statistics.median(fit.fastest_tenth(setups)),
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    return metrics, attempted, w.events * len(mismatches), mismatches


def per_layer(w: workloads.Workload, seconds: float, reference,
              spans_path: str | None) -> tuple[dict, int, int, list]:
    tracer = spans.Tracer()
    untraced, traced, _, mismatches = run_passes(w, seconds, reference, tracer)
    s = spans.summarise(tracer, spans.wrapper_cost())
    if spans_path:
        tracer.write(spans_path)
    none = spans.NameStats()
    get = lambda name: s.get(name, none)  # noqa: E731
    process = get("engine.process")
    events = process.calls  # per traced pass, every event replayed or raised
    passes = len(traced)
    per_pass = events // passes
    # traced and untraced passes alternate, so their medians see the same
    # mix of fast and slow stretches of the host
    untraced_wall = statistics.median(p.wall for p in untraced)
    traced_wall = statistics.median(traced)
    wrappers = get(spans.TRACER).self_s / passes

    def us(name: str) -> float:
        return get(name).total_s * 1e6 / events

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    def mean(values) -> float:
        return ratio(sum(values), len(values))

    closure = get("propositions.closure")
    retract = get("propositions.retract")
    values = {f"{layer}.self_us_per_event":
              sum(v.self_s for k, v in s.items() if k.split(".")[0] == layer) * 1e6 / events
              for layer in LAYERS}
    values.update({
        "spans.wall_us_per_event": traced_wall * 1e6 / per_pass,
        "spans.accounted_ratio": (traced_wall - wrappers) / untraced_wall,
        "tracing.overhead_us_per_event": (traced_wall - untraced_wall) * 1e6 / per_pass,
        "tracing.calibrated_us_per_event": wrappers * 1e6 / per_pass,
        "tracing.overhead_frac": traced_wall / untraced_wall - 1,
        "engine.process.self_us_per_event": process.self_s * 1e6 / events,
        "propositions.closure.self_us_per_event": closure.self_s * 1e6 / events,
        "propositions.closure.calls_per_event": closure.calls / events,
        "propositions.closure.trial_us_per_event":
            closure.by_parent_s.get("acceptance.detect_conflict", 0.0) * 1e6 / events,
        "propositions.closure.commit_us_per_event":
            closure.by_parent_s.get("engine.process", 0.0) * 1e6 / events,
        "propositions.closure.raised_ratio": ratio(closure.raised, closure.calls),
        "propositions.clone.us_per_event": us("propositions.clone"),
        "propositions.context_entries": mean(get("engine.replay").values),
        "propositions.is_redundant.us_per_event": us("propositions.is_redundant"),
        "propositions.assert_prop.us_per_event": us("propositions.assert_prop"),
        "propositions.asserted_roots.us_per_event": us("propositions.asserted_roots"),
        "propositions.retract.calls": retract.calls / passes,
        "propositions.retract.us_per_call": ratio(retract.total_s * 1e6, retract.calls),
        "acceptance.defeat.retracted_per_call": mean(get("acceptance.defeat").values),
        "acceptance.detect_conflict.self_us_per_event":
            get("acceptance.detect_conflict").self_s * 1e6 / events,
        "acceptance.detect_conflict.conflict_ratio":
            mean(get("acceptance.detect_conflict").values),
        "acceptance.evaluate_acceptance.us_per_event": us("acceptance.evaluate_acceptance"),
        "acceptance.reevaluate_pending.us_per_event": us("acceptance.reevaluate_pending"),
        "grounding.classify_iru.us_per_event": us("grounding.classify_iru"),
        "grounding.resolved_antecedents.us_per_event": us("grounding.resolved_antecedents"),
        "grounding.apply_any_next_upgrade.calls_per_event":
            get("grounding.apply_any_next_upgrade").calls / events,
        "grounding.record_license_evidence.calls":
            get("grounding.record_license_evidence").calls / passes,
        "transcript.parse.us_per_event": us("transcript.parse"),
        "trace.write_trace.us_per_event": us("trace.write_trace"),
        "trace.bytes_per_event": sum(get("trace.write_trace").values) / events,
        "stats.collect_observations.us_per_event": us("stats.collect_observations"),
        "stats.render_stats.us": get("stats.render_stats").total_s * 1e6 / passes,
    })
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}
    attempted = w.events * (len(untraced) + len(traced))
    return metrics, attempted, w.events * len(mismatches), mismatches


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="with --trace 1, write every span to this file")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import commonground
    except ImportError as exc:
        print(f"cannot import the program from {src}: {exc}", file=sys.stderr)
        return 2
    if Path(commonground.__file__).resolve().parent != src / "commonground":
        print(f"commonground was imported from {commonground.__file__}, not {src}",
              file=sys.stderr)
        return 2

    w = workloads.WORKLOADS[args.workload](ROOT, args.seed)
    problems, reference = w.gate()
    reference = gate.digests(reference)
    if args.trace:
        metrics, attempted, failed, more = per_layer(w, args.seconds, reference, args.spans)
    else:
        metrics, attempted, failed, more = end_to_end(w, args.seconds, reference)
    problems += more
    for problem in problems:
        print(f"incorrect: {problem}", file=sys.stderr)
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
