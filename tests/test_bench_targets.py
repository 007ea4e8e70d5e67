"""The benchmark's files, read from the tests: its tracer wraps package
functions by attribute name, and its contested dialogues replay to pinned
outputs.  These tests change no file under ``bench/``."""

import importlib
import sys
from pathlib import Path
from types import SimpleNamespace

from commonground import cli, engine, stats, trace, transcript

BENCH = Path(__file__).resolve().parent.parent / "bench"


def bench_module(name):
    sys.path.insert(0, str(BENCH))
    try:
        return importlib.import_module(name)
    finally:
        sys.path.remove(str(BENCH))


def test_every_span_target_is_a_callable_of_the_package():
    """Every target must still exist, or ``bench/run.py --trace 1`` breaks."""
    run = bench_module("run")
    workload = SimpleNamespace(cli=cli, engine=engine, stats=stats, trace=trace,
                               transcript=transcript)
    targets = run.span_targets(workload)
    assert targets
    for name, owner, attribute, _ in targets:
        assert callable(getattr(owner, attribute, None)), name


def test_contested_outputs_match_their_pins(tmp_path):
    """Each trace and the stats of the contested dialogues of the pinned seed
    hash to ``bench/pinned.json``, so a byte-level change in them fails here
    and not only in a benchmark run.  The generated inputs go under
    ``tmp_path``."""
    gate, workloads = bench_module("gate"), bench_module("workloads")
    outputs = workloads.Contested(tmp_path, gate.PINNED_SEED).run_pass()
    assert gate.digests(outputs) == gate.load_pins()["contested"]
