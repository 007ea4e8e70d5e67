"""The benchmark's tracer wraps package functions by attribute name; every one
of them must still exist, or ``bench/run.py --trace 1`` breaks."""

import importlib
import sys
from pathlib import Path
from types import SimpleNamespace

from commonground import cli, engine, stats, trace, transcript

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_every_span_target_is_a_callable_of_the_package():
    sys.path.insert(0, str(BENCH))
    try:
        run = importlib.import_module("run")
    finally:
        sys.path.remove(str(BENCH))
    workload = SimpleNamespace(cli=cli, engine=engine, stats=stats, trace=trace,
                               transcript=transcript)
    targets = run.span_targets(workload)
    assert targets
    for name, owner, attribute, _ in targets:
        assert callable(getattr(owner, attribute, None)), name
