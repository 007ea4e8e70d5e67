"""The benchmark's files, read from the tests: its tracer wraps package
functions by attribute name, its contested dialogues replay to pinned
outputs, and its traced mode runs.  These tests change no file under
``bench/``."""

import importlib
import json
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

from commonground import cli, engine, stats, trace, transcript

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"


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


def test_traced_run_reports_the_defeat_and_retract_spans():
    """``bench/run.py --trace 1`` reproduces its reference under the tracer
    and reports the spans that read ``acceptance.defeat``'s return value and
    ``propositions.retract``'s calls (about 5 s)."""
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "contested",
                           "--seed", "1", "--seconds", "0.2", "--trace", "1"],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert {"acceptance.defeat.retracted_per_call",
            "propositions.retract.calls"} <= result["metrics"].keys()
