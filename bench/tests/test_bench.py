"""Tests of the benchmark itself: python3 -m pytest bench/tests"""

import json
import math
import shutil
import subprocess
import sys
import types
from pathlib import Path
from types import SimpleNamespace

import pytest

import fit
import gate
import gen
import run
import spans
import workloads
from commonground import parse

ROOT = Path(__file__).resolve().parents[2]


@pytest.mark.parametrize("seed", [0, 7])
def test_generator_is_deterministic_and_parses(seed):
    assert gen.contested(seed) == gen.contested(seed)
    assert gen.contested(seed) != gen.contested(seed + 1)
    for text in gen.contested(seed)[:3]:
        assert len(parse(text).events) == sum(n for n, _ in gen.CONTESTED_MIX.values())


def _span(tracer, name, start, end):
    index = tracer.begin(name)
    tracer.finish(index)
    tracer.start[index], tracer.end[index] = start, end
    return index


def test_self_time_subtracts_children_once():
    t = spans.Tracer()
    root = t.begin("harness.pass")
    a = t.begin("engine.process")
    _span(t, "propositions.closure", 2.0, 3.0)
    t.finish(a)
    _span(t, "propositions.closure", 5.0, 9.0)
    t.finish(root)
    t.start[root], t.end[root] = 0.0, 10.0
    t.start[a], t.end[a] = 1.0, 4.0
    s = spans.summarise(t)
    assert s["harness.pass"].self_s == pytest.approx(10 - 3 - 4)
    assert s["engine.process"].self_s == pytest.approx(2)
    assert s["propositions.closure"].self_s == pytest.approx(5)
    assert s["propositions.closure"].by_parent_s == pytest.approx(
        {"engine.process": 1.0, "harness.pass": 4.0})
    assert sum(v.self_s for v in s.values()) == pytest.approx(10)

    # wrapper time leaves the spans it fell in and goes to the tracer entry
    for name in ("engine.process", "propositions.closure"):
        t.kinds[t.names.index(name)] = spans.PLAIN
    s = spans.summarise(t, spans.WrapperCost(inside=0.1, outside=0.2))
    assert s["propositions.closure"].total_s == pytest.approx(0.9 + 3.9)
    assert s["engine.process"].total_s == pytest.approx(3 - 0.1 - 0.3)
    assert s["engine.process"].self_s == pytest.approx(2.6 - 0.9)
    assert s["harness.pass"].self_s == pytest.approx(10 - 0.9 - 2.6 - 3.9)
    assert (s[spans.TRACER].calls, s[spans.TRACER].self_s) == (3, pytest.approx(0.9))
    assert sum(v.self_s for v in s.values()) == pytest.approx(10)


def test_wrapper_cost_is_measured():
    cost = spans.wrapper_cost(calls=200, blocks=3)
    assert 0 < cost.inside < 1e-4 and 0 < cost.outside < 1e-4
    assert cost.observed >= cost.outside * 0.5


def test_install_wraps_every_binding_and_restores(monkeypatch):
    def work(x):
        if x < 0:
            raise ValueError(x)
        return x * 2

    pkg, sub = types.ModuleType("fakepkg"), types.ModuleType("fakepkg.sub")
    pkg.work = sub.work = work
    monkeypatch.setitem(sys.modules, "fakepkg", pkg)
    monkeypatch.setitem(sys.modules, "fakepkg.sub", sub)
    t = spans.Tracer()
    t.install("fakepkg", [("sub.work", pkg, "work", lambda args, result: args[0])])
    assert pkg.work(2) == 4 and sub.work(3) == 6
    with pytest.raises(ValueError):
        sub.work(-1)
    t.uninstall()
    assert pkg.work is work and sub.work is work
    s = spans.summarise(t)["sub.work"]
    assert (s.calls, s.raised, s.values) == (3, 1, [2.0, 3.0, -1.0])


def test_install_wraps_a_classmethod_and_restores_it():
    class Maker:
        @classmethod
        def make(cls, x):
            return (cls, x)

    original = vars(Maker)["make"]
    t = spans.Tracer()
    t.install("fakepkg", [("maker.make", Maker, "make", None)])
    assert Maker.make(1) == (Maker, 1) and Maker().make(2) == (Maker, 2)
    t.uninstall()
    assert vars(Maker)["make"] is original
    assert spans.summarise(t)["maker.make"].calls == 2


def test_growth_exp_recovers_a_known_slope():
    for b in (1.0, 2.3):
        latencies = [k ** b - (k - 1) ** b for k in range(1, 301)]
        assert fit.growth_exp(latencies) == pytest.approx(b, abs=1e-9)


def test_by_position_averages_the_kth_event_of_each_dialogue():
    # two dialogues, the second cut off after two events
    timed = [(1.0, 0), (2.0, 1), (3.0, 2), (3.0, 0), (4.0, 1)]
    assert fit.by_position(timed) == [2.0, 3.0, 3.0]


def test_pass_segments_cover_the_pass_wall_to_wall():
    from array import array
    p = run.Pass(wall=10.0, starts=array("d", [1.0, 2.5, 4.0, 7.0, 8.0]),
                 latencies=array("d", [1.0] * 5), positions=array("i", range(5)))
    segments = [p.segment_wall(first, min(first + 2, 5)) for first in range(0, 5, 2)]
    assert segments == [4.0 - 0.0, 8.0 - 4.0, 10.0 - 8.0]
    assert sum(segments) == p.wall


def test_p90_has_ten_samples_beyond_it():
    values = list(range(100))
    assert sum(v > fit.p90(values) for v in values) == 10


def test_one_byte_change_to_a_pinned_output_trips_the_gate():
    outputs = workloads.Corpus(ROOT, 0).run_pass()
    pins = gate.load_pins()["corpus"]
    assert gate.compare(outputs, pins, "corpus") == []
    text = outputs["stats"]
    outputs["stats"] = text[:10] + chr(ord(text[10]) ^ 1) + text[11:]
    assert gate.compare(outputs, pins, "corpus") == [
        f"corpus: stats digest {gate.digest(outputs['stats'])} != pinned {pins['stats']}"]


def test_gate_allows_only_the_known_crash():
    outputs = {"dialogue0": "u0 ...\n", "dialogue1": "u0 ...\nerror: ConflictDetected: x\n",
               "dialogue2": "u0 ...\nerror: UnknownProposition: p\n"}
    assert gate.unexpected_errors(outputs, "contested") == [
        "contested: dialogue2 ended in UnknownProposition"]


def test_invariants_flag_each_violation():
    lit = lambda atom, positive: SimpleNamespace(atom=atom, positive=positive)  # noqa: E731
    entry = lambda prop, strength, status="live", deps=(): SimpleNamespace(  # noqa: E731
        proposition=prop, strength=strength, status=status, dependencies=set(deps))
    state = SimpleNamespace(dialogue_id="d", nodes={}, context=SimpleNamespace(entries={
        "e1": entry(lit("p", True), 3), "e2": entry(lit("q", True), 2, "defeated")}))
    check = gate.Invariants("live")
    check(state, "u0")
    assert check.violations == []
    state.context.entries.update({
        "e1": entry(lit("p", True), 1),
        "e3": entry(lit("p", False), 3),
        "e4": entry(lit("r", True), 3, deps=["e2"]),
    })
    check(state, "u1")
    assert check.violations == ["d/u1: e1 fell from 3 to 1",
                                "d/u1: p live in both polarities",
                                "d/u1: live e4 depends on defeated e2"]


def test_benchmark_json_lists_what_the_benchmark_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "corpus",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode == 2
    assert done.stdout == ""
    assert "cannot import the program" in done.stderr


def test_corpus_run_prints_every_end_to_end_metric():
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "corpus",
                           "--seed", "1", "--seconds", "0.2", "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 92
    assert set(result["metrics"]) == set(run.END_TO_END)
    assert all(math.isfinite(m["value"]) and m["value"] > 0 for m in result["metrics"].values())


def test_contested_crash_lowers_completed_frac_without_failing():
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "contested",
                           "--seed", "0", "--seconds", "0.2", "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 9000
    assert 0 < result["metrics"]["completed_frac"]["value"] < 1
