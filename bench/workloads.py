"""The benchmark workloads: their inputs, one pass over them, and the gate.

``corpus``      the 30 fixture dialogues, run as users run them: the CLI's
                ``stats`` over ``fixtures/corpus`` and ``trace`` of every
                ``fixtures/example*.dlg``, in process, stdout captured.  Short
                dialogues, so parsing, rendering and the engine's own
                bookkeeping carry weight next to closure.
``contested``   many short seeded goal-marked dialogues full of disputes:
                rejections, contradictions, rising checks and denials of
                derived literals.  Stresses defeat, retraction and trial
                closures that raise; most dialogues end in the program's
                known uncaught ConflictDetected.  The gate checks that no
                other error ends one; events the crash cuts off lower
                ``completed_frac``, they are not failed operations.

A pass calls the program only through module and class attributes, so the
tracer's wrappers see every call.  The program's modules are imported when a
workload is built, never when this module is imported.  Generated inputs are
written as ``.dlg`` files under ``.bench_build/inputs`` in the checkout, so
the program and the set-up timing read them like the fixtures.
"""

from __future__ import annotations

import io
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import gate
import gen


def _count_events(text: str) -> int:
    return sum(1 for line in text.splitlines() if line.startswith("id:"))


def input_paths(name: str, root: Path, seed: int) -> list[Path]:
    """The workload's input files: the fixtures, or the seed's generated
    dialogues, written afresh under ``.bench_build/inputs``."""
    if name == "corpus":
        return Corpus.paths(root)
    if name != "contested":
        raise ValueError(f"unknown workload {name!r}")
    texts = gen.contested(seed)
    out = root / ".bench_build" / "inputs" / f"{name}-{seed}"
    out.mkdir(parents=True, exist_ok=True)
    paths = [out / f"{i:04d}.dlg" for i in range(len(texts))]
    for path, text in zip(paths, texts):
        path.write_text(text, encoding="utf-8")
    return paths


class Workload:
    """Inputs plus one pass; ``events`` is the number of events a pass attempts."""

    name = ""

    def __init__(self, root: Path, seed: int):
        from commonground import cli, engine, errors, stats, trace, transcript
        self.cli, self.engine, self.errors, self.stats, self.trace, self.transcript = \
            cli, engine, errors, stats, trace, transcript
        self.root = root
        self.seed = seed
        self.paths = input_paths(self.name, root, seed)
        self.texts = [p.read_text(encoding="utf-8") for p in self.paths]
        self.events = sum(_count_events(t) for t in self.texts)

    def run_pass(self) -> dict[str, str]:
        """Replay every input once; returns each named output text."""
        raise NotImplementedError

    def gate(self) -> tuple[list[str], dict[str, str]]:
        """Problems found, and the outputs every timed pass must reproduce."""
        raise NotImplementedError


class Corpus(Workload):
    name = "corpus"

    @staticmethod
    def examples(root: Path) -> list[Path]:
        return sorted((root / "fixtures").glob("example*.dlg"))

    @staticmethod
    def paths(root: Path) -> list[Path]:
        return sorted((root / "fixtures" / "corpus").glob("*.dlg")) + Corpus.examples(root)

    def __init__(self, root: Path, seed: int):
        super().__init__(root, seed)
        self.commands = [("stats", ["stats", str(root / "fixtures" / "corpus")])] + \
            [(p.name, ["trace", str(p)]) for p in self.examples(root)]

    def run_pass(self) -> dict[str, str]:
        outputs = {}
        for name, argv in self.commands:
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = self.cli.main(argv)
            outputs[name] = out.getvalue() if code == 0 else f"exit {code}: {err.getvalue()}"
        return outputs

    def gate(self):
        outputs = self.run_pass()
        return gate.compare(outputs, gate.load_pins()["corpus"], "corpus"), outputs


class Synthetic(Workload):
    """Generated dialogues, replayed the way ``trace`` and ``stats`` do it:
    parse, replay, render the trace, fold the stats."""

    def run_pass(self, check=None) -> dict[str, str]:
        outputs = {}
        observations = []
        turns = 0
        for i, text in enumerate(self.texts):
            # a TranscriptError here is a generator bug: let it fail the run
            transcript = self.transcript.parse(text)
            engine = self.engine.DialogueEngine.for_transcript(transcript)
            error = ""
            try:
                if check is None:
                    engine.replay(transcript)
                else:
                    for event in transcript.events:
                        engine.process(event)
                        check(engine.state, event.utterance_id)
            except self.errors.CommonGroundError as exc:
                error = f"error: {type(exc).__name__}: {exc}\n"
            outputs[f"dialogue{i}"] = self.trace.write_trace(engine.traces) + error
            observations.extend(self.stats.collect_observations(transcript, engine.traces))
            turns += len(transcript.events)
        totals = self.stats.aggregate(observations, len(self.texts), turns)
        outputs["stats"] = self.stats.render_stats(totals)
        return outputs

    def checked_pass(self) -> tuple[list[str], dict[str, str]]:
        from commonground.propositions import LIVE
        invariants = gate.Invariants(LIVE)
        outputs = self.run_pass(check=invariants)
        return invariants.violations, outputs


class Contested(Synthetic):
    name = "contested"

    def gate(self):
        problems, outputs = self.checked_pass()
        problems += gate.unexpected_errors(outputs, "contested")
        again = self.run_pass()
        problems += [f"contested: {name} differs between two replays"
                     for name in sorted(outputs) if again.get(name) != outputs[name]]
        pin_outputs = outputs
        if self.seed != gate.PINNED_SEED:
            pin_problems, pin_outputs = Contested(self.root, gate.PINNED_SEED).checked_pass()
            problems += pin_problems
        problems += gate.compare(pin_outputs, gate.load_pins()["contested"], "contested")
        return problems, outputs


WORKLOADS = {cls.name: cls for cls in (Corpus, Contested)}
