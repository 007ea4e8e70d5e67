"""Command-line front end.

Subcommands::

    check <file>...          replay each file as ``trace`` does; ok, or its error
    trace <file>             replay one dialogue and print the belief trace
    classify <file>...       table of redundant utterances and their classes
    stats <directory>        distributional statistics over a corpus of .dlg files

Exit codes: 0 ok, 2 input error (unreadable/malformed transcripts, empty
corpus), 3 semantic error during replay.

``main()`` may be called repeatedly in one process: it builds its parser on
the first call and reuses it, since building costs more than a short replay.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .engine import replay_transcript
from .errors import CommonGroundError, TranscriptError
from .stats import aggregate, collect_observations, render_classification, render_stats
from .trace import write_trace
from .transcript import parse

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_SEMANTIC = 3


def _load(path: Path):
    try:
        text = path.read_text(encoding="utf-8-sig")
    except (OSError, UnicodeDecodeError) as exc:
        print(f"{path}: {exc}", file=sys.stderr)
        return None
    try:
        return parse(text)
    except TranscriptError as exc:
        for issue in exc.issues:
            print(f"{path}:{issue.line}: {issue.message} [{issue.code}]", file=sys.stderr)
        return None


class _Failed(Exception):
    """A transcript failed to load or replay and was reported; carries the
    exit code."""


def _replay(name):
    """Load and replay one transcript; returns (transcript, traces).  On
    failure, reports it on stderr and raises _Failed with the exit code."""
    transcript = _load(Path(name))
    if transcript is None:
        raise _Failed(EXIT_INPUT)
    try:
        _, traces = replay_transcript(transcript)
    except CommonGroundError as exc:
        print(f"{name}: {exc}", file=sys.stderr)
        raise _Failed(EXIT_SEMANTIC)
    return transcript, traces


def cmd_check(args) -> int:
    status = EXIT_OK
    for name in args.files:
        try:
            transcript, _ = _replay(name)
        except _Failed as failed:
            status = max(status, failed.args[0])
        else:
            print(f"ok: {name} ({len(transcript.events)} events)")
    return status


def cmd_trace(args) -> int:
    _, traces = _replay(args.file)
    sys.stdout.write(write_trace(traces))
    return EXIT_OK


def cmd_classify(args) -> int:
    observations = []
    for name in args.files:
        observations.extend(collect_observations(*_replay(name)))
    sys.stdout.write(render_classification(observations, args.format))
    return EXIT_OK


def cmd_stats(args) -> int:
    directory = Path(args.directory)
    paths = sorted(directory.glob("*.dlg"))
    if not paths:
        print(f"{directory}: no .dlg transcripts found", file=sys.stderr)
        return EXIT_INPUT
    observations = []
    turns = 0
    for path in paths:
        transcript, traces = _replay(path)
        observations.extend(collect_observations(transcript, traces))
        turns += len(transcript.events)
    stats = aggregate(observations, len(paths), turns, args.remote_gap)
    sys.stdout.write(render_stats(stats, args.format))
    return EXIT_OK


def turns(text: str) -> int:
    """A number of turns: a whole number, 0 or more."""
    if int(text) < 0:
        raise argparse.ArgumentTypeError(f"must not be negative: {text}")
    return int(text)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="commonground",
        description="Replay annotated two-party dialogues and track graded mutual beliefs.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="replay each file as trace does and report ok or "
                                     "its error")
    p.add_argument("files", nargs="+")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("trace", help="replay one dialogue and print its trace")
    p.add_argument("file")
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser("classify", help="per-utterance redundancy classification table")
    p.add_argument("files", nargs="+")
    p.add_argument("--format", choices=("text", "tabular"), default="text")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("stats", help="corpus statistics over a directory of .dlg files")
    p.add_argument("directory")
    p.add_argument("--format", choices=("text", "tabular"), default="text")
    p.add_argument("--remote-gap", type=turns, default=1,
                   help="turns within which an antecedent counts as adjacent (default 1)")
    p.set_defaults(func=cmd_stats)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _Failed as failed:
        return failed.args[0]


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
