"""Exit codes and stderr text of the CLI's error paths, and its options."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from commonground import cli

SRC = Path(__file__).resolve().parent.parent / "src"

MALFORMED = "dialogue: broken\nparticipants: a, b\n\nid: u0\nturn: zero\n"

CRASH = """dialogue: crash
participants: a, b

id: u0
turn: 0
speaker: a
addressee: b
text: if p then q, and not q
realizes: p -> q; !q

id: u1
turn: 1
speaker: b
addressee: a
text: p
realizes: p
"""

SELF_CONTRADICTION = """dialogue: both
participants: a, b

id: u0
turn: 0
speaker: a
addressee: b
text: p and not p
realizes: p; !p
"""

#: a license premise that is not in the context: refused partway through u0
DANGLING_LICENSE = """dialogue: license
participants: a, b

id: u0
turn: 0
speaker: a
addressee: b
text: z, which implicates y if x
realizes: z
implicates: x => y
"""

#: one event that contradicts itself only under closure
CLOSURE_CONTRADICTION = """dialogue: closure
participants: a, b

id: u0
turn: 0
speaker: a
addressee: b
text: p, if p then q, and not q
realizes: p; p -> q; !q
"""

SUBCOMMANDS = ("trace", "classify", "stats")
#: every subcommand that loads transcripts: the replaying ones and ``check``
LOADING = ("check",) + SUBCOMMANDS


def run(capsys, *argv):
    status = cli.main(list(argv))
    out, err = capsys.readouterr()
    return status, out, err


def target(command, corpus, name):
    """stats reads a directory; trace and classify read the file itself."""
    return str(corpus) if command == "stats" else str(corpus / name)


@pytest.mark.parametrize("command", LOADING)
def test_unreadable_file(command, tmp_path, capsys):
    (tmp_path / "gone.dlg").mkdir()  # a directory cannot be read as text
    path = tmp_path / "gone.dlg"
    status, out, err = run(capsys, command, target(command, tmp_path, "gone.dlg"))
    assert (status, out) == (cli.EXIT_INPUT, "")
    assert err == f"{path}: [Errno 21] Is a directory: '{path}'\n"


@pytest.mark.parametrize("command", LOADING)
def test_file_that_is_not_utf8(command, tmp_path, capsys):
    path = tmp_path / "latin.dlg"
    path.write_bytes(b"\xff" + MALFORMED.encode())
    status, out, err = run(capsys, command, target(command, tmp_path, "latin.dlg"))
    assert (status, out) == (cli.EXIT_INPUT, "")
    assert err == (f"{path}: 'utf-8' codec can't decode byte 0xff in position 0: "
                   "invalid start byte\n")


@pytest.mark.parametrize("command", LOADING)
def test_malformed_transcript(command, tmp_path, capsys):
    path = tmp_path / "broken.dlg"
    path.write_text(MALFORMED, encoding="utf-8")
    status, out, err = run(capsys, command, target(command, tmp_path, "broken.dlg"))
    assert (status, out) == (cli.EXIT_INPUT, "")
    assert err == (f"{path}:4: event lacks speaker, addressee, text [missing-field]\n")


@pytest.mark.parametrize("command", LOADING)
def test_self_contradictory_event_is_an_input_error(command, tmp_path, capsys):
    path = tmp_path / "both.dlg"
    path.write_text(SELF_CONTRADICTION, encoding="utf-8")
    status, out, err = run(capsys, command, target(command, tmp_path, "both.dlg"))
    assert (status, out) == (cli.EXIT_INPUT, "")
    assert err == f"{path}:9: realizes both p and !p [self-contradiction]\n"


@pytest.mark.parametrize("command", SUBCOMMANDS)
def test_empty_corpus_directory(command, tmp_path, capsys):
    status, out, err = run(capsys, command, str(tmp_path))
    assert (status, out) == (cli.EXIT_INPUT, "")
    if command == "stats":
        assert err == f"{tmp_path}: no .dlg transcripts found\n"
    else:
        assert err == f"{tmp_path}: [Errno 21] Is a directory: '{tmp_path}'\n"


@pytest.mark.parametrize("command", LOADING)
def test_uncaught_conflict_exits_semantic(command, tmp_path, capsys):
    path = tmp_path / "crash.dlg"
    path.write_text(CRASH, encoding="utf-8")
    status, out, err = run(capsys, command, target(command, tmp_path, "crash.dlg"))
    assert (status, out) == (cli.EXIT_SEMANTIC, "")
    assert err == (f"{path}: contradictory literals: "
                   "((Literal(atom='p', positive=True), Literal(atom='p', positive=False)), "
                   "(Literal(atom='q', positive=True), Literal(atom='q', positive=False)))\n")



@pytest.mark.parametrize("text", [DANGLING_LICENSE, CLOSURE_CONTRADICTION],
                         ids=["dangling-license", "closure-contradiction"])
def test_check_exits_semantic_where_trace_does(text, tmp_path, capsys):
    """``check`` replays each file: it prints what ``trace`` prints on stderr
    and exits with the same code."""
    path = tmp_path / "refused.dlg"
    path.write_text(text, encoding="utf-8")
    status, out, err = run(capsys, "check", str(path))
    assert (status, out) == (cli.EXIT_SEMANTIC, "")
    assert err.startswith(f"{path}: ")
    assert run(capsys, "trace", str(path)) == (status, out, err)


def test_check_goes_on_past_a_file_that_fails(fixtures_dir, tmp_path, capsys):
    """A file that fails is reported and the next is still checked; the exit
    code is the highest met."""
    crash, good = tmp_path / "crash.dlg", fixtures_dir / "example1.dlg"
    crash.write_text(CRASH, encoding="utf-8")
    status, out, err = run(capsys, "check", str(crash), str(good))
    assert status == cli.EXIT_SEMANTIC
    assert out == f"ok: {good} (4 events)\n"
    assert err == run(capsys, "trace", str(crash))[2]
    malformed = tmp_path / "broken.dlg"
    malformed.write_text(MALFORMED, encoding="utf-8")
    assert run(capsys, "check", str(malformed), str(crash))[0] == cli.EXIT_SEMANTIC

@pytest.mark.parametrize("gap,remote", [("0", "22/22 (100.0%)"), ("1", "4/22 (18.2%)"),
                                        ("1000000", "0/22 (0.0%)")])
def test_stats_remote_gap(gap, remote, fixtures_dir, capsys):
    """An antecedent further back than ``--remote-gap`` turns is remote; every
    antecedent is at least one turn back, so gap 0 makes all of them remote."""
    status, out, err = run(capsys, "stats", "--format", "tabular", "--remote-gap", gap,
                           str(fixtures_dir / "corpus"))
    assert (status, err) == (cli.EXIT_OK, "")
    rows = dict(line.split("\t") for line in out.splitlines())
    assert rows["with antecedents"] == "22"
    assert rows["remote"] == remote


def test_stats_without_antecedents_prints_not_applicable(tmp_path, capsys):
    """A corpus with no redundant utterance has no antecedents to share out."""
    (tmp_path / "one.dlg").write_text(
        "dialogue: d\nparticipants: a, b\n\nid: u0\nturn: 0\nspeaker: a\n"
        "addressee: b\ntext: we close at nine\nrealizes: p\n", encoding="utf-8")
    status, out, err = run(capsys, "stats", "--format", "tabular", str(tmp_path))
    assert (status, err) == (cli.EXIT_OK, "")
    rows = dict(line.split("\t") for line in out.splitlines())
    assert (rows["redundant utterances"], rows["with antecedents"]) == ("0", "0")
    assert [rows[name] for name in ("remote", "multiple antecedents", "self antecedent",
                                    "other antecedent")] == ["n/a"] * 4


def test_module_entry_point(fixtures_dir):
    """``python -m commonground`` runs the CLI and exits with its status."""
    path = fixtures_dir / "example1.dlg"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-m", "commonground", "check", str(path)],
                          capture_output=True, text=True, env=env, timeout=60)
    assert (done.returncode, done.stderr) == (cli.EXIT_OK, "")
    assert done.stdout == f"ok: {path} (4 events)\n"


@pytest.mark.parametrize("gap", ["-1", "-5"])
def test_stats_refuses_a_negative_remote_gap(gap, fixtures_dir, capsys):
    status, out, err = outcome(capsys, ["stats", "--remote-gap", gap,
                                        str(fixtures_dir / "corpus")])
    assert (status, out) == ("SystemExit 2", "")
    assert err.startswith("usage: commonground stats ")
    assert err.endswith(f"argument --remote-gap: must not be negative: {gap}\n")


def outcome(capsys, argv):
    """Exit status, stdout and stderr of one call, usage errors included."""
    try:
        status = cli.main(list(argv))
    except SystemExit as exc:
        status = f"SystemExit {exc.code}"
    out, err = capsys.readouterr()
    return status, out, err


def test_one_parser_serves_every_call_in_a_process(fixtures_dir, capsys):
    """Options of one call do not leak into the next: each output equals
    what a freshly built parser gives."""
    corpus, example = str(fixtures_dir / "corpus"), str(fixtures_dir / "example1.dlg")
    calls = [("stats", "--format", "tabular", "--remote-gap", "0", corpus),
             ("stats", "--format", "tabular", corpus),
             ("classify", "--format", "tabular", example),
             ("classify", example),
             ("stats",),
             ("trace", example)]
    cli.build_parser.cache_clear()
    reused = [outcome(capsys, argv) for argv in calls]
    assert cli.build_parser() is cli.build_parser()
    fresh = []
    for argv in calls:
        cli.build_parser.cache_clear()
        fresh.append(outcome(capsys, argv))
    assert reused == fresh
    assert [status for status, _, _ in reused] == [0, 0, 0, 0, "SystemExit 2", 0]
    remote = [dict(line.split("\t") for line in out.splitlines())["remote"]
              for _, out, _ in reused[:2]]
    assert remote == ["22/22 (100.0%)", "4/22 (18.2%)"]
    assert reused[2][1] != reused[3][1]  # tabular, then text again
    assert "the following arguments are required: directory" in reused[4][2]


def test_byte_order_mark_is_read_past(fixtures_dir, tmp_path, capsys):
    """A ``.dlg`` file saved with a UTF-8 byte-order mark loads as the same
    file without it."""
    plain = fixtures_dir / "example1.dlg"
    marked = tmp_path / plain.name
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    status, _, err = run(capsys, "check", str(marked))
    assert (status, err) == (cli.EXIT_OK, "")
    assert run(capsys, "trace", str(marked)) == run(capsys, "trace", str(plain))
