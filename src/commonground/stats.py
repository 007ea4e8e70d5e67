"""Distributional statistics over a corpus of annotated dialogues.

Counts are a pure fold over per-utterance classification results, so the
order dialogues are processed in cannot change the outcome.  An utterance's
antecedents are the annotated links plus whatever redundancy detection
resolved; "remote" means no antecedent within ``remote_gap`` turns back,
"self" means every antecedent was spoken by the same person.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .grounding import ACT_AFFIRMATION, IRU_NONE, RISING, IRUClass
from .trace import TraceRecord
from .transcript import Transcript

#: Published reference corpus (radio financial-advice call-in show; 171
#: redundant utterances over 24 dialogues and 976 turns).  Documented for
#: comparison in the stats footnote; never recomputed and never asserted.
REFERENCE_CORPUS = {
    "irus": 171,
    "dialogues": 24,
    "turns": 976,
    "remote_pct": 35,
    "multi_antecedent_pct": 32,
    "self_pct": 48,
    "other_pct": 52,
    "rising": 28,
    "affirmation_followed": 50,
}


class IRUObservation(NamedTuple):
    dialogue_id: str
    event_id: str
    iru_class: IRUClass
    antecedents: tuple[str, ...]
    min_gap: Optional[int]  # turns back to the nearest antecedent
    all_self: Optional[bool]
    rising: bool
    affirmation_followed: bool


class CorpusStats(NamedTuple):
    total_irus: int
    total_dialogues: int
    total_turns: int
    with_antecedents: int
    remote_count: int
    multi_antecedent_count: int
    self_antecedent_count: int
    rising_count: int
    affirmation_followed_count: int


def collect_observations(transcript: Transcript,
                         traces: list[TraceRecord]) -> list[IRUObservation]:
    """Extract one observation per classified redundant utterance."""
    utterances = transcript.events
    events = {e.utterance_id: e for e in utterances}
    observations = []
    for i, trace in enumerate(traces):
        if trace.iru_class is IRU_NONE:
            continue
        event = trace.event
        ants = trace.antecedents
        gaps = [event.turn_index - events[a].turn_index for a in ants]
        min_gap = min(gaps) if gaps else None
        all_self = all(events[a].speaker == event.speaker for a in ants) if ants else None
        followed = i + 1 < len(utterances) and utterances[i + 1].act is ACT_AFFIRMATION
        observations.append(IRUObservation(
            dialogue_id=transcript.dialogue_id,
            event_id=event.utterance_id,
            iru_class=trace.iru_class,
            antecedents=ants,
            min_gap=min_gap,
            all_self=all_self,
            rising=event.intonation is RISING,
            affirmation_followed=followed,
        ))
    return observations


def aggregate(observations: list[IRUObservation], total_dialogues: int,
              total_turns: int, remote_gap: int = 1) -> CorpusStats:
    with_ants = [o for o in observations if o.min_gap is not None]
    return CorpusStats(
        total_irus=len(observations),
        total_dialogues=total_dialogues,
        total_turns=total_turns,
        with_antecedents=len(with_ants),
        remote_count=sum(1 for o in with_ants if o.min_gap > remote_gap),
        multi_antecedent_count=sum(1 for o in with_ants if len(o.antecedents) > 1),
        self_antecedent_count=sum(1 for o in with_ants if o.all_self),
        rising_count=sum(1 for o in observations if o.rising),
        affirmation_followed_count=sum(1 for o in observations if o.affirmation_followed),
    )


def _cell(count: int, total: int) -> str:
    if total == 0:
        return "n/a"
    return f"{count}/{total} ({100.0 * count / total:.1f}%)"


def render_stats(stats: CorpusStats, fmt: str = "text") -> str:
    n = stats.with_antecedents
    rows = [
        ("dialogues", str(stats.total_dialogues)),
        ("turns", str(stats.total_turns)),
        ("redundant utterances", str(stats.total_irus)),
        ("with antecedents", str(n)),
        ("remote", _cell(stats.remote_count, n)),
        ("multiple antecedents", _cell(stats.multi_antecedent_count, n)),
        ("self antecedent", _cell(stats.self_antecedent_count, n)),
        ("other antecedent", _cell(n - stats.self_antecedent_count, n)),
        ("rising intonation", str(stats.rising_count)),
        ("followed by affirmation", str(stats.affirmation_followed_count)),
    ]
    table = _table(rows, fmt)
    if fmt == "tabular":
        return table
    r = REFERENCE_CORPUS
    return (table + f"\nnote: reference corpus ({r['irus']} redundant utterances, "
            f"{r['dialogues']} dialogues, {r['turns']} turns) reports "
            f"remote {r['remote_pct']}%, multiple antecedents "
            f"{r['multi_antecedent_pct']}%, self {r['self_pct']}% / other "
            f"{r['other_pct']}%, rising {r['rising']}, affirmation-followed "
            f"{r['affirmation_followed']}; documentation only, never recomputed.\n")


def render_classification(observations: list[IRUObservation], fmt: str = "text") -> str:
    rows = [("dialogue", "event", "class", "antecedents", "gap", "source", "intonation")]
    for o in observations:
        rows.append((
            o.dialogue_id,
            o.event_id,
            o.iru_class._value_,
            ",".join(o.antecedents) if o.antecedents else "-",
            str(o.min_gap) if o.min_gap is not None else "-",
            ("self" if o.all_self else "other") if o.all_self is not None else "-",
            "rising" if o.rising else "level",
        ))
    return _table(rows, fmt)


def _table(rows: list[tuple[str, ...]], fmt: str) -> str:
    """``rows`` as tab-separated lines (``tabular``), or else as columns
    padded to their widest cell, two spaces apart."""
    if fmt == "tabular":
        return "\n".join("\t".join(r) for r in rows) + "\n"
    widths = [max(map(len, column)) for column in zip(*rows)]
    return "\n".join("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip()
                     for r in rows) + "\n"
