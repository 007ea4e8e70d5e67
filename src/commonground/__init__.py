"""Graded mutual-belief tracking for two-party dialogues.

Utterances provide evidence of varying strength for the assumptions behind
mutual understanding and acceptance; informationally redundant follow-ups
upgrade exactly those assumptions, defaults fill the gaps, and stronger
contrary evidence retracts what depended on a defeated belief.
"""

from .acceptance import (AcceptanceBelief, AcceptanceOutcome, ConflictEvidence,
                         RetractionReport, SupportLink, defeat, detect_conflict,
                         evaluate_acceptance, record_support)
from .engine import DialogueEngine, replay_transcript
from .errors import (BadPropositionSyntax, CommonGroundError, ConflictDetected,
                     DanglingAntecedent, DefeatRejected, DuplicateUtterance,
                     OrderingViolation, ParseIssue, SelfContradiction, TranscriptError,
                     UnknownProposition)
from .evidence import Strength, defeats
from .grounding import (ActType, AssumptionRecord, IRUClass, Intonation, LicenseLink,
                        UtteranceEvent, admission_issues, apply_any_next_upgrade,
                        apply_iru_upgrade, classify_iru, open_record, record_license_evidence,
                        understanding_strength)
from .propositions import (Biconditional, Context, ContextEntry, Literal, Proposition,
                           RedundancyVerdict, Rule, parse_proposition)
from .state import DiscourseState
from .stats import CorpusStats, aggregate, collect_observations, render_stats
from .trace import TraceRecord, write_trace
from .transcript import Transcript, parse, serialize

__version__ = "0.1.0"

__all__ = [
    "AcceptanceBelief", "AcceptanceOutcome", "ActType", "AssumptionRecord",
    "BadPropositionSyntax", "Biconditional", "CommonGroundError", "ConflictDetected",
    "ConflictEvidence", "Context", "ContextEntry", "CorpusStats", "DanglingAntecedent",
    "DefeatRejected", "DialogueEngine", "DiscourseState", "DuplicateUtterance",
    "IRUClass", "Intonation", "LicenseLink", "Literal",
    "OrderingViolation", "ParseIssue", "Proposition",
    "RedundancyVerdict", "RetractionReport", "Rule", "SelfContradiction",
    "Strength", "SupportLink", "TraceRecord", "Transcript", "TranscriptError",
    "UnknownProposition", "UtteranceEvent",
    "admission_issues", "aggregate", "apply_any_next_upgrade", "apply_iru_upgrade",
    "classify_iru", "collect_observations", "defeat", "defeats", "detect_conflict",
    "evaluate_acceptance", "open_record", "parse", "parse_proposition",
    "record_license_evidence", "record_support", "render_stats", "replay_transcript",
    "serialize", "understanding_strength", "write_trace",
]
