"""Hard YES/NO detection decisions from candidate scores.

Two policies: a single global threshold, or a keyword-specific threshold
(KST) derived by maximizing the expected term-weighted value when each
candidate's score is read as its probability of being a true hit. With
N = sum of scores (the expected number of true occurrences), cost ratio
beta, and trial duration T seconds, a candidate is worth accepting iff

    score >= beta * N / (T + (beta - 1) * N)

which is the per-keyword threshold computed here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .corpus_io import Candidate

DEFAULT_BETA = 999.9


@dataclass(frozen=True, slots=True)
class DecisionPolicy:
    mode: str  # "global" or "kst"
    global_threshold: float = 0.5
    beta: float = DEFAULT_BETA
    trial_seconds: float = 3600.0

    def __post_init__(self):
        if self.mode not in ("global", "kst"):
            raise ValueError(f"mode must be 'global' or 'kst', got {self.mode!r}")
        if not 0.0 <= self.global_threshold <= 1.0:
            raise ValueError(f"global_threshold outside [0, 1]: {self.global_threshold}")
        if self.beta <= 0.0:
            raise ValueError(f"beta must be > 0, got {self.beta}")
        if self.trial_seconds <= 0.0:
            raise ValueError(f"trial_seconds must be > 0, got {self.trial_seconds}")


def kst_threshold(candidates: Sequence[Candidate], policy: DecisionPolicy) -> float:
    """Keyword-specific threshold for one keyword's candidate list.

    An empty list returns 1.0 by convention: nothing can pass.
    """
    if policy.mode != "kst":
        raise ValueError("kst_threshold requires a policy with mode='kst'")
    return _kst_cut(sum(c.score for c in candidates), policy)


def _kst_cut(expected_true: float, policy: DecisionPolicy) -> float:
    """The KST threshold for a keyword whose scores sum to `expected_true`."""
    if expected_true <= 0.0:
        return 1.0
    return (policy.beta * expected_true
            / (policy.trial_seconds + (policy.beta - 1.0) * expected_true))


def yes_flags(kw_ids: Sequence[str], scores: Sequence[float],
              policy: DecisionPolicy) -> list[bool]:
    """Whether each candidate, given as parallel kw_ids and scores, is a YES.

    Global mode: YES iff score >= global_threshold. KST mode: YES iff
    score >= the keyword's own threshold, from its scores summed in
    input order.
    """
    if policy.mode == "global":
        cut = policy.global_threshold
        return [score >= cut for score in scores]
    by_kw: dict[str, list[float]] = {}
    for kw_id, score in zip(kw_ids, scores):
        by_kw.setdefault(kw_id, []).append(score)
    cuts = {kw_id: _kst_cut(sum(group), policy) for kw_id, group in by_kw.items()}
    return [score >= cuts[kw_id] for kw_id, score in zip(kw_ids, scores)]


def apply_decisions(candidates: Sequence[Candidate],
                    policy: DecisionPolicy) -> list[Candidate]:
    """Set each candidate's decision field; order and other fields kept.

    The decisions are those of `yes_flags`. Idempotent.
    """
    flags = yes_flags([c.kw_id for c in candidates],
                      [c.score for c in candidates], policy)
    return [Candidate(c.kw_id, c.doc_id, c.start, c.duration, c.score,
                      "YES" if yes else "NO")
            for c, yes in zip(candidates, flags)]


def yes_only(candidates: Sequence[Candidate]) -> list[Candidate]:
    """The accepted detections of a decided candidate list."""
    return [c for c in candidates if c.decision == "YES"]
