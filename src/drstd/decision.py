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

import math
from typing import Sequence

from .tables import DEFAULT_BETA, DEFAULT_THRESHOLD, Candidate


class DecisionPolicy:
    """A checked decision policy; `trial_seconds` is required in kst mode."""

    __slots__ = ("mode", "global_threshold", "beta", "trial_seconds")

    def __init__(self, mode: str, global_threshold: float = DEFAULT_THRESHOLD,
                 beta: float = DEFAULT_BETA, trial_seconds: float | None = None):
        if mode not in ("global", "kst"):
            raise ValueError(f"mode must be 'global' or 'kst', got {mode!r}")
        if not 0.0 <= global_threshold <= 1.0:
            raise ValueError(f"global_threshold outside [0, 1]: {global_threshold}")
        if beta <= 0.0:
            raise ValueError(f"beta must be > 0, got {beta}")
        if trial_seconds is None:
            if mode == "kst":
                raise ValueError("a kst policy needs trial_seconds")
        elif trial_seconds <= 0.0:
            raise ValueError(f"trial_seconds must be > 0, got {trial_seconds}")
        self.mode, self.global_threshold = mode, global_threshold
        self.beta, self.trial_seconds = beta, trial_seconds


def kst_cuts(kw_ids: Sequence[str], scores: Sequence[float],
             policy: DecisionPolicy) -> dict[str, float]:
    """Each keyword's KST threshold, given parallel kw_ids and scores.

    A keyword's expected true count N is its scores summed in input
    order; N = 0 gives 1.0 by convention, so only a perfect score passes.
    Any other threshold that is not finite and > 0 is a ValueError naming
    its keyword; a zero denominator makes it NaN.
    """
    if policy.mode != "kst":
        raise ValueError("kst_cuts requires a policy with mode='kst'")
    masses: dict[str, float] = {}
    for kw_id, score in zip(kw_ids, scores):
        masses[kw_id] = masses.get(kw_id, 0) + score
    beta, trial = policy.beta, policy.trial_seconds
    cuts = {}
    for kw_id, n in masses.items():
        cut = beta * n / (trial + (beta - 1.0) * n or math.nan) if n > 0.0 else 1.0
        if not 0.0 < cut < math.inf:
            raise ValueError(f"keyword {kw_id!r} has no KST threshold: beta*N / (T "
                             f"+ (beta-1)*N) is {cut} at beta={beta}, T={trial}, N={n}")
        cuts[kw_id] = cut
    return cuts


def yes_flags(kw_ids: Sequence[str], scores: Sequence[float],
              policy: DecisionPolicy) -> list[bool]:
    """Whether each candidate, given as parallel kw_ids and scores, is a YES.

    Global mode: YES iff score >= global_threshold. KST mode: YES iff
    score >= the keyword's own threshold from `kst_cuts`.
    """
    if policy.mode == "global":
        cut = policy.global_threshold
        return [score >= cut for score in scores]
    cuts = kst_cuts(kw_ids, scores, policy)
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
