"""Keyword retrieval over confusion networks in one streaming pass.

A single-token query yields one candidate per non-null arc of that token,
scored by the arc posterior. A multi-token query matches its tokens
against consecutive slots, in order; between two matched tokens any
number of intermediate slots may be traversed through their ``<eps>``
arc, and the candidate score is the product of every traversed arc
posterior (matched tokens and skipped null arcs alike), so scores remain
proper probabilities.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .corpus_io import ConfusionNetworkDoc, EPS_TOKEN, KeywordEntry
from .tables import Candidate

# A later hit suppresses an earlier one (or vice versa) when their spans
# overlap by more than this fraction of the shorter span.
OVERLAP_DEDUP_FRACTION = 0.5


def search_all(docs: Iterable[ConfusionNetworkDoc],
               keywords: Sequence[KeywordEntry]) -> list[Candidate]:
    """Every occurrence of every keyword, sorted by kw_id, doc_id, start,
    duration and score.

    Reads `docs` once and holds one document at a time: each non-null arc
    whose token starts some keyword anchors that keyword's matches.
    Unknown tokens simply produce no candidates.
    """
    by_first: dict[str, list[KeywordEntry]] = {}
    for keyword in keywords:
        if keyword.tokens[0] != EPS_TOKEN:  # a match never starts on a null arc
            by_first.setdefault(keyword.tokens[0], []).append(keyword)
    hits: list[Candidate] = []
    for doc in docs:
        for slot_idx, slot in enumerate(doc.slots):
            for token, posterior in slot.arcs:
                if token not in by_first:  # most arcs start no keyword
                    continue
                for keyword in by_first[token]:
                    if len(keyword.tokens) == 1:
                        hits.append(Candidate(
                            kw_id=keyword.kw_id, doc_id=doc.doc_id,
                            start=slot.start, duration=slot.duration,
                            score=posterior))
                    else:
                        hits.extend(_extend_paths(keyword, doc, slot_idx,
                                                  posterior))
    hits.sort()
    return hits


def _extend_paths(keyword: KeywordEntry, doc: ConfusionNetworkDoc,
                  slot_ref: int, posterior: float) -> list[Candidate]:
    """Grow a match anchored at an arc of slot `slot_ref` through the
    remaining tokens."""
    slots = doc.slots
    # (last matched slot index, accumulated score)
    frontier: list[tuple[int, float]] = [(slot_ref, posterior)]
    for token in keyword.tokens[1:]:
        next_frontier: list[tuple[int, float]] = []
        for slot_idx, score in frontier:
            gap_score = score
            j = slot_idx + 1
            while j < len(slots):
                eps = None
                for arc_token, arc_posterior in slots[j].arcs:
                    if arc_token == token:
                        next_frontier.append((j, gap_score * arc_posterior))
                    if arc_token == EPS_TOKEN:  # not elif: `token` may be <eps>
                        eps = arc_posterior
                if eps is None:
                    break
                gap_score *= eps
                j += 1
        frontier = next_frontier
        if not frontier:
            return []
    start = slots[slot_ref].start
    return [
        Candidate(kw_id=keyword.kw_id, doc_id=doc.doc_id, start=start,
                  duration=slots[last].start + slots[last].duration - start,
                  score=score)
        for last, score in frontier
    ]


def _overlap_exceeds(a: Candidate, b: Candidate) -> bool:
    overlap = min(a.start + a.duration, b.start + b.duration) - max(a.start, b.start)
    shorter = min(a.duration, b.duration)
    if shorter <= 0.0:
        # Zero-length hits collide only when they sit at the same instant.
        return overlap >= 0.0 and a.start == b.start
    return overlap > OVERLAP_DEDUP_FRACTION * shorter


def dedup_overlaps(candidates: Iterable[Candidate]) -> list[Candidate]:
    """Collapse same-keyword same-document hits that overlap heavily.

    Within each (kw_id, doc_id) group, candidates are considered in
    descending score order (ties: earliest start, then shortest duration,
    then input order); one is kept only if its span, start to start +
    duration, does not overlap a kept candidate's by more than half of the
    shorter span (`_overlap_exceeds`). A zero-length span overlaps another
    only when both start at the same instant. Idempotent. The survivors
    come sorted: by kw_id, doc_id, start, duration, score, then decision.
    """
    groups: dict[tuple[str, str], list[Candidate]] = {}
    for cand in candidates:
        groups.setdefault((cand.kw_id, cand.doc_id), []).append(cand)
    survivors: list[Candidate] = []
    for group in groups.values():
        group.sort(key=lambda c: (-c.score, c.start, c.duration))
        kept: list[Candidate] = []
        for cand in group:
            if not any(_overlap_exceeds(cand, other) for other in kept):
                kept.append(cand)
        survivors.extend(kept)
    return sorted(survivors)
