"""Confidence re-estimation from document ranking weights.

For each keyword, the confidence scores of its hypothesized occurrences
are summed per document; each document's sum is divided by the maximum
sum over documents (relative-to-max), giving that document a ranking
weight in [0, 1]. A keyword whose scores are all 0 has no confidence
mass, and weight 0 in every document. Every occurrence score is then
linearly interpolated with the weight of its host document:

    new_score = alpha * weight + (1 - alpha) * old_score

so occurrences in documents that concentrate confidence mass for the
keyword are promoted, and scattered ones are demoted.
"""

from __future__ import annotations

from pathlib import Path
from typing import Sequence

from .tables import Candidate, write_lines

# kw_id -> doc_id -> (summed document score, relative-to-max weight)
WeightTables = dict[str, dict[str, tuple[float, float]]]


def build_weight_tables(candidates: Sequence[Candidate]) -> WeightTables:
    """Per-keyword document scores and ranking weights.

    Each (keyword, document)'s candidate scores are summed in input
    order and divided by the keyword's largest sum, so its top document
    has weight exactly 1. A keyword whose largest sum is 0 has weight 0 in
    every document. A negative score is a ValueError.
    """
    sums: dict[str, dict[str, float]] = {}
    for cand in candidates:
        if cand.score < 0.0:
            raise ValueError(f"candidate {cand.kw_id!r}/{cand.doc_id!r}@"
                             f"{cand.start} has negative score {cand.score}")
        docs = sums.setdefault(cand.kw_id, {})
        docs[cand.doc_id] = docs.get(cand.doc_id, 0.0) + cand.score
    tables = {}
    for kw_id, docs in sums.items():
        top = max(docs.values())
        tables[kw_id] = {doc_id: (score, score / top if top > 0.0 else 0.0)
                         for doc_id, score in docs.items()}
    return tables


def reestimate_confidence(score: float, weight: float, alpha: float) -> float:
    """Interpolate one occurrence's score with its document's weight."""
    return float(alpha * weight + (1.0 - alpha) * score)


def check_alpha(alpha: float) -> None:
    """Raise ValueError unless `alpha` is a coefficient in [0, 1]."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")


def rescore_candidates(candidates: Sequence[Candidate], alpha: float
                       ) -> tuple[list[Candidate], WeightTables]:
    """Re-estimate every candidate's confidence, keyword by keyword.

    `alpha` is one interpolation coefficient in [0, 1] for all keywords.
    Returns the rescored candidates in input order plus the weight
    tables for diagnostics.
    """
    check_alpha(alpha)
    tables = build_weight_tables(candidates)
    rescored = [Candidate(c.kw_id, c.doc_id, c.start, c.duration,
                          reestimate_confidence(
                              c.score, tables[c.kw_id][c.doc_id][1], alpha),
                          c.decision)
                for c in candidates]
    return rescored, tables


def write_weight_tables(path: str | Path, tables: WeightTables) -> None:
    """Export weight tables as TSV: kw_id, doc_id, summed score, weight."""
    lines = ["# kw_id\tdoc_id\tdoc_score\tweight"]
    for kw_id in sorted(tables):
        table = tables[kw_id]
        for doc_id in sorted(table):
            doc_score, weight = table[doc_id]
            lines.append(f"{kw_id}\t{doc_id}\t{doc_score!r}\t{weight!r}")
    write_lines(path, lines)
