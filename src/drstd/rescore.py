"""Confidence re-estimation from document ranking weights.

For each keyword, the confidence scores of its hypothesized occurrences
are summed per document; each document's sum is divided by the maximum
sum over documents (relative-to-max), giving that document a ranking
weight in (0, 1]. Every occurrence score is then linearly interpolated
with the weight of its host document:

    new_score = alpha * weight + (1 - alpha) * old_score

so occurrences in documents that concentrate confidence mass for the
keyword are promoted, and scattered ones are demoted.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

from .corpus_io import Candidate


@dataclass(frozen=True, slots=True)
class RescoreConfig:
    """Interpolation coefficient, one global value for all keywords."""

    alpha: float

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")


@dataclass(slots=True)
class DocWeightTable:
    """Per-keyword document scores and relative-to-max ranking weights.

    ``entries`` maps doc_id to (doc_score, weight); ``max_score`` is the
    largest doc_score. The argmax document always has weight exactly 1.
    """

    kw_id: str = ""
    entries: dict[str, tuple[float, float]] = field(default_factory=dict)
    max_score: float = 0.0

    def weight(self, doc_id: str) -> float:
        return self.entries[doc_id][1]


def sum_document_scores(candidates: Sequence[Candidate]) -> dict[str, float]:
    """Sum candidate scores per document for one keyword's candidates."""
    kw_ids = {c.kw_id for c in candidates}
    if len(kw_ids) > 1:
        raise ValueError(f"candidates mix keywords: {sorted(kw_ids)}")
    doc_scores: dict[str, float] = {}
    for cand in candidates:
        doc_scores[cand.doc_id] = doc_scores.get(cand.doc_id, 0.0) + cand.score
    return doc_scores


def document_ranking_weights(doc_scores: Mapping[str, float],
                             kw_id: str = "") -> DocWeightTable:
    """Turn summed document scores into relative-to-max ranking weights.

    An empty input yields an empty table (not an error); a non-positive
    document score is an error because the max-normalization needs
    positive mass.
    """
    if not doc_scores:
        return DocWeightTable(kw_id=kw_id)
    for doc_id, score in doc_scores.items():
        if score <= 0.0:
            raise ValueError(
                f"document score for {doc_id!r} must be > 0, got {score}")
    max_score = max(doc_scores.values())
    entries = {doc_id: (score, score / max_score)
               for doc_id, score in doc_scores.items()}
    return DocWeightTable(kw_id=kw_id, entries=entries, max_score=max_score)


def reestimate_confidence(candidate: Candidate, table: DocWeightTable,
                          config: RescoreConfig) -> Candidate:
    """Interpolate one candidate's score with its document's ranking weight."""
    if candidate.doc_id not in table.entries:
        raise ValueError(
            f"document {candidate.doc_id!r} missing from weight table "
            f"for keyword {table.kw_id!r}")
    weight = table.entries[candidate.doc_id][1]
    new_score = config.alpha * weight + (1.0 - config.alpha) * candidate.score
    return Candidate(kw_id=candidate.kw_id, doc_id=candidate.doc_id,
                     start=candidate.start, duration=candidate.duration,
                     score=new_score, decision=candidate.decision)


def build_weight_tables(candidates: Sequence[Candidate]
                        ) -> dict[str, DocWeightTable]:
    """Per-keyword weight tables for a candidate list.

    Candidates with score 0 are rejected: the relative-to-max
    normalization assumes positive confidence mass.
    """
    for cand in candidates:
        if cand.score <= 0.0:
            raise ValueError(
                f"candidate {cand.kw_id!r}/{cand.doc_id!r}@{cand.start} has "
                f"non-positive score {cand.score}; rescoring needs scores > 0")
    by_kw: dict[str, list[Candidate]] = {}
    for cand in candidates:
        by_kw.setdefault(cand.kw_id, []).append(cand)
    return {kw_id: document_ranking_weights(sum_document_scores(group), kw_id)
            for kw_id, group in by_kw.items()}


def rescore_candidates(candidates: Sequence[Candidate], config: RescoreConfig
                       ) -> tuple[list[Candidate], dict[str, DocWeightTable]]:
    """Re-estimate every candidate's confidence, keyword by keyword.

    Returns the rescored candidates in input order plus the per-keyword
    weight tables for diagnostics.
    """
    tables = build_weight_tables(candidates)
    rescored = [reestimate_confidence(cand, tables[cand.kw_id], config)
                for cand in candidates]
    return rescored, tables


def write_weight_tables(path: str | Path,
                        tables: Mapping[str, DocWeightTable]) -> None:
    """Export weight tables as TSV: kw_id, doc_id, summed score, weight."""
    lines = ["# kw_id\tdoc_id\tdoc_score\tweight"]
    for kw_id in sorted(tables):
        table = tables[kw_id]
        for doc_id in sorted(table.entries):
            doc_score, weight = table.entries[doc_id]
            lines.append(f"{kw_id}\t{doc_id}\t{doc_score!r}\t{weight!r}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def parse_weight_tables(path: str | Path) -> dict[str, DocWeightTable]:
    """Read tables written by write_weight_tables."""
    raw: dict[str, dict[str, float]] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            kw_id, doc_id, doc_score, _weight = line.split("\t")
            raw.setdefault(kw_id, {})[doc_id] = float(doc_score)
    return {kw_id: document_ranking_weights(scores, kw_id)
            for kw_id, scores in raw.items()}
