"""Diagnostics of document ranking: document-rank curves, weight-performance
rank correlations and interpolation-coefficient sweeps."""

from __future__ import annotations

import itertools
import math
import operator
from collections import Counter
from typing import NamedTuple, Sequence

from .decision import DecisionPolicy, yes_flags
from .rescore import (WeightTables, build_weight_tables, check_alpha,
                      reestimate_confidence)
from .scoring import (DEFAULT_DELTA_SECONDS, AlignmentResult, _paired_groups,
                      _tally, build_report)
from .tables import Candidate, RefOccurrence, _total


def _average_ranks(values: Sequence[float]) -> list[float]:
    """1-based ranks of `values`; tied values share their mean position."""
    values = [float(v) for v in values]
    ranks = [0.0] * len(values)
    order = sorted(range(len(values)), key=values.__getitem__)
    i = 0
    for _value, tied in itertools.groupby(order, key=values.__getitem__):
        tied = list(tied)
        j = i + len(tied) - 1
        for k in tied:
            ranks[k] = (i + j) / 2 + 1
        i = j + 1
    return ranks


def spearman(x: Sequence[float], y: Sequence[float]) -> float:
    """Spearman rank correlation with average ranks on ties.

    Returns NaN when either argument has zero rank variance (correlation
    undefined). Invariant under strictly monotone transforms of either
    argument.
    """
    if len(x) != len(y):
        raise ValueError(f"length mismatch: {len(x)} vs {len(y)}")
    if len(x) < 2:
        raise ValueError("need at least 2 points")
    # Ranks sum to n(n + 1)/2, so their mean is (n + 1)/2. The centred
    # ranks are multiples of 0.5, so every product is exact and fsum
    # rounds each dot product once, whatever the summation order.
    mean = (len(x) + 1) / 2
    rx = [r - mean for r in _average_ranks(x)]
    ry = [r - mean for r in _average_ranks(y)]
    denom = math.sqrt(_dot(rx, rx) * _dot(ry, ry))
    if denom == 0.0:
        return math.nan
    return _dot(rx, ry) / denom


def _dot(a: Sequence[float], b: Sequence[float]) -> float:
    return math.fsum(map(operator.mul, a, b))


def doc_performance(hypotheses: Sequence[Candidate],
                    weight_tables: WeightTables, alignment: AlignmentResult
                    ) -> list[tuple[str, str, float, float, float]]:
    """(kw_id, doc_id, weight, precision, recall) rows in weight-table order.

    Covers every document in the weight table of each keyword that has
    references. Precision is correct / accepted hits in the document (0
    when it has none); recall is correct hits in it / the keyword's true
    occurrences. `hypotheses` are the accepted hits, the sequence whose
    positions `alignment.matched` holds.
    """
    accepted = Counter((h.kw_id, h.doc_id) for h in hypotheses)
    correct = Counter((hypotheses[i].kw_id, hypotheses[i].doc_id)
                      for i in alignment.matched)
    rows = []
    for kw_id, table in weight_tables.items():
        kw_counts = alignment.keyword_counts.get(kw_id)
        if kw_counts is None or kw_counts.n_true == 0:
            continue
        for doc_id, (_score, weight) in table.items():
            n_accepted, n_correct = accepted[kw_id, doc_id], correct[kw_id, doc_id]
            rows.append((kw_id, doc_id, weight,
                         n_correct / n_accepted if n_accepted else 0.0,
                         n_correct / kw_counts.n_true))
    return rows


def doc_rank_curves(rows: Sequence[tuple[str, str, float, float, float]],
                    max_rank: int) -> list[tuple[int, float, float]]:
    """Average per-rank detection precision and recall over keywords.

    For each keyword of the `doc_performance` rows, its documents are
    sorted by descending ranking weight, ties by doc_id; the document at
    rank k contributes its detection precision and recall. Rows are
    (rank, avg_precision, avg_recall), averaged over the keywords that
    have at least k ranked documents.
    """
    by_keyword: dict[str, list] = {}
    for row in rows:
        by_keyword.setdefault(row[0], []).append(row)
    per_rank: dict[int, list[tuple[float, float]]] = {}
    for kw_rows in by_keyword.values():
        kw_rows.sort(key=lambda row: (-row[2], row[1]))
        for rank, (*_, precision, recall) in enumerate(kw_rows[:max_rank], 1):
            per_rank.setdefault(rank, []).append((precision, recall))
    return [(rank, _total(p for p, _ in pairs) / len(pairs),
             _total(r for _, r in pairs) / len(pairs))
            for rank, pairs in sorted(per_rank.items())]


def weight_performance_correlation(
        rows: Sequence[tuple[str, str, float, float, float]]
        ) -> tuple[float | None, float | None]:
    """Rank correlation of document weights against detection performance.

    Pools the (weight, precision) and (weight, recall) pairs of all the
    `doc_performance` rows and returns the two Spearman coefficients. A
    coefficient is None where it is undefined: fewer than two rows, or
    zero rank variance on either side.
    """
    if len(rows) < 2:
        return None, None
    rhos = (spearman([row[2] for row in rows], [row[k] for row in rows])
            for k in (3, 4))
    return tuple(None if math.isnan(rho) else rho for rho in rhos)


class SweepPoint(NamedTuple):
    alpha: float
    atwv: float
    mean_p_miss: float
    mean_p_fa: float


def alpha_sweep(candidates: Sequence[Candidate],
                references: Sequence[RefOccurrence],
                grid: Sequence[float], policy: DecisionPolicy,
                delta_seconds: float = DEFAULT_DELTA_SECONDS) -> list[SweepPoint]:
    """Rescore, decide and score the same candidate set at each alpha.

    Each row, and each error, is that of `rescore_candidates`,
    `apply_decisions` and `score_detections` at its alpha. What does not
    depend on alpha is built once, at the first grid point: the weight
    tables, the reference counts and each group's pairs in match order.
    The alpha=0 row reproduces the baseline pipeline exactly, since
    interpolating with coefficient 0 leaves every score bit-identical.
    A policy without trial_seconds fails at the first grid point.
    """
    rows = []
    for alpha in grid:
        check_alpha(alpha)
        if not rows:  # the first grid point, after its alpha check
            if policy.trial_seconds is None:
                raise ValueError("alpha_sweep scores ATWV: its policy needs "
                                 "trial_seconds")
            tables = build_weight_tables(candidates)
            weights = [tables[c.kw_id][c.doc_id][1] for c in candidates]
            kw_ids = [c.kw_id for c in candidates]
            n_true = Counter(ref.kw_id for ref in references)
            paired = _paired_groups(candidates, references, delta_seconds)
        yes = yes_flags(kw_ids, [reestimate_confidence(c.score, weight, alpha)
                                 for c, weight in zip(candidates, weights)],
                        policy)
        _matched, counts = _tally(kw_ids, yes, n_true, paired)
        aggregate = build_report(counts, policy.trial_seconds, policy.beta,
                                 delta_seconds)["aggregate"]
        rows.append(SweepPoint(alpha, aggregate["atwv"],
                               aggregate["mean_p_miss"], aggregate["mean_p_fa"]))
    return rows
