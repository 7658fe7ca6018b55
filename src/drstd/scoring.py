"""Detection scoring: alignment, term-weighted values and MTWV.

Accepted detections are aligned to reference occurrences per keyword and
document: a hypothesis counts as correct when its midpoint lies within a
tolerance of an unmatched reference's midpoint (each start + duration / 2,
in `_group_pairs`), each reference consumed at most once (pairs matched
greedily, nearest in time first). From the per-keyword counts follow the
miss rate, the time-trial false-alarm rate, and the term-weighted value

    TWV(t) = 1 - P_miss(t) - beta * P_FA(t)

averaged over keywords that actually occur, and the best achievable
global threshold (MTWV).
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple, Sequence

from .decision import yes_only
from .tables import (DEFAULT_DELTA_SECONDS, Candidate, RefOccurrence, _total,
                     write_lines)


class KeywordCounts:
    """One keyword's reference, correct and false-alarm counts; updated in place."""

    __slots__ = ("n_true", "n_correct", "n_fa")

    def __init__(self, n_true: int = 0, n_correct: int = 0, n_fa: int = 0):
        self.n_true, self.n_correct, self.n_fa = n_true, n_correct, n_fa


class AlignmentResult(NamedTuple):
    """The positions, in increasing order, of the hypotheses given to
    align() that matched a reference, and per-keyword counts."""

    matched: list[int]
    keyword_counts: dict[str, KeywordCounts]


def _group_indices(items: Sequence) -> dict[tuple[str, str], list[int]]:
    """Indices of `items` per (kw_id, doc_id), in input order."""
    groups: dict[tuple[str, str], list[int]] = {}
    for i, item in enumerate(items):
        groups.setdefault((item.kw_id, item.doc_id), []).append(i)
    return groups


def _group_pairs(hypotheses: Sequence[Candidate], hyp_idx: Sequence[int],
                 references: Sequence[RefOccurrence], ref_idx: Sequence[int],
                 delta_seconds: float) -> list[tuple]:
    """The (hypothesis, reference) pairs of one (kw_id, doc_id) group whose
    midpoints lie within `delta_seconds`, in match order.

    Each pair is (dist, h.start, h.duration, r.start, i, j), for positions
    i and j, and they are sorted: nearest first, ties broken by times,
    then positions. The order depends on times alone, so a subset of the
    hypotheses keeps its pairs in this order.
    """
    pairs = []
    for i in hyp_idx:
        h = hypotheses[i]
        h_mid = h.start + h.duration / 2.0
        for j in ref_idx:
            r = references[j]
            dist = abs(h_mid - (r.start + r.duration / 2.0))
            if dist <= delta_seconds:
                pairs.append((dist, h.start, h.duration, r.start, i, j))
    pairs.sort()
    return pairs


def _greedy_matches(pairs: Iterable[tuple], accepted: Sequence[bool]
                    ) -> list[int]:
    """Matched hypothesis positions: the `_group_pairs` of accepted
    hypotheses are taken in order, each hypothesis and reference at most
    once."""
    hyp_used, ref_used, matches = set(), set(), []
    for _dist, _hs, _hd, _rs, i, j in pairs:
        if accepted[i] and i not in hyp_used and j not in ref_used:
            hyp_used.add(i)
            ref_used.add(j)
            matches.append(i)
    return matches


def _paired_groups(hypotheses: Sequence[Candidate],
                   references: Sequence[RefOccurrence], delta_seconds: float
                   ) -> dict[tuple[str, str], list[tuple]]:
    """`_group_pairs` of each (kw_id, doc_id) group with references."""
    if delta_seconds <= 0.0:
        raise ValueError(f"delta_seconds must be > 0, got {delta_seconds}")
    ref_groups = _group_indices(references)
    return {key: _group_pairs(hypotheses, hyp_idx, references, ref_groups[key],
                              delta_seconds)
            for key, hyp_idx in _group_indices(hypotheses).items()
            if key in ref_groups}


def _tally(kw_ids: Sequence[str], yes: Sequence[bool], n_true: Mapping[str, int],
           paired: Mapping[tuple, list[tuple]]) -> tuple[list[int], dict]:
    """Matched positions and per-keyword counts of the YES hypotheses among
    parallel `kw_ids` and `yes` flags. `paired` is their `_paired_groups`;
    the keywords of `n_true` come first in the counts."""
    counts = {kw_id: KeywordCounts(n) for kw_id, n in n_true.items()}
    for kw_id in itertools.compress(kw_ids, yes):
        counts.setdefault(kw_id, KeywordCounts()).n_fa += 1
    matched = [i for pairs in paired.values() for i in _greedy_matches(pairs, yes)]
    for i in matched:
        counts[kw_ids[i]].n_correct += 1
        counts[kw_ids[i]].n_fa -= 1
    return matched, counts


def align(hypotheses: Sequence[Candidate], references: Sequence[RefOccurrence],
          delta_seconds: float = DEFAULT_DELTA_SECONDS) -> AlignmentResult:
    """Match accepted detections against references group by group.

    Unmatched hypotheses are false alarms; unmatched references are misses.
    """
    paired = _paired_groups(hypotheses, references, delta_seconds)
    matched, counts = _tally([h.kw_id for h in hypotheses], [True] * len(hypotheses),
                             Counter(ref.kw_id for ref in references), paired)
    return AlignmentResult(sorted(matched), counts)


def _keyword_rate(kw_id: str, c: KeywordCounts, trial_seconds: float
                  ) -> tuple[float, float]:
    """(P_miss, P_FA) of one keyword that has references.

    P_FA uses one-second trials: the false-alarm opportunity count is the
    trial duration minus the number of true occurrences.
    """
    if trial_seconds <= c.n_true:
        raise ValueError(
            f"trial_seconds {trial_seconds} must exceed the {c.n_true} "
            f"true occurrences of keyword {kw_id!r}")
    return 1.0 - c.n_correct / c.n_true, c.n_fa / (trial_seconds - c.n_true)


def keyword_rates(alignment: AlignmentResult, trial_seconds: float
                  ) -> dict[str, tuple[float, float]]:
    """Per-keyword (P_miss, P_FA); keywords with no references are skipped."""
    return {kw_id: _keyword_rate(kw_id, c, trial_seconds)
            for kw_id, c in alignment.keyword_counts.items() if c.n_true}


def atwv(rates: Mapping[str, tuple[float, float]], beta: float) -> float:
    """Actual term-weighted value: 1 - mean over keywords of P_miss + beta*P_FA."""
    if not rates:
        raise ValueError("no scoreable keywords (every keyword has zero references)")
    total = _total(p_miss + beta * p_fa for p_miss, p_fa in rates.values())
    return 1.0 - total / len(rates)


def build_report(counts: Mapping[str, KeywordCounts], trial_seconds: float,
                 beta: float, delta_seconds: float = DEFAULT_DELTA_SECONDS) -> dict:
    """The `report.json` dict: config, aggregate and per-keyword scores.

    Keywords without references are left out; `keywords` is in kw_id order.
    """
    rates = {kw_id: _keyword_rate(kw_id, c, trial_seconds)
             for kw_id, c in counts.items() if c.n_true}
    keywords = {}
    for kw_id, (p_miss, p_fa) in sorted(rates.items()):
        c = counts[kw_id]
        keywords[kw_id] = {"n_true": c.n_true, "n_correct": c.n_correct,
                           "n_fa": c.n_fa, "p_miss": p_miss, "p_fa": p_fa,
                           "twv": 1.0 - p_miss - beta * p_fa}
    n = len(rates)
    return {
        "config": {"beta": beta, "trial_seconds": trial_seconds,
                   "delta_seconds": delta_seconds},
        "aggregate": {"atwv": atwv(rates, beta),
                      "mean_p_miss": _total(p for p, _ in rates.values()) / n,
                      "mean_p_fa": _total(f for _, f in rates.values()) / n,
                      "num_scored_keywords": n},
        "keywords": keywords,
    }


def score_detections(hypotheses: Sequence[Candidate],
                     references: Sequence[RefOccurrence],
                     trial_seconds: float, beta: float,
                     delta_seconds: float = DEFAULT_DELTA_SECONDS) -> dict:
    """Align accepted detections and build the `report.json` dict.

    Only rows decided YES are accepted.
    """
    alignment = align(yes_only(hypotheses), references, delta_seconds)
    return build_report(alignment.keyword_counts, trial_seconds, beta, delta_seconds)


def write_keyword_detail(path: str | Path, report: dict) -> None:
    lines = ["# kw_id\tn_true\tn_correct\tn_fa\tp_miss\tp_fa\ttwv"]
    for kw_id, s in report["keywords"].items():
        lines.append(f"{kw_id}\t{s['n_true']}\t{s['n_correct']}\t{s['n_fa']}"
                     f"\t{s['p_miss']!r}\t{s['p_fa']!r}\t{s['twv']!r}")
    write_lines(path, lines)


def write_csv(path: str | Path, header: Sequence[str],
              rows: Iterable[Sequence]) -> None:
    """Write `rows` under `header`, each value as its repr (floats exact),
    as csv.writer writes them: no repr of a number needs quoting, and each
    line ends in CRLF."""
    lines = [",".join(header), *(",".join(map(repr, row)) for row in rows)]
    write_lines(path, lines, "\r\n")


def mtwv(scored_candidates: Sequence[Candidate],
         references: Sequence[RefOccurrence], beta: float, trial_seconds: float,
         delta_seconds: float = DEFAULT_DELTA_SECONDS) -> tuple[float, float]:
    """Best global threshold in hindsight and its term-weighted value.

    Scans every distinct candidate score as a threshold (YES iff
    score >= threshold) plus one sentinel above the maximum score (the
    empty detection set); these cover every achievable YES set. Among
    ties the highest threshold wins. One pass adds each tie group of
    scores and re-matches only the (kw_id, doc_id) groups it adds to.
    """
    empty = align([], references, delta_seconds)
    counts = empty.keyword_counts  # the keywords with references
    rates = keyword_rates(empty, trial_seconds)
    paired = _paired_groups(scored_candidates, references, delta_seconds)
    scores = [c.score for c in scored_candidates]
    accepted = [False] * len(scores)
    correct: dict[tuple[str, str], int] = {}
    ordered = sorted(range(len(scores)), key=scores.__getitem__, reverse=True)
    best_threshold = (math.nextafter(scores[ordered[0]], math.inf) if ordered
                      else 1.0)
    best_twv = atwv(rates, beta)
    for threshold, tie_group in itertools.groupby(ordered, scores.__getitem__):
        touched = set()
        for i in tie_group:
            accepted[i] = True
            cand = scored_candidates[i]
            if cand.kw_id in counts:
                counts[cand.kw_id].n_fa += 1
                touched.add((cand.kw_id, cand.doc_id))
        for key in touched & paired.keys():
            n_correct = len(_greedy_matches(paired[key], accepted))
            counts[key[0]].n_correct += n_correct - correct.get(key, 0)
            counts[key[0]].n_fa -= n_correct - correct.get(key, 0)
            correct[key] = n_correct
        for kw_id, _doc_id in touched:
            rates[kw_id] = _keyword_rate(kw_id, counts[kw_id], trial_seconds)
        value = atwv(rates, beta)
        if value > best_twv:
            best_twv, best_threshold = value, threshold
    return best_threshold, best_twv
