"""Independent straight-line reference implementations used as test oracles.

Everything here is deliberately written from the definitions, without
reusing the package's code paths: plain loops, brute-force enumeration,
exhaustive scans. Tests compare package output against these.
`exhaustive_mtwv` is the one exception: it re-runs the package's `align`
on the whole YES set at every threshold, the definition that the
incremental `scoring.mtwv` must reproduce exactly. `numpy_spearman` is
the former numpy implementation, which the plain-Python
`scoring.spearman` must match bit for bit.
"""

from __future__ import annotations

import itertools
import math
from collections import defaultdict
from typing import Sequence

import numpy as np

from drstd.corpus_io import Candidate, EPS_TOKEN, RefOccurrence
from drstd.scoring import DEFAULT_DELTA_SECONDS, align, atwv, keyword_rates


def straightline_rescore(candidates, alpha):
    """Sum per doc, divide by the max, interpolate. One pass, no reuse."""
    sums = defaultdict(float)
    for c in candidates:
        sums[(c.kw_id, c.doc_id)] += c.score
    max_per_kw = defaultdict(float)
    for (kw, _doc), s in sums.items():
        max_per_kw[kw] = max(max_per_kw[kw], s)
    out = []
    for c in candidates:
        weight = sums[(c.kw_id, c.doc_id)] / max_per_kw[c.kw_id]
        out.append(alpha * weight + (1.0 - alpha) * c.score)
    return out


def naive_scan_search(corpus, keywords):
    """Enumerate every slot position of every document for every keyword.

    Mirrors the matching rule (token sequence in consecutive slots,
    intermediate slots traversable via their null arc, score = product of
    traversed posteriors) directly on the corpus, with no index.
    """
    hits = []
    for keyword in keywords:
        for doc in corpus:
            slots = doc.slots
            for start_idx in range(len(slots)):
                for arc in slots[start_idx].arcs:
                    if arc[0] != keyword.tokens[0]:
                        continue
                    if len(keyword.tokens) == 1:
                        hits.append(Candidate(
                            kw_id=keyword.kw_id, doc_id=doc.doc_id,
                            start=slots[start_idx].start,
                            duration=slots[start_idx].duration, score=arc[1]))
                        continue
                    paths = [(start_idx, arc[1])]
                    for token in keyword.tokens[1:]:
                        grown = []
                        for pos, score in paths:
                            acc = score
                            j = pos + 1
                            while j < len(slots):
                                for tok, post in slots[j].arcs:
                                    if tok == token:
                                        grown.append((j, acc * post))
                                eps = [p for t, p in slots[j].arcs
                                       if t == EPS_TOKEN]
                                if not eps:
                                    break
                                acc *= eps[0]
                                j += 1
                        paths = grown
                    for last, score in paths:
                        hits.append(Candidate(
                            kw_id=keyword.kw_id, doc_id=doc.doc_id,
                            start=slots[start_idx].start,
                            duration=slots[last].start + slots[last].duration
                            - slots[start_idx].start,
                            score=score))
    hits.sort(key=Candidate.sort_key)
    return hits


def pairwise_merge_dedup(candidates, fraction=0.5):
    """Remove losers of overlapping pairs until no pair overlaps.

    Repeatedly finds any same-keyword same-document pair overlapping by
    more than `fraction` of the shorter span and deletes the worse one
    (lower score; ties: later start). Intended for instances where the
    fixpoint is unique (e.g. mutually overlapping chains).
    """
    items = list(candidates)
    changed = True
    while changed:
        changed = False
        for a, b in itertools.combinations(items, 2):
            if a.kw_id != b.kw_id or a.doc_id != b.doc_id:
                continue
            overlap = min(a.end, b.end) - max(a.start, b.start)
            shorter = min(a.duration, b.duration)
            if shorter <= 0 or overlap <= fraction * shorter:
                continue
            loser = min((a, b), key=lambda c: (c.score, -c.start))
            items.remove(loser)
            changed = True
            break
    items.sort(key=Candidate.sort_key)
    return items


def expected_twv(scores, accepted, trial_seconds, beta):
    """Expected term-weighted value for one keyword's YES set.

    Each score is read as the probability that its candidate is a true
    hit; the expected number of true occurrences is the sum over all
    candidates.
    """
    n_expected = sum(scores)
    if n_expected <= 0:
        return 0.0
    hit_mass = sum(s for s, a in zip(scores, accepted) if a)
    fa_mass = sum(1.0 - s for s, a in zip(scores, accepted) if a)
    return hit_mass / n_expected - beta * fa_mass / (trial_seconds - n_expected)


def best_expected_twv(scores, trial_seconds, beta):
    """Exhaustive scan over all score cut points (plus the empty set)."""
    cuts = sorted(set(scores)) + [float("inf")]
    best = -float("inf")
    for cut in cuts:
        accepted = [s >= cut for s in scores]
        best = max(best, expected_twv(scores, accepted, trial_seconds, beta))
    return best


def brute_force_atwv(per_keyword_counts, trial_seconds, beta):
    """ATWV straight from the definitions, given (n_true, n_correct, n_fa)."""
    terms = []
    for n_true, n_correct, n_fa in per_keyword_counts:
        if n_true == 0:
            continue
        p_miss = 1.0 - n_correct / n_true
        p_fa = n_fa / (trial_seconds - n_true)
        terms.append(1.0 - (p_miss + beta * p_fa))
    return sum(terms) / len(terms)


def optimal_match_count(hyp_mids, ref_mids, delta):
    """Maximum-cardinality hypothesis/reference matching, brute force."""
    best = 0
    n_ref = len(ref_mids)
    for assignment in itertools.product(range(-1, n_ref), repeat=len(hyp_mids)):
        used = [j for j in assignment if j >= 0]
        if len(used) != len(set(used)):
            continue
        if any(j >= 0 and abs(hyp_mids[i] - ref_mids[j]) > delta
               for i, j in enumerate(assignment)):
            continue
        best = max(best, len(used))
    return best


def exhaustive_mtwv(scored_candidates: Sequence[Candidate],
                     references: Sequence[RefOccurrence], beta: float,
                     trial_seconds: float,
                     delta_seconds: float = DEFAULT_DELTA_SECONDS
                     ) -> tuple[float, float]:
    """Best global threshold in hindsight and its term-weighted value.

    Scans every distinct candidate score as a threshold (YES iff
    score >= threshold) plus one sentinel above the maximum score (the
    empty detection set); these cover every achievable YES set. Among
    ties the highest threshold wins.
    """
    distinct = sorted({c.score for c in scored_candidates}, reverse=True)
    if distinct:
        thresholds = [math.nextafter(distinct[0], math.inf)] + distinct
    else:
        thresholds = [1.0]
    best_threshold = thresholds[0]
    best_twv = -math.inf
    for threshold in thresholds:
        accepted = [c for c in scored_candidates if c.score >= threshold]
        alignment = align(accepted, references, delta_seconds)
        value = atwv(keyword_rates(alignment, trial_seconds), beta)
        if value > best_twv:
            best_twv = value
            best_threshold = threshold
    return best_threshold, best_twv


def _numpy_average_ranks(values: Sequence[float]) -> np.ndarray:
    """1-based ranks of `values`; tied values share their mean position."""
    _, inverse, counts = np.unique(np.asarray(values, dtype=float),
                                   return_inverse=True, return_counts=True)
    return (np.cumsum(counts) - (counts - 1) / 2.0)[inverse]


def numpy_spearman(x: Sequence[float], y: Sequence[float]) -> float:
    """Spearman rank correlation with average ranks on ties.

    Returns NaN when either argument has zero rank variance (correlation
    undefined). Invariant under strictly monotone transforms of either
    argument.
    """
    if len(x) != len(y):
        raise ValueError(f"length mismatch: {len(x)} vs {len(y)}")
    if len(x) < 2:
        raise ValueError("need at least 2 points")
    rx = _numpy_average_ranks(x)
    ry = _numpy_average_ranks(y)
    rx = rx - rx.mean()
    ry = ry - ry.mean()
    denom = math.sqrt(float(np.dot(rx, rx)) * float(np.dot(ry, ry)))
    if denom == 0.0:
        return math.nan
    return float(np.dot(rx, ry)) / denom
