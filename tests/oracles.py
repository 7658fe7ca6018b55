"""Independent straight-line reference implementations used as test oracles.

Everything here is deliberately written from the definitions, without
reusing the package's code paths: plain loops, brute-force enumeration,
exhaustive scans. Tests compare package output against these.
Two oracles are exceptions that reuse the package's code paths, since
each is the definition its fast counterpart must reproduce exactly.
`exhaustive_mtwv` re-runs the package's `align` on the whole YES set at
every threshold, for the incremental `scoring.mtwv`.
`reference_alpha_sweep` rescores, decides and scores afresh at each
alpha, for `diagnostics.alpha_sweep`, row for row and error for error.
`numpy_spearman` is the former numpy implementation, which the
plain-Python `diagnostics.spearman` must match bit for bit.
`reference_doc_from_obj` is the former straight-line corpus line check
(each check its own step), which the one-pass `corpus_io._doc_from_obj`
must match document for document and error message for error message.
`reference_parse_occurrence_table` is the former split-and-check TSV
row parser, which `tables.parse_occurrence_table`, one walk per row,
must match row for row and error message for error message.
`reference_numbered_lines` splits a whole strictly decoded byte string
into lines, for the one-pass line reader `tables._numbered_lines`.
`reference_write_candidates` is the former `write_candidates`, which
sorted with a Python key per row, here written out field by field; the
lines `tables.candidate_lines` makes of the rows of `tables.candidate_table`,
which sorts them as plain tuples, must give its bytes exactly.
`reference_write_cn_corpus` is the former `corpus_io.write_cn_corpus`,
which wrote each document with `json.dumps` over a dict per slot and a
list per arc; `corpus_io.write_cn_corpus`, which hands `json.dumps` each
slot's arc tuples as they are, must give its bytes.
`reference_generate` is the former `synth.generate`, which draws every
weighted token with numpy's `Generator.choice(..., p=...)`; the
prebuilt-cdf draws of `synth.generate` must give exactly its corpus.
It places the true occurrences with `_reference_plan_placements`, the
former `synth._plan_placements`, which draws home-topic documents from a
table of per-topic document lists.
"""

from __future__ import annotations

import itertools
import json
import math
import re
from collections import defaultdict
from pathlib import Path
from typing import Sequence

import numpy as np

from drstd.corpus_io import (EPS_TOKEN, POSTERIOR_SUM_TOL, ConfusionNetworkDoc,
                             KeywordEntry, Slot, normalize_token)
from drstd.decision import DecisionPolicy, apply_decisions
from drstd.diagnostics import SweepPoint
from drstd.rescore import rescore_candidates
from drstd.scoring import (DEFAULT_DELTA_SECONDS, align, atwv, keyword_rates,
                           score_detections)
from drstd.tables import SCORE_DECIMALS, Candidate, FormatError, RefOccurrence
from drstd.synth import (COMPETITOR_RANGE, DIRICHLET_MIX, EPS_ARC_PROB,
                         KEYWORD_CONFUSION_FACTOR, NOISE_SLOPE_HI,
                         NOISE_SLOPE_LO, SLOT_DURATION_RANGE,
                         TOPICAL_CONFUSION_PROB, TRUE_POSTERIOR_RANGE,
                         OCCURRENCES_RANGE, ZIPF_EXPONENT, SynthConfig)


def straightline_rescore(candidates, alpha):
    """Sum per doc, divide by the max, interpolate. One pass, no reuse.
    A keyword whose max is 0 has no mass: its weights are 0."""
    sums = defaultdict(float)
    for c in candidates:
        sums[(c.kw_id, c.doc_id)] += c.score
    max_per_kw = defaultdict(float)
    for (kw, _doc), s in sums.items():
        max_per_kw[kw] = max(max_per_kw[kw], s)
    out = []
    for c in candidates:
        top = max_per_kw[c.kw_id]
        weight = sums[(c.kw_id, c.doc_id)] / top if top else 0.0
        out.append(alpha * weight + (1.0 - alpha) * c.score)
    return out


def candidate_order(c):
    """The order of candidate rows, field by field: kw_id, doc_id, start,
    duration, score, then decision, an undecided "" first."""
    return (c.kw_id, c.doc_id, c.start, c.duration, c.score, c.decision)


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
    hits.sort(key=candidate_order)
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
            overlap = (min(a.start + a.duration, b.start + b.duration)
                       - max(a.start, b.start))
            shorter = min(a.duration, b.duration)
            if shorter <= 0 or overlap <= fraction * shorter:
                continue
            loser = min((a, b), key=lambda c: (c.score, -c.start))
            items.remove(loser)
            changed = True
            break
    items.sort(key=candidate_order)
    return items


def reference_greedy_dedup(candidates, fraction=0.5):
    """The greedy rule of `dedup_overlaps`, as its docstring states it.

    Every candidate is visited once, best first: highest score, then
    earliest start, then shortest duration, then input order. It is kept
    unless an already kept candidate of the same keyword and document
    overlaps it by more than `fraction` of the shorter of the two spans;
    a zero-length span overlaps another only when both start at the same
    instant. The kept candidates are returned in `candidate_order`.
    """
    order = sorted(range(len(candidates)), key=lambda i: (
        -candidates[i].score, candidates[i].start, candidates[i].duration, i))
    kept = []
    for i in order:
        cand = candidates[i]
        clash = False
        for other in kept:
            if (other.kw_id, other.doc_id) != (cand.kw_id, cand.doc_id):
                continue
            shorter = min(cand.duration, other.duration)
            if shorter == 0:
                clash = cand.start == other.start
            else:
                overlap = (min(cand.start + cand.duration,
                               other.start + other.duration)
                           - max(cand.start, other.start))
                clash = overlap > fraction * shorter
            if clash:
                break
        if not clash:
            kept.append(cand)
    kept.sort(key=candidate_order)
    return kept


def reference_kst_cut(scores, beta, trial_seconds):
    """One keyword's KST threshold, as `decision`'s docstrings state it.

    N, the expected number of true occurrences, is the keyword's scores
    summed in input order. N = 0 gives a cut of 1.0, so that only a
    perfect score passes. Otherwise the cut is
    beta * N / (T + (beta - 1) * N), and a cut that is not a finite
    number > 0, a zero denominator included, is a ValueError.
    """
    n = 0.0
    for score in scores:
        n += score
    if n == 0.0:
        return 1.0
    denominator = trial_seconds + (beta - 1.0) * n
    if denominator == 0.0:
        raise ValueError(f"no KST threshold: zero denominator at N={n}")
    cut = beta * n / denominator
    if not (math.isfinite(cut) and cut > 0.0):
        raise ValueError(f"no KST threshold: the cut is {cut} at N={n}")
    return cut


def reference_nearest_first_alignment(hypotheses, references, delta_seconds):
    """The nearest-first alignment of `scoring`'s docstrings.

    Every hypothesis given counts as accepted. A hypothesis and a
    reference of the same keyword and document may pair when their
    midpoints lie at most `delta_seconds` apart. Pairs are taken one at a
    time: each time, the best pair whose hypothesis and reference are
    both still unused, by nearest midpoints, then earliest hypothesis
    start, shortest hypothesis duration, earliest reference start, and
    lowest hypothesis and then reference position.

    Returns the matched hypothesis positions in increasing order, and
    (n_true, n_correct, n_fa) for each keyword of the references or the
    hypotheses.
    """
    free_hyps = set(range(len(hypotheses)))
    free_refs = set(range(len(references)))
    matched = []
    while True:
        best = None
        for i in free_hyps:
            h = hypotheses[i]
            for j in free_refs:
                r = references[j]
                if h.kw_id != r.kw_id or h.doc_id != r.doc_id:
                    continue
                dist = abs((h.start + h.duration / 2.0)
                           - (r.start + r.duration / 2.0))
                if dist > delta_seconds:
                    continue
                key = (dist, h.start, h.duration, r.start, i, j)
                if best is None or key < best:
                    best = key
        if best is None:
            break
        free_hyps.remove(best[4])
        free_refs.remove(best[5])
        matched.append(best[4])
    n_true, n_correct, n_hyps = defaultdict(int), defaultdict(int), defaultdict(int)
    for r in references:
        n_true[r.kw_id] += 1
    for h in hypotheses:
        n_hyps[h.kw_id] += 1
    for i in matched:
        n_correct[hypotheses[i].kw_id] += 1
    counts = {kw_id: (n_true[kw_id], n_correct[kw_id],
                      n_hyps[kw_id] - n_correct[kw_id])
              for kw_id in set(n_true) | set(n_hyps)}
    return sorted(matched), counts


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


def reference_alpha_sweep(candidates: Sequence[Candidate],
                          references: Sequence[RefOccurrence],
                          grid: Sequence[float], policy: DecisionPolicy,
                          delta_seconds: float = DEFAULT_DELTA_SECONDS
                          ) -> list[SweepPoint]:
    """Rescore, decide and score the same candidate set at each alpha.

    The alpha=0 row reproduces the baseline pipeline exactly, since
    interpolating with coefficient 0 leaves every score bit-identical.
    """
    rows = []
    for alpha in grid:
        rescored, _tables = rescore_candidates(candidates, alpha)
        aggregate = score_detections(apply_decisions(rescored, policy), references,
                                     policy.trial_seconds, policy.beta,
                                     delta_seconds)["aggregate"]
        rows.append(SweepPoint(alpha, aggregate["atwv"],
                               aggregate["mean_p_miss"], aggregate["mean_p_fa"]))
    return rows


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


def _reference_finite(value, what):
    """float(value), or ValueError unless that is a finite number."""
    if isinstance(value, bool):
        raise ValueError(f"{what} is not a number: {value!r}")
    try:
        number = float(value)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{what} is not a number: {value!r}") from None
    if not math.isfinite(number):
        raise ValueError(f"{what} is not finite: {value!r}")
    return number


def _reference_number(value, what):
    """A corpus number: a string must also be a plain decimal, as in tables."""
    if isinstance(value, str):
        return _reference_decimal(value, what)
    return _reference_finite(value, what)


def reference_doc_from_obj(obj, seen, tokens, *, path, line):
    """One decoded corpus line to a document, or the FormatError it earns.

    Errors take this precedence within a slot: arc shape, token and
    number errors arc by arc, then `start` and `dur`; then no arcs,
    negative duration, start order and span; then posterior range arc by
    arc, more than one null arc, and the posterior sum.
    """
    if not isinstance(obj, dict):
        raise FormatError("document line is not a JSON object", path=path, line=line)
    try:
        doc_id = obj["doc_id"]
        raw_slots = obj["slots"]
    except KeyError as exc:
        raise FormatError(f"missing field {exc.args[0]!r}", path=path, line=line) from exc
    if not isinstance(doc_id, str):
        raise FormatError("doc_id must be a string", path=path, line=line)
    _reference_id("doc_id", doc_id, path=path, line=line)
    if doc_id in seen:
        raise FormatError(f"duplicate doc_id {doc_id!r}", path=path, line=line)
    seen.add(doc_id)
    if not isinstance(raw_slots, list):
        raise FormatError(f"slots of doc {doc_id!r} is not a list",
                          path=path, line=line)
    slots = []
    first_start = prev_start = None
    for slot_idx, raw in enumerate(raw_slots):
        where = f"doc {doc_id!r} slot {slot_idx}"
        try:
            raw_arcs = raw["arcs"]
            if not isinstance(raw_arcs, list):
                raise TypeError(f"arcs is not a list: {raw_arcs!r}")
            arcs = []
            for arc in raw_arcs:
                if not isinstance(arc, list) or len(arc) != 2:
                    raise TypeError(f"arc is not a [token, posterior] pair: {arc!r}")
                raw_token = arc[0]
                if not isinstance(raw_token, str):
                    raise FormatError(f"{where}: arc token {raw_token!r} is not "
                                      f"a string", path=path, line=line)
                token = tokens.get(raw_token)
                if token is None:
                    token = normalize_token(raw_token)
                    if token.split() != [token]:
                        raise FormatError(
                            f"{where}: arc token {token!r} is empty or holds "
                            f"whitespace", path=path, line=line)
                    tokens[raw_token] = token
                arcs.append((token, _reference_number(arc[1], "posterior")))
            start = _reference_number(raw["start"], "start")
            dur = _reference_number(raw["dur"], "dur")
        except FormatError:
            raise
        except (KeyError, TypeError, ValueError) as exc:
            raise FormatError(f"malformed slot in doc {doc_id!r}: {exc}",
                              path=path, line=line) from exc
        if not arcs:
            raise FormatError(f"{where}: slot has no arcs", path=path, line=line)
        if dur < 0:
            raise FormatError(f"{where}: negative duration {dur}",
                              path=path, line=line)
        if prev_start is not None and start < prev_start:
            raise FormatError(
                f"{where}: start {start} precedes previous slot start {prev_start}",
                path=path, line=line)
        if first_start is None:
            first_start = start
        if not math.isfinite(start + dur - first_start):
            raise FormatError(
                f"{where}: span from the first slot start {first_start} to "
                f"end {start} + {dur} is not finite", path=path, line=line)
        prev_start = start
        eps_count, total = 0, 0.0
        for token, posterior in arcs:
            if not 0.0 < posterior <= 1.0:
                raise FormatError(
                    f"{where}: arc {token!r} posterior {posterior} outside (0, 1]",
                    path=path, line=line)
            eps_count += token == EPS_TOKEN
            total += posterior
        if eps_count > 1:
            raise FormatError(f"{where}: more than one {EPS_TOKEN} arc",
                              path=path, line=line)
        if abs(total - 1.0) > POSTERIOR_SUM_TOL:
            raise FormatError(f"{where}: posterior sum {total!r} differs from 1",
                              path=path, line=line)
        slots.append(Slot(start=start, duration=dur, arcs=tuple(arcs)))
    return ConfusionNetworkDoc(doc_id=doc_id, slots=tuple(slots))


# A string that float() reads as a finite number is a plain decimal number,
# [+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)? in ASCII digits, exactly when it
# holds no character but these.
_DECIMAL_CHARS = "0123456789.eE+-"


def _reference_decimal(text, what):
    """`_reference_finite`, and ValueError unless `text` is a plain decimal."""
    number = _reference_finite(text, what)
    if text.strip(_DECIMAL_CHARS):
        raise ValueError(f"{what} is not a number: {text!r}")
    return number


def _reference_floats(texts, names, *, path, line):
    """The columns `texts`, named `names`, as finite plain decimal numbers;
    the first column that is not one raises FormatError."""
    try:
        numbers = list(map(float, texts))
    except ValueError:
        numbers = None
    # A finite sum means every number is finite; a sum that overflows
    # takes the slow path and passes it.
    if (numbers is not None and -math.inf < sum(numbers) < math.inf
            and not "".join(texts).strip(_DECIMAL_CHARS)):
        return numbers
    try:
        return [_reference_decimal(text, f"column {name!r}")
                for text, name in zip(texts, names)]
    except ValueError as exc:
        raise FormatError(str(exc), path=path, line=line) from exc


def _reference_id(name, value, *, path, line):
    """An id is non-empty, and each of its characters is printable and not
    a space."""
    if not value:
        raise FormatError(f"{name} must be non-empty", path=path, line=line)
    if any(ch == " " or not ch.isprintable() for ch in value):
        raise FormatError(f"{name} {value!r} holds a space or an unprintable "
                          "character", path=path, line=line)


def _reference_ids(fields, *, path, line):
    for name, value in zip(("kw_id", "doc_id"), fields):
        _reference_id(name, value, path=path, line=line)
    return fields[:2]


def reference_parse_occurrence_table(path, kind):
    """The former split-and-check `parse_occurrence_table`.

    Each line is split on tabs and its columns checked one by one, in
    column order; numbers take a float() fast path that falls back to a
    per-column check.
    `tables.parse_occurrence_table` must give its rows, or its first error
    message, exactly.
    """
    rows = []
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            stripped = raw.rstrip("\n")
            if not stripped.strip() or stripped.lstrip().startswith("#"):
                continue
            fields = stripped.split("\t")
            where = dict(path=path, line=lineno)
            if kind == "ref":
                if len(fields) != 4:
                    raise FormatError("expected 4 columns for a reference row, "
                                      f"got {len(fields)}", **where)
                kw_id, doc_id = _reference_ids(fields, **where)
                start, dur = _reference_floats(fields[2:], ("start", "dur"),
                                               **where)
                if dur <= 0:
                    raise FormatError(
                        f"reference duration must be > 0, got {dur}", **where)
                rows.append(RefOccurrence(kw_id=kw_id, doc_id=doc_id,
                                          start=start, duration=dur))
                continue
            if len(fields) not in (5, 6):
                raise FormatError("expected 5 or 6 columns for a candidate row, "
                                  f"got {len(fields)}", **where)
            if kind == "decided" and len(fields) == 5:
                raise FormatError("row carries no YES/NO decision; run "
                                  "'drstd decide' first", **where)
            kw_id, doc_id = _reference_ids(fields, **where)
            decision = ""
            if len(fields) == 6:
                decision = fields[5]
                if decision not in ("YES", "NO"):
                    raise FormatError("decision column must be YES or NO, "
                                      f"got {decision!r}", **where)
            start, dur, score = _reference_floats(
                fields[2:5], ("start", "dur", "score"), **where)
            if dur < 0:
                raise FormatError(f"negative duration {dur}", **where)
            if not 0.0 <= score <= 1.0:
                raise FormatError(f"score {score} outside [0, 1]", **where)
            rows.append(Candidate(kw_id=kw_id, doc_id=doc_id, start=start,
                                  duration=dur, score=score, decision=decision))
    return rows


def reference_numbered_lines(data: bytes):
    """The lines of the UTF-8 text file of bytes `data`, each line end read
    as LF, up to the line of its first byte that is not UTF-8; and (that
    line's number, the byte, the reason), or None if every byte is UTF-8.
    The whole string is decoded strictly, and each of LF, CRLF and lone CR
    ends one line."""
    try:
        text, bad = data.decode("utf-8"), None
    except UnicodeDecodeError as exc:
        text, bad = data[:exc.start].decode("utf-8"), exc
    bodies = re.split("\r\n|\r|\n", text)
    lines = [body + "\n" for body in bodies[:-1]]
    if bad is not None:
        return lines, (len(bodies), data[bad.start], bad.reason)
    if bodies[-1]:
        lines.append(bodies[-1])
    return lines, None


def reference_write_candidates(path, candidates):
    """The former `write_candidates`: rows sorted by kw_id, doc_id,
    start, duration, score, then decision with undecided first; scores at
    6 decimals."""
    lines = ["# kw_id\tdoc_id\tstart\tdur\tscore[\tdecision]"]
    for cand in sorted(candidates, key=candidate_order):
        row = (f"{cand.kw_id}\t{cand.doc_id}\t{cand.start!r}\t{cand.duration!r}"
               f"\t{cand.score:.{SCORE_DECIMALS}f}")
        if cand.decision:
            row += f"\t{cand.decision}"
        lines.append(row)
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def reference_write_cn_corpus(path, docs):
    """The former `corpus_io.write_cn_corpus`: one `json.dumps` line per
    document, in input order."""
    with open(path, "w", encoding="utf-8") as fh:
        for doc in docs:
            obj = {
                "doc_id": doc.doc_id,
                "slots": [
                    {"start": slot.start, "dur": slot.duration,
                     "arcs": [[token, posterior] for token, posterior in slot.arcs]}
                    for slot in doc.slots
                ],
            }
            fh.write(json.dumps(obj, ensure_ascii=False) + "\n")


def reference_generate(config: SynthConfig) -> tuple[
        list[ConfusionNetworkDoc], list[KeywordEntry], list[RefOccurrence], int]:
    """Generate (corpus, keyword list, reference list, dropped) for one config.

    `dropped` counts the planned true occurrences that found no free slot
    in their saturated document and so were not planted. Deterministic
    given the seed; raises ValueError when the vocabulary is too small to
    host the keywords plus at least one filler token.
    """
    if config.vocab_size < config.num_keywords + 1:
        raise ValueError(
            f"vocabulary of {config.vocab_size} is too small to host "
            f"{config.num_keywords} keywords plus filler tokens")
    rng = np.random.default_rng(config.seed)
    vocab = [f"w{i:04d}" for i in range(config.vocab_size)]
    zipf = 1.0 / np.arange(1, config.vocab_size + 1) ** ZIPF_EXPONENT
    zipf /= zipf.sum()

    kw_indices = rng.choice(config.vocab_size, size=config.num_keywords,
                            replace=False)
    kw_tokens = [vocab[i] for i in kw_indices]
    keywords = [KeywordEntry(kw_id=f"KW{i + 1:04d}", tokens=(tok,))
                for i, tok in enumerate(kw_tokens)]

    filler_mask = np.ones(config.vocab_size, dtype=bool)
    filler_mask[kw_indices] = False
    filler_probs = np.where(filler_mask, zipf, 0.0)
    filler_probs /= filler_probs.sum()
    competitor_probs = np.where(filler_mask, zipf,
                                zipf * KEYWORD_CONFUSION_FACTOR)
    competitor_probs /= competitor_probs.sum()

    planted, home_topics, dropped = _reference_plan_placements(config, rng,
                                                               kw_tokens)
    topic_keywords: dict[int, list[str]] = {}
    for token, topic in home_topics.items():
        topic_keywords.setdefault(topic, []).append(token)

    docs: list[ConfusionNetworkDoc] = []
    refs: list[RefOccurrence] = []
    token_to_kw = {tok: kw.kw_id for tok, kw in zip(kw_tokens, keywords)}
    for doc_idx in range(config.num_docs):
        doc_id = f"d{doc_idx:04d}"
        doc_plants = planted.get(doc_idx, {})
        topical = topic_keywords.get(doc_idx // config.docs_per_topic, [])
        slots = []
        clock = 0.0
        for slot_idx in range(config.slots_per_doc):
            duration = float(rng.uniform(*SLOT_DURATION_RANGE))
            spoken = doc_plants.get(slot_idx)
            if spoken is None:
                spoken = vocab[int(rng.choice(config.vocab_size, p=filler_probs))]
            else:
                refs.append(RefOccurrence(kw_id=token_to_kw[spoken],
                                          doc_id=doc_id, start=clock,
                                          duration=duration))
            slots.append(Slot(start=clock, duration=duration,
                              arcs=_reference_draw_arcs(
                                  config, rng, competitor_probs, vocab,
                                  spoken, topical)))
            clock += duration
        docs.append(ConfusionNetworkDoc(doc_id=doc_id, slots=tuple(slots)))
    refs.sort(key=lambda r: (r.kw_id, r.doc_id, r.start))
    return docs, keywords, refs, dropped


def _reference_plan_placements(config: SynthConfig, rng: np.random.Generator,
                               kw_tokens: list[str]
                               ) -> tuple[dict[int, dict[int, str]],
                                          dict[str, int], int]:
    """Choose (doc, slot) for every true occurrence; count those dropped."""
    num_topics = math.ceil(config.num_docs / config.docs_per_topic)
    topic_docs = {
        t: [d for d in range(t * config.docs_per_topic,
                             min((t + 1) * config.docs_per_topic, config.num_docs))]
        for t in range(num_topics)
    }
    planted: dict[int, dict[int, str]] = {}
    home_topics: dict[str, int] = {}
    dropped = 0
    for token in kw_tokens:
        home = int(rng.integers(num_topics))
        home_topics[token] = home
        n_occ = int(rng.integers(*OCCURRENCES_RANGE))
        for _ in range(n_occ):
            if rng.random() < config.topic_affinity:
                doc_idx = int(rng.choice(topic_docs[home]))
            else:
                doc_idx = int(rng.integers(config.num_docs))
            used = planted.setdefault(doc_idx, {})
            slot_idx = _reference_free_slot(rng, used, config.slots_per_doc)
            if slot_idx is None:
                dropped += 1  # document saturated
                continue
            used[slot_idx] = token
    return planted, home_topics, dropped


def _reference_free_slot(rng: np.random.Generator, used: dict[int, str],
                         slots_per_doc: int) -> int | None:
    for _ in range(50):
        slot_idx = int(rng.integers(slots_per_doc))
        if slot_idx not in used:
            return slot_idx
    for slot_idx in range(slots_per_doc):
        if slot_idx not in used:
            return slot_idx
    return None


def _reference_draw_arcs(config: SynthConfig, rng: np.random.Generator,
                         competitor_probs: np.ndarray, vocab: list[str],
                         spoken: str, topical: list[str]
                         ) -> tuple[tuple[str, float], ...]:
    lo, hi = TRUE_POSTERIOR_RANGE
    p_spoken = float(rng.uniform(lo - NOISE_SLOPE_LO * config.noise,
                                 hi - NOISE_SLOPE_HI * config.noise))
    n_comp = int(rng.integers(*COMPETITOR_RANGE))
    draw = rng.choice(len(vocab), size=n_comp + 1, replace=False,
                      p=competitor_probs)
    comp_tokens = [vocab[i] for i in draw if vocab[i] != spoken][:n_comp]
    candidates_topical = [t for t in topical if t != spoken]
    topical_hit = False
    if candidates_topical and rng.random() < TOPICAL_CONFUSION_PROB:
        confusion = candidates_topical[int(rng.integers(len(candidates_topical)))]
        if confusion not in comp_tokens:
            comp_tokens[0] = confusion
            topical_hit = True
    if rng.random() < EPS_ARC_PROB and len(comp_tokens) > 1:
        comp_tokens[-1] = EPS_TOKEN
    shares = rng.dirichlet(np.ones(len(comp_tokens)))
    shares = DIRICHLET_MIX * shares + (1.0 - DIRICHLET_MIX) / len(comp_tokens)
    if topical_hit:
        shares = np.concatenate([[shares.max()],
                                 np.delete(shares, shares.argmax())])
    remainder = 1.0 - p_spoken
    arcs = [(spoken, p_spoken)]
    arcs += [(tok, float(remainder * share))
             for tok, share in zip(comp_tokens, shares)]
    return tuple(arcs)

