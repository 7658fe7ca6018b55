"""Seeded synthetic confusion-network corpora with topic burstiness.

Documents are grouped into fixed-size topics. Each keyword gets a home
topic; each of its true occurrences is planted in a home-topic document
with probability ``topic_affinity`` and in a uniformly random document
otherwise, so correct hits cluster in topic-related documents to a
controllable degree.

Every slot carries one "spoken" token plus 2-4 competitor arcs (one of
which is occasionally the null arc). The spoken token's posterior is
drawn uniformly from [0.78 - 0.72 * noise, 0.97 - 0.46 * noise]: noise
both lowers and spreads it, so at noise 0 it always dominates its slot
and at high noise it sinks into the competitor range, producing misses
and false alarms downstream. The remaining probability mass is split
across competitors by a flattened Dirichlet (0.7 * Dirichlet(1,..,1)
+ 0.3 * uniform), which keeps every arc posterior printable at six
decimals. Competitor tokens are drawn from a power-law (Zipf, exponent
1.07) profile over the vocabulary with keyword tokens damped to a tenth
of their share, filler tokens from the same profile restricted to
non-keyword tokens, so keywords are never "spoken" outside their planted
slots but do show up as recognizer confusions; inside a keyword's own
home topic they additionally appear as the top competitor in a small
fraction of slots, concentrating false alarms where document weights are
high. Generation is single-threaded and fully determined by the seed.

Every draw comes from `_stream.Generator`, numpy's `default_rng(seed)`
stream in plain Python, and the token profiles are numpy's sums in
numpy's order, so a seed gives the bytes it gave when `synth` called
numpy (`TestMatchesNumpyChoice`), without numpy. Fillers and competitors
are drawn one way: `bisect_right` of uniforms in a cdf built once per
corpus. A filler is one such draw; `_draw_distinct` draws a slot's
distinct competitors, numpy's `Generator.choice(..., p=...)` without
replacement, and `_redraw` places its retry batch. A slot draws up to 5
distinct competitors, so the vocabulary needs at least 5 tokens. Uniform
draws are `a + (b - a) * random()` and the flat Dirichlet is standard
exponentials scaled by the reciprocal of their left-to-right sum,
`tables._total`: numpy's own `uniform` and `dirichlet` on the same
stream (`TestDrawsMatchNumpy`). The documents are drawn lazily, so
`synth` writes each as it comes and its memory does not grow with their
number.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Iterator
from itertools import accumulate, repeat

from ._stream import Generator
from .corpus_io import ConfusionNetworkDoc, EPS_TOKEN, KeywordEntry, Slot
from .tables import RefOccurrence, _new_tuple, _total

TRUE_POSTERIOR_RANGE = (0.78, 0.97)
# Noise pulls the spoken token's posterior down and also spreads it out:
# the lower edge falls faster than the upper one.
NOISE_SLOPE_LO = 0.72
NOISE_SLOPE_HI = 0.46
COMPETITOR_RANGE = (2, 5)  # rng.integers bounds: 2..4 competitors
EPS_ARC_PROB = 0.15
DIRICHLET_MIX = 0.7
SLOT_DURATION_RANGE = (0.25, 0.45)
OCCURRENCES_RANGE = (6, 13)  # 6..12 true occurrences per keyword
ZIPF_EXPONENT = 1.07
# Keyword tokens are rarer recognizer confusions than fillers: their
# share of the competitor-draw profile is scaled down by this factor.
KEYWORD_CONFUSION_FACTOR = 0.10
# ... except inside their own home topic, where confusable words recur:
# this fraction of home-topic slots hypothesizes the keyword as the top
# competitor arc, concentrating false alarms in high-weight documents.
TOPICAL_CONFUSION_PROB = 0.03


class SynthConfig:
    """Generator settings, checked at construction."""

    __slots__ = ("num_docs", "slots_per_doc", "vocab_size", "num_keywords",
                 "topic_affinity", "docs_per_topic", "noise", "seed")

    def __init__(self, num_docs: int, slots_per_doc: int, vocab_size: int,
                 num_keywords: int, topic_affinity: float, docs_per_topic: int,
                 noise: float, seed: int):
        self.num_docs, self.slots_per_doc, self.vocab_size = (
            num_docs, slots_per_doc, vocab_size)
        self.num_keywords, self.topic_affinity = num_keywords, topic_affinity
        self.docs_per_topic, self.noise, self.seed = docs_per_topic, noise, seed
        for name in ("num_docs", "slots_per_doc", "vocab_size",
                     "num_keywords", "docs_per_topic"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
            if getattr(self, name) > 1 << 32:  # `Generator.integers`' bound
                raise ValueError(f"{name} must be <= 2**32, got {getattr(self, name)}")
        for name in ("topic_affinity", "noise"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {getattr(self, name)}")


def generate(config: SynthConfig) -> tuple[
        Iterator[ConfusionNetworkDoc], list[KeywordEntry], list[RefOccurrence],
        int]:
    """Generate (corpus, keyword list, reference list, dropped) for one config.

    The corpus is an iterator that draws one document per `next()`; the
    reference list fills as the documents are drawn and is complete, and
    sorted, once the last one has been. `dropped` counts the planned true
    occurrences that found no free slot in their saturated document and
    so were not planted. Deterministic given the seed; raises ValueError,
    before any document is drawn, when the vocabulary is too small to
    host the keywords plus at least one filler token.
    """
    if config.vocab_size < config.num_keywords + 1:
        raise ValueError(
            f"vocabulary of {config.vocab_size} is too small to host "
            f"{config.num_keywords} keywords plus filler tokens")
    if config.vocab_size < COMPETITOR_RANGE[1]:
        raise ValueError(
            f"vocabulary of {config.vocab_size} is too small: each slot draws "
            f"up to {COMPETITOR_RANGE[1]} distinct competitor tokens")
    rng = Generator(config.seed)
    vocab = [f"w{i:04d}" for i in range(config.vocab_size)]
    zipf = _normalized([1.0 / k ** ZIPF_EXPONENT
                        for k in range(1, config.vocab_size + 1)])

    kw_indices = rng.choice(config.vocab_size, config.num_keywords)
    kw_tokens = [vocab[i] for i in kw_indices]
    keywords = [KeywordEntry(kw_id=f"KW{i + 1:04d}", tokens=(tok,))
                for i, tok in enumerate(kw_tokens)]

    is_keyword = set(kw_indices)
    filler_probs = _normalized([0.0 if i in is_keyword else share
                                for i, share in enumerate(zipf)])
    competitor_probs = _normalized([
        share * KEYWORD_CONFUSION_FACTOR if i in is_keyword else share
        for i, share in enumerate(zipf)])

    planted, topic_keywords, dropped = _plan_placements(config, rng, kw_tokens)
    refs: list[RefOccurrence] = []
    token_to_kw = {tok: kw.kw_id for tok, kw in zip(kw_tokens, keywords)}
    # Per-corpus constants and bound methods, out of the per-slot loop.
    random, integers = rng.random, rng.integers
    exponentials = rng.standard_exponential
    filler_cdf = _cdf(list(accumulate(filler_probs)))
    comp_cum = list(accumulate(competitor_probs))
    comp_cdf = _cdf(comp_cum)
    d_lo, d_hi = SLOT_DURATION_RANGE
    p_lo = TRUE_POSTERIOR_RANGE[0] - NOISE_SLOPE_LO * config.noise
    p_hi = TRUE_POSTERIOR_RANGE[1] - NOISE_SLOPE_HI * config.noise
    d_span, p_span = d_hi - d_lo, p_hi - p_lo  # numpy's uniform: lo + span * u

    def documents() -> Iterator[ConfusionNetworkDoc]:
        for doc_idx in range(config.num_docs):
            doc_id = f"d{doc_idx:04d}"
            doc_plants = planted.get(doc_idx, {})
            topical = topic_keywords.get(doc_idx // config.docs_per_topic)
            slots = []
            clock = 0.0
            for slot_idx in range(config.slots_per_doc):
                duration = d_lo + d_span * random()
                spoken = doc_plants.get(slot_idx)
                if spoken is None:
                    spoken = vocab[bisect_right(filler_cdf, random())]
                else:
                    refs.append(_new_tuple(RefOccurrence, (
                        token_to_kw[spoken], doc_id, clock, duration)))
                p_spoken = p_lo + p_span * random()
                n_comp = integers(*COMPETITOR_RANGE)
                drawn = _draw_distinct(random, competitor_probs, comp_cum,
                                       comp_cdf, n_comp + 1)
                comp_tokens = [vocab[i] for i in drawn if vocab[i] != spoken][:n_comp]
                topical_hit = False
                if topical:  # no draw for a topic without keywords
                    candidates = [t for t in topical if t != spoken]
                    if candidates and random() < TOPICAL_CONFUSION_PROB:
                        confusion = candidates[integers(len(candidates))]
                        if confusion not in comp_tokens:
                            comp_tokens[0] = confusion
                            topical_hit = True
                if random() < EPS_ARC_PROB and len(comp_tokens) > 1:
                    comp_tokens[-1] = EPS_TOKEN
                # numpy's dirichlet(ones(n)): n exponentials over their sum
                draws = exponentials(len(comp_tokens))
                scale = 1.0 / _total(draws)
                floor = (1.0 - DIRICHLET_MIX) / len(comp_tokens)
                shares = [DIRICHLET_MIX * (x * scale) + floor for x in draws]
                if topical_hit:
                    shares.insert(0, shares.pop(shares.index(max(shares))))
                remainder = 1.0 - p_spoken
                slots.append(_new_tuple(Slot, (clock, duration, (
                    (spoken, p_spoken),
                    *[(tok, remainder * share)
                      for tok, share in zip(comp_tokens, shares)]))))
                clock += duration
            yield ConfusionNetworkDoc(doc_id, tuple(slots))
        refs.sort()  # no two share (kw_id, doc_id, start): one plant a slot

    return documents(), keywords, refs, dropped


def _normalized(p: list[float]) -> list[float]:
    """numpy's `p / p.sum()`: each share over the pairwise sum."""
    total = _pairwise_sum(p)
    return [x / total for x in p]


def _pairwise_sum(values: list[float]) -> float:
    """numpy's `sum` of a contiguous float64 array: below 8 values a
    left-to-right sum, up to 128 eight running sums added as a tree, and
    above that the two halves, split at a multiple of 8, summed apart."""
    n = len(values)
    if n < 8:
        return _total(values)
    if n <= 128:
        end = n - n % 8
        r = [_total(values[k:end:8]) for k in range(8)]
        return _total([((r[0] + r[1]) + (r[2] + r[3]))
                       + ((r[4] + r[5]) + (r[6] + r[7])), *values[end:]])
    half = n // 2 - n // 2 % 8
    return _pairwise_sum(values[:half]) + _pairwise_sum(values[half:])


def _cdf(cum: list[float]) -> list[float]:
    """The cdf numpy's `Generator.choice` builds from the cumulative sums
    `cum` of its `p`: each over the last."""
    return [c / cum[-1] for c in cum]


# `_redraw`'s rounding bound per term of `p`, relative to its total. A
# left-to-right float sum of n nonnegative terms is within about n * 2**-53
# of the exact sum, relative to the total. numpy's zeroed cumulative sums,
# `cum` and the zeroed mass taken from it are such sums, so numpy's sums
# and their stand-ins differ by under (3 n + 1) * 2**-53 of the total.
# E = n * 2**-50 of it covers that twice over, and the few roundings of
# the comparison besides: an x more than 3 E from a boundary is placed as
# numpy places it.
_SUM_ERROR = 2.0 ** -50


def _draw_distinct(random, p: list[float], cum: list[float], cdf: list[float],
                   size: int) -> list[int]:
    """`size` distinct indices into `p` in first-drawn order: numpy's
    `Generator.choice(len(p), size, replace=False, p=p)` on the same stream,
    `random` its `random`. The first batch is searched in `cdf`, `_cdf(cum)`
    with `cum` the cumulative sums of `p`. As in numpy, the draws that
    repeat an index are redrawn in one batch, `_redraw`, until `size` are
    found."""
    found = list(dict.fromkeys(map(bisect_right, repeat(cdf), random(size))))
    while len(found) < size:
        found += dict.fromkeys(_redraw(p, cum, found, random(size - len(found))))
    return found


def _redraw(p: list[float], cum: list[float], found: list[int],
            xs: list[float]) -> list[int]:
    """numpy's retry: `cdf.searchsorted(xs, side="right")`, where `cdf` is
    the cumulative sums of `p` with the indices `found` set to zero, each
    over the last.

    Those sums are not made here. Each x is placed by `cum` less the
    zeroed mass before it, which is within E (`_SUM_ERROR`) of numpy's
    sum, as the total less the zeroed mass is of numpy's total. The place
    stands where x * total lies more than 3 E from both ends of its
    interval; otherwise `_exact_pick` sums the zeroed cdf."""
    zeroed = sorted(found)
    masses = [p[j] for j in zeroed]
    remaining = cum[-1] - _total(masses)
    err = 3 * len(p) * _SUM_ERROR * cum[-1]
    picks = []
    for x in xs:
        target = x * remaining
        above, below = target + err, target - err
        lo, removed = 0, 0.0
        for end, mass in zip([*zeroed, len(p)], [*masses, 0.0]):
            i = bisect_right(cum, target + removed, lo, end)
            if i < end:
                break
            lo, removed = end, removed + mass
        # numpy never picks a zeroed index, and its cdf rises: the pick
        # stands if its sum is surely above x and the one before surely not
        if (i < len(p) and i not in zeroed and cum[i] - removed > above
                and (i == 0 or cum[i - 1] - removed < below)):
            picks.append(i)
        else:
            picks.append(_exact_pick(p, zeroed, x))
    return picks


def _exact_pick(p: list[float], zeroed: list[int], x: float) -> int:
    """One index of `_redraw`, from the zeroed cdf summed as numpy sums it."""
    return bisect_right(_cdf(list(accumulate(
        0.0 if j in zeroed else share for j, share in enumerate(p)))), x)


def _plan_placements(config: SynthConfig, rng: Generator,
                     kw_tokens: list[str]
                     ) -> tuple[dict[int, dict[int, str]], dict[int, list[str]], int]:
    """Choose (doc, slot) for every true occurrence; count those dropped.
    Also returns each home topic's keyword tokens, in keyword order."""
    num_topics = math.ceil(config.num_docs / config.docs_per_topic)
    planted: dict[int, dict[int, str]] = {}
    topic_keywords: dict[int, list[str]] = {}
    dropped = 0
    for token in kw_tokens:
        home = rng.integers(num_topics)
        topic_keywords.setdefault(home, []).append(token)
        first = home * config.docs_per_topic
        home_docs = range(first, min(first + config.docs_per_topic, config.num_docs))
        n_occ = rng.integers(*OCCURRENCES_RANGE)
        for _ in range(n_occ):
            if rng.random() < config.topic_affinity:
                doc_idx = home_docs[rng.integers(len(home_docs))]  # numpy's choice
            else:
                doc_idx = rng.integers(config.num_docs)
            used = planted.setdefault(doc_idx, {})
            slot_idx = _free_slot(rng, used, config.slots_per_doc)
            if slot_idx is None:
                dropped += 1  # document saturated
                continue
            used[slot_idx] = token
    return planted, topic_keywords, dropped


def _free_slot(rng: Generator, used: dict[int, str],
               slots_per_doc: int) -> int | None:
    for _ in range(50):
        slot_idx = rng.integers(slots_per_doc)
        if slot_idx not in used:
            return slot_idx
    for slot_idx in range(slots_per_doc):
        if slot_idx not in used:
            return slot_idx
    return None

