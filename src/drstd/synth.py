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

Fillers and competitors are drawn one way: `bisect_right` of uniforms in
a list copy of a cdf numpy builds once per corpus. A filler is one such
draw; `_draw_distinct` draws a slot's distinct competitors, and numpy
builds and searches a cdf per draw only for its retry batch. Each draw
equals numpy's `Generator.choice(..., p=...)` on the same stream, so the
corpus bytes are those `choice` gives (`TestMatchesNumpyChoice`). A slot
draws up to 5 distinct competitors, so the vocabulary needs at least 5
tokens. Uniform draws are `a + (b - a) * random()` and the flat
Dirichlet is standard exponentials scaled by the reciprocal of their
left-to-right sum, `tables._total`: numpy's own `uniform` and
`dirichlet` on the same stream (`TestDrawsMatchNumpy`). The documents
are drawn lazily, so `synth` writes each as it comes and its memory does
not grow with their number.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Iterator
from itertools import repeat

import numpy as np

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

    planted, topic_keywords, dropped = _plan_placements(config, rng, kw_tokens)
    refs: list[RefOccurrence] = []
    token_to_kw = {tok: kw.kw_id for tok, kw in zip(kw_tokens, keywords)}
    # Per-corpus constants and bound methods, out of the per-slot loop.
    random, integers = rng.random, rng.integers
    filler_cdf, comp_cdf = _cdf(filler_probs).tolist(), _cdf(competitor_probs).tolist()
    d_lo, d_hi = SLOT_DURATION_RANGE
    p_lo = TRUE_POSTERIOR_RANGE[0] - NOISE_SLOPE_LO * config.noise
    p_hi = TRUE_POSTERIOR_RANGE[1] - NOISE_SLOPE_HI * config.noise

    def documents() -> Iterator[ConfusionNetworkDoc]:
        for doc_idx in range(config.num_docs):
            doc_id = f"d{doc_idx:04d}"
            doc_plants = planted.get(doc_idx, {})
            topical = topic_keywords.get(doc_idx // config.docs_per_topic)
            slots = []
            clock = 0.0
            for slot_idx in range(config.slots_per_doc):
                duration = _uniform(rng, d_lo, d_hi)
                spoken = doc_plants.get(slot_idx)
                if spoken is None:
                    spoken = vocab[bisect_right(filler_cdf, random())]
                else:
                    refs.append(_new_tuple(RefOccurrence, (
                        token_to_kw[spoken], doc_id, clock, duration)))
                p_spoken = _uniform(rng, p_lo, p_hi)
                n_comp = int(integers(*COMPETITOR_RANGE))
                drawn = _draw_distinct(rng, competitor_probs, comp_cdf, n_comp + 1)
                comp_tokens = [vocab[i] for i in drawn if vocab[i] != spoken][:n_comp]
                topical_hit = False
                if topical:  # no draw for a topic without keywords
                    candidates = [t for t in topical if t != spoken]
                    if candidates and random() < TOPICAL_CONFUSION_PROB:
                        confusion = candidates[int(integers(len(candidates)))]
                        if confusion not in comp_tokens:
                            comp_tokens[0] = confusion
                            topical_hit = True
                if random() < EPS_ARC_PROB and len(comp_tokens) > 1:
                    comp_tokens[-1] = EPS_TOKEN
                floor = (1.0 - DIRICHLET_MIX) / len(comp_tokens)
                shares = [DIRICHLET_MIX * share + floor
                          for share in _flat_dirichlet(rng, len(comp_tokens))]
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


def _uniform(rng: np.random.Generator, low: float, high: float) -> float:
    """`rng.uniform(low, high)`: numpy draws it as `low + (high - low) * u`
    with `u` the next `random()`."""
    return low + (high - low) * rng.random()


def _flat_dirichlet(rng: np.random.Generator, n: int) -> list[float]:
    """`rng.dirichlet(np.ones(n))`: numpy's gamma draw of shape 1 is a
    standard exponential, and it scales the n draws by the reciprocal of
    their left-to-right sum."""
    draws = rng.standard_exponential(n).tolist()
    scale = 1.0 / _total(draws)
    return [x * scale for x in draws]


def _cdf(p: np.ndarray) -> np.ndarray:
    """The cdf numpy's `Generator.choice` builds from `p`."""
    cdf = np.cumsum(p)
    cdf /= cdf[-1]
    return cdf


def _draw_distinct(rng: np.random.Generator, p: np.ndarray, cdf: list[float],
                   size: int) -> list[int]:
    """`size` distinct indices into `p` in first-drawn order: numpy's
    `Generator.choice(len(p), size, replace=False, p=p)` on the same stream.
    The first batch is searched in `cdf`, `_cdf(p)` as a list. As in numpy,
    the draws that repeat an index are redrawn in one batch, from `p` with
    the indices found so far set to zero, until `size` are found."""
    found = list(dict.fromkeys(
        map(bisect_right, repeat(cdf), rng.random(size).tolist())))
    while len(found) < size:
        x = rng.random(size - len(found))
        p = p.copy()
        p[found] = 0.0
        found += dict.fromkeys(_cdf(p).searchsorted(x, side="right").tolist())
    return found


def _plan_placements(config: SynthConfig, rng: np.random.Generator,
                     kw_tokens: list[str]
                     ) -> tuple[dict[int, dict[int, str]], dict[int, list[str]], int]:
    """Choose (doc, slot) for every true occurrence; count those dropped.
    Also returns each home topic's keyword tokens, in keyword order."""
    num_topics = math.ceil(config.num_docs / config.docs_per_topic)
    planted: dict[int, dict[int, str]] = {}
    topic_keywords: dict[int, list[str]] = {}
    dropped = 0
    for token in kw_tokens:
        home = int(rng.integers(num_topics))
        topic_keywords.setdefault(home, []).append(token)
        first = home * config.docs_per_topic
        home_docs = range(first, min(first + config.docs_per_topic, config.num_docs))
        n_occ = int(rng.integers(*OCCURRENCES_RANGE))
        for _ in range(n_occ):
            if rng.random() < config.topic_affinity:
                doc_idx = int(rng.choice(home_docs))
            else:
                doc_idx = int(rng.integers(config.num_docs))
            used = planted.setdefault(doc_idx, {})
            slot_idx = _free_slot(rng, used, config.slots_per_doc)
            if slot_idx is None:
                dropped += 1  # document saturated
                continue
            used[slot_idx] = token
    return planted, topic_keywords, dropped


def _free_slot(rng: np.random.Generator, used: dict[int, str],
               slots_per_doc: int) -> int | None:
    for _ in range(50):
        slot_idx = int(rng.integers(slots_per_doc))
        if slot_idx not in used:
            return slot_idx
    for slot_idx in range(slots_per_doc):
        if slot_idx not in used:
            return slot_idx
    return None

