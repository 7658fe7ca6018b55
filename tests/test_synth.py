"""Synthetic corpus generation: determinism, validity, burstiness."""

import collections
import hashlib
import tracemalloc

import numpy as np
import pytest

from drstd import synth
from drstd.cli import main
from drstd.corpus_io import (ConfusionNetworkDoc, KeywordEntry, parse_cn_corpus,
                             write_cn_corpus)
from drstd.decision import DecisionPolicy, apply_decisions, yes_only
from drstd.diagnostics import doc_performance, weight_performance_correlation
from drstd.index_search import dedup_overlaps, search_all
from drstd.rescore import build_weight_tables
from drstd.scoring import align, atwv, keyword_rates
from drstd.tables import RefOccurrence
from drstd.synth import (COMPETITOR_RANGE, NOISE_SLOPE_HI, NOISE_SLOPE_LO,
                         SLOT_DURATION_RANGE, TRUE_POSTERIOR_RANGE,
                         SynthConfig, generate)

from oracles import reference_generate


def corpus_duration_seconds(docs) -> float:
    """Total speech duration: the summed time span of every document."""
    return sum(doc.slots[-1].start + doc.slots[-1].duration - doc.slots[0].start
               for doc in docs if doc.slots)


def plant_report(refs: list[RefOccurrence], config: SynthConfig,
                 keywords: list[KeywordEntry]) -> dict[str, float]:
    """Fraction of each keyword's occurrences that landed in one topic.

    Reports, per kw_id, the share of its references falling inside the
    single topic that hosts most of them (its de-facto home).
    """
    per_kw_topic: dict[str, dict[int, int]] = {}
    for ref in refs:
        doc_idx = int(ref.doc_id[1:])
        topic = doc_idx // config.docs_per_topic
        per_kw_topic.setdefault(ref.kw_id, {})
        per_kw_topic[ref.kw_id][topic] = per_kw_topic[ref.kw_id].get(topic, 0) + 1
    out = {}
    for kw in keywords:
        topics = per_kw_topic.get(kw.kw_id, {})
        total = sum(topics.values())
        out[kw.kw_id] = max(topics.values()) / total if total else 0.0
    return out


def min_true_posterior(docs: list[ConfusionNetworkDoc],
                       refs: list[RefOccurrence],
                       keywords: list[KeywordEntry]) -> float:
    """Smallest posterior of any planted keyword arc (for threshold picks)."""
    token_of = {kw.kw_id: kw.tokens[0] for kw in keywords}
    by_doc = {doc.doc_id: doc for doc in docs}
    smallest = 1.0
    for ref in refs:
        for slot in by_doc[ref.doc_id].slots:
            if slot.start == ref.start:
                for token, posterior in slot.arcs:
                    if token == token_of[ref.kw_id]:
                        smallest = min(smallest, posterior)
                break
    return smallest


def drawn(config: SynthConfig):
    """`generate`'s four results, its documents drawn into a list; the
    references are complete once they have been."""
    docs, keywords, refs, dropped = generate(config)
    return list(docs), keywords, refs, dropped


def small_config(**overrides):
    base = dict(num_docs=40, slots_per_doc=30, vocab_size=150, num_keywords=12,
                topic_affinity=0.8, docs_per_topic=4, noise=0.3, seed=2)
    base.update(overrides)
    return SynthConfig(**base)


class TestDeterminism:
    def test_same_seed_byte_identical(self, tmp_path):
        cfg = small_config()
        a = drawn(cfg)
        b = drawn(cfg)
        assert a == b
        pa, pb = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_cn_corpus(pa, a[0])
        write_cn_corpus(pb, b[0])
        assert pa.read_bytes() == pb.read_bytes()

    def test_different_seed_differs(self):
        assert drawn(small_config(seed=2)) != drawn(small_config(seed=3))


class TestValidity:
    @pytest.mark.parametrize("noise", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("affinity", [0.0, 1.0])
    def test_generated_docs_satisfy_corpus_invariants(self, tmp_path, noise,
                                                      affinity):
        docs, keywords, refs, _ = drawn(
            small_config(noise=noise, topic_affinity=affinity))
        path = tmp_path / "corpus.jsonl"
        write_cn_corpus(path, docs)
        assert list(parse_cn_corpus(path)) == docs
        kw_ids = {k.kw_id for k in keywords}
        ref_kw = {r.kw_id for r in refs}
        assert ref_kw <= kw_ids
        # every keyword occurs at least once
        assert ref_kw == kw_ids

    def test_references_point_at_real_slots(self):
        docs, keywords, refs, _ = drawn(small_config())
        token_of = {k.kw_id: k.tokens[0] for k in keywords}
        by_doc = {d.doc_id: d for d in docs}
        for r in refs:
            slot = next(s for s in by_doc[r.doc_id].slots if s.start == r.start)
            assert slot.duration == r.duration
            assert any(t == token_of[r.kw_id] for t, _ in slot.arcs)

    def test_vocab_too_small_rejected(self):
        with pytest.raises(ValueError, match="too small"):
            generate(small_config(vocab_size=12, num_keywords=12))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SynthConfig(num_docs=0, slots_per_doc=10, vocab_size=100,
                        num_keywords=5, topic_affinity=0.5, docs_per_topic=5,
                        noise=0.3, seed=0)
        with pytest.raises(ValueError):
            small_config(noise=1.5)


class TestMatchesNumpyChoice:
    """`generate` draws its weighted tokens from cdfs built once;
    `reference_generate`, the former code, calls numpy's
    `Generator.choice(..., p=...)` for each. Equal output shows the draws
    are numpy's, and fails if a numpy release changes how `choice` draws."""

    @pytest.mark.parametrize("overrides,saturated", [
        (dict(vocab_size=13, num_keywords=12, noise=1.0, topic_affinity=1.0),
         False),
        (dict(vocab_size=COMPETITOR_RANGE[1], num_keywords=1), False),
        (dict(num_docs=4, slots_per_doc=3, noise=0.0, topic_affinity=0.0), True),
        (dict(noise=0.0, topic_affinity=1.0), False),
        (dict(noise=1.0, topic_affinity=0.0), False),
        (dict(num_docs=7, docs_per_topic=5, topic_affinity=1.0), False),
    ], ids=["vocab-just-above-keywords", "smallest-vocab", "saturated",
            "noise0-affinity1", "noise1-affinity0", "partial-last-topic"])
    def test_equals_reference_generate(self, monkeypatch, overrides, saturated):
        build_cdf, cdf_builds = synth._cdf, []

        def counting_cdf(p):
            cdf_builds.append(len(p))
            return build_cdf(p)

        monkeypatch.setattr(synth, "_cdf", counting_cdf)
        cfg = small_config(**overrides)
        got = drawn(cfg)
        assert got == reference_generate(cfg)
        # two cdfs are built up front; each further one is a redraw after
        # a repeated token, numpy's retry path
        assert len(cdf_builds) > 2
        assert (got[3] > 0) == saturated  # dropped occurrences


class TestDrawsMatchNumpy:
    """`generate` draws its uniforms and flat Dirichlet shares without
    numpy's wrappers. Each draw must equal numpy's bit for bit and leave
    the stream where numpy leaves it; this fails on a numpy release that
    changes either draw, whatever `generate` does."""

    SEEDS = range(50)

    @staticmethod
    def twin_streams(seed):
        return np.random.default_rng(seed), np.random.default_rng(seed)

    @pytest.mark.parametrize("n", range(*COMPETITOR_RANGE))
    def test_flat_dirichlet(self, n):
        for seed in self.SEEDS:
            ours, numpy_rng = self.twin_streams(seed)
            assert (synth._flat_dirichlet(ours, n)
                    == numpy_rng.dirichlet(np.ones(n)).tolist()), seed
            assert ours.random() == numpy_rng.random(), seed

    @pytest.mark.parametrize("low,high", [
        SLOT_DURATION_RANGE,
        *((TRUE_POSTERIOR_RANGE[0] - NOISE_SLOPE_LO * noise,
           TRUE_POSTERIOR_RANGE[1] - NOISE_SLOPE_HI * noise)
          for noise in (0.0, 0.5, 1.0)),
    ], ids=["duration", "posterior-noise0", "posterior-noise0.5",
            "posterior-noise1"])
    def test_uniform(self, low, high):
        for seed in self.SEEDS:
            ours, numpy_rng = self.twin_streams(seed)
            assert (synth._uniform(ours, low, high)
                    == float(numpy_rng.uniform(low, high))), seed
            assert ours.random() == numpy_rng.random(), seed


class TestStreaming:
    def test_references_complete_once_documents_drawn(self):
        docs, _, refs, _ = generate(small_config())
        assert refs == []  # no document drawn yet
        expected = drawn(small_config())
        assert (list(docs), refs) == (expected[0], expected[2])

    # Peak traced memory at 400 documents stays within this factor of the
    # peak at 100; a generator holding its corpus would grow about 4x.
    PEAK_GROWTH_BOUND = 1.5

    def assert_peak_flat(self, consume):
        """`consume(docs)` of a drawn corpus holds as much memory at 400
        documents as at 100, within PEAK_GROWTH_BOUND."""
        # 30 slots per document: CPython keeps up to 2000 freed tuples of
        # each size up to 20 for reuse, which tracemalloc counts as held.
        def config(num_docs):
            return small_config(num_docs=num_docs, slots_per_doc=30)

        def peak(num_docs):
            tracemalloc.start()
            try:
                docs, *_ = generate(config(num_docs))
                consume(docs)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        consume(generate(config(1))[0])  # first-use imports
        small, large = peak(100), peak(400)
        assert large <= self.PEAK_GROWTH_BOUND * small, (small, large)

    def test_memory_flat_in_document_count(self):
        self.assert_peak_flat(lambda docs: collections.deque(docs, maxlen=0))

    def test_corpus_writer_memory_flat_in_document_count(self, tmp_path):
        # A writer that joined its lines before writing would grow about 4x.
        self.assert_peak_flat(
            lambda docs: write_cn_corpus(tmp_path / "corpus.jsonl", docs))


# sha256 of the acceptance corpus as `Generator.choice` drew it. A change
# to the random stream that moves `generate` and `reference_generate`
# alike is caught here.
ACCEPTANCE_SHA256 = {
    "corpus.jsonl":
        "e9923d89abb541fe5111fb31a8faf2dfbf4dc30b00bd9fb744aeeccec2a0201e",
    "keywords.tsv":
        "7495c79b0a7ec1d0a3b28db78b0b37c2b7f73d6033a963644969a89ae4844ba5",
    "refs.tsv":
        "46fdff9612306ae294ba4c28e1140c83ab2790c94fe4d042118864a29a1b6e32",
}


def test_acceptance_corpus_bytes_pinned(acceptance_synth):
    assert {name: hashlib.sha256((acceptance_synth.out / name).read_bytes())
            .hexdigest() for name in ACCEPTANCE_SHA256} == ACCEPTANCE_SHA256


# The vocabulary, affinity and noise of perfbench's `ingest` corpus, on 30
# of its 300 documents: fillers drawn from a 2,000-token cdf, where the
# acceptance corpus has 500.
INGEST_SCALE_ARGS = ["--docs", "30", "--slots", "100", "--keywords", "50",
                     "--vocab", "2000", "--topic-affinity", "0.9",
                     "--noise", "0.5", "--seed", "7"]
INGEST_SCALE_SHA256 = {
    "corpus.jsonl":
        "c245fd888c222dddcca2d4d701eb634d151250920b83ffef67e53d6d9a403f1c",
    "keywords.tsv":
        "8ab6aa303d08cdd859b60e94cd27928d6c6c432f5eefbc3ec29844836fbf5716",
    "refs.tsv":
        "b5172123a8c2161a029774c8f8524500f67c3e2625f691e9ee72b4ead964898e",
}


def test_ingest_scale_corpus_bytes_pinned(tmp_path):
    assert main(["--quiet", "synth", *INGEST_SCALE_ARGS,
                 "--out", str(tmp_path)]) == 0
    assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in INGEST_SCALE_SHA256} == INGEST_SCALE_SHA256


class TestNoiseZero:
    def test_perfect_detection_below_min_true_posterior(self):
        cfg = small_config(noise=0.0, seed=11)
        docs, keywords, refs, _ = drawn(cfg)
        floor = min_true_posterior(docs, refs, keywords)
        assert floor >= 0.78 - 1e-12
        cands = dedup_overlaps(search_all(docs, keywords))
        policy = DecisionPolicy(mode="global", global_threshold=floor - 0.05,
                                trial_seconds=corpus_duration_seconds(docs))
        accepted = yes_only(apply_decisions(cands, policy))
        rates = keyword_rates(align(accepted, refs, 0.5),
                              policy.trial_seconds)
        assert atwv(rates, policy.beta) == 1.0

    def test_true_token_always_on_top(self):
        docs, keywords, refs, _ = drawn(small_config(noise=0.0, seed=4))
        token_of = {k.kw_id: k.tokens[0] for k in keywords}
        by_doc = {d.doc_id: d for d in docs}
        for r in refs:
            slot = next(s for s in by_doc[r.doc_id].slots if s.start == r.start)
            true_post = max(p for t, p in slot.arcs if t == token_of[r.kw_id])
            assert true_post >= max(p for _t, p in slot.arcs)


class TestBurstiness:
    def test_home_topic_concentration(self):
        # seed chosen so the smallest per-keyword share clears 70%
        cfg = SynthConfig(num_docs=200, slots_per_doc=100, vocab_size=500,
                          num_keywords=50, topic_affinity=0.9,
                          docs_per_topic=5, noise=0.5, seed=3)
        docs, keywords, refs, _ = drawn(cfg)
        shares = plant_report(refs, cfg, keywords)
        assert min(shares.values()) >= 0.7

    def test_affinity_raises_weight_performance_correlation(self):
        rhos = []
        for affinity in (0.025, 0.5, 0.95):
            cfg = SynthConfig(num_docs=150, slots_per_doc=80, vocab_size=500,
                              num_keywords=40, topic_affinity=affinity,
                              docs_per_topic=5, noise=0.5, seed=1)
            docs, keywords, refs, _ = drawn(cfg)
            cands = dedup_overlaps(search_all(docs, keywords))
            policy = DecisionPolicy(
                mode="kst", trial_seconds=corpus_duration_seconds(docs))
            accepted = yes_only(apply_decisions(cands, policy))
            doc_rows = doc_performance(accepted, build_weight_tables(cands),
                                       align(accepted, refs, 0.5))
            rho_p, _rho_r = weight_performance_correlation(doc_rows)
            rhos.append(rho_p)
        assert rhos[0] < rhos[1] < rhos[2]
