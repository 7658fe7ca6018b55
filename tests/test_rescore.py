"""Document ranking weights and confidence re-estimation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drstd.corpus_io import Candidate
from drstd.rescore import (DocWeightTable, RescoreConfig,
                           build_weight_tables, document_ranking_weights,
                           parse_weight_tables, reestimate_confidence,
                           rescore_candidates, sum_document_scores,
                           write_weight_tables)

from conftest import random_candidates
from oracles import straightline_rescore


def cand(kw, doc, score, start=0.0):
    return Candidate(kw_id=kw, doc_id=doc, start=start, duration=0.4,
                     score=score)


class TestSumDocumentScores:
    def test_two_docs(self):
        cands = [cand("K", "A", 0.5), cand("K", "A", 0.3, 1.0),
                 cand("K", "B", 0.4)]
        assert sum_document_scores(cands) == {"A": 0.8, "B": 0.4}

    def test_single_candidate(self):
        assert sum_document_scores([cand("K", "d1", 0.9)]) == {"d1": 0.9}

    def test_mixed_keywords_rejected(self):
        with pytest.raises(ValueError, match="mix"):
            sum_document_scores([cand("K1", "A", 0.5), cand("K2", "A", 0.5)])

    def test_matches_independent_resum(self):
        rng = np.random.default_rng(0)
        cands = [cand("K", f"d{int(rng.integers(10))}", float(rng.uniform(0.01, 1)),
                      start=float(i)) for i in range(200)]
        got = sum_document_scores(cands)
        expected = {}
        for c in cands:
            expected[c.doc_id] = expected.get(c.doc_id, 0.0) + c.score
        assert set(got) == set(expected)
        for doc_id in got:
            assert abs(got[doc_id] - expected[doc_id]) <= 1e-12


class TestDocumentRankingWeights:
    def test_relative_to_max(self):
        table = document_ranking_weights({"A": 0.8, "B": 0.4})
        assert table.max_score == 0.8
        assert table.entries["A"] == (0.8, 1.0)
        assert table.entries["B"] == (0.4, 0.5)

    def test_single_doc_gets_weight_one(self):
        table = document_ranking_weights({"d1": 0.9})
        assert table.entries["d1"][1] == 1.0

    def test_three_docs(self):
        table = document_ranking_weights({"a": 2.0, "b": 1.0, "c": 0.5})
        assert {d: w for d, (_s, w) in table.entries.items()} == {
            "a": 1.0, "b": 0.5, "c": 0.25}

    def test_empty_input_empty_table(self):
        table = document_ranking_weights({})
        assert table.entries == {}

    def test_non_positive_score_rejected(self):
        with pytest.raises(ValueError, match="> 0"):
            document_ranking_weights({"A": 0.0})

    def test_max_weight_exactly_one(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            scores = {f"d{i}": float(rng.uniform(0.001, 5))
                      for i in range(int(rng.integers(1, 12)))}
            table = document_ranking_weights(scores)
            assert max(w for _s, w in table.entries.values()) == 1.0


class TestReestimateConfidence:
    def test_interpolation(self):
        table = DocWeightTable(kw_id="K", entries={"d1": (1.0, 1.0)},
                               max_score=1.0)
        out = reestimate_confidence(cand("K", "d1", 0.5),
                                    table, RescoreConfig(alpha=0.1))
        assert out.score == pytest.approx(0.55, abs=1e-15)

    def test_alpha_zero_identity(self):
        table = DocWeightTable(kw_id="K", entries={"d1": (1.0, 1.0)},
                               max_score=1.0)
        out = reestimate_confidence(cand("K", "d1", 0.5),
                                    table, RescoreConfig(alpha=0.0))
        assert out.score == 0.5

    def test_moderate_coefficient(self):
        # alpha 0.15 with weight 0.5 on a 0.8 score
        table = DocWeightTable(kw_id="K", entries={"d1": (0.5, 0.5)},
                               max_score=1.0)
        out = reestimate_confidence(cand("K", "d1", 0.8),
                                    table, RescoreConfig(alpha=0.15))
        assert out.score == pytest.approx(0.755, abs=1e-12)

    def test_missing_doc_rejected(self):
        table = DocWeightTable(kw_id="K", entries={"d1": (1.0, 1.0)},
                               max_score=1.0)
        with pytest.raises(ValueError, match="missing"):
            reestimate_confidence(cand("K", "other", 0.5), table,
                                  RescoreConfig(alpha=0.1))

    def test_only_score_changes(self):
        table = DocWeightTable(kw_id="K", entries={"d1": (1.0, 1.0)},
                               max_score=1.0)
        src = Candidate("K", "d1", 3.25, 0.5, 0.4, decision="YES")
        out = reestimate_confidence(src, table, RescoreConfig(alpha=0.3))
        assert (out.kw_id, out.doc_id, out.start, out.duration, out.decision) \
            == ("K", "d1", 3.25, 0.5, "YES")


class TestRescoreCandidates:
    def test_alpha_zero_bit_identical(self):
        cands = random_candidates(np.random.default_rng(2), 300)
        rescored, _ = rescore_candidates(cands, RescoreConfig(alpha=0.0))
        assert rescored == cands

    def test_alpha_one_document_constant(self):
        cands = random_candidates(np.random.default_rng(3), 300)
        rescored, tables = rescore_candidates(cands, RescoreConfig(alpha=1.0))
        for c in rescored:
            assert c.score == tables[c.kw_id].entries[c.doc_id][1]
        # every candidate in a keyword's top document scores exactly 1
        for c in rescored:
            if tables[c.kw_id].entries[c.doc_id][0] == tables[c.kw_id].max_score:
                assert c.score == 1.0

    def test_order_and_length_preserved(self):
        cands = random_candidates(np.random.default_rng(4), 100)
        rescored, _ = rescore_candidates(cands, RescoreConfig(alpha=0.4))
        assert len(rescored) == len(cands)
        for before, after in zip(cands, rescored):
            assert (before.kw_id, before.doc_id, before.start) == \
                (after.kw_id, after.doc_id, after.start)

    def test_matches_straightline_oracle(self):
        rng = np.random.default_rng(5)
        cands = random_candidates(rng, 1000, n_kws=40, n_docs=30)
        rescored, _ = rescore_candidates(cands, RescoreConfig(alpha=0.3))
        expected = straightline_rescore(cands, 0.3)
        for got, want in zip(rescored, expected):
            assert abs(got.score - want) <= 1e-12

    def test_zero_score_rejected(self):
        with pytest.raises(ValueError, match="non-positive"):
            rescore_candidates([cand("K", "d1", 0.0)], RescoreConfig(alpha=0.1))

    def test_weight_tables_cover_exactly_the_candidate_docs(self):
        cands = random_candidates(np.random.default_rng(7), 80)
        _, tables = rescore_candidates(cands, RescoreConfig(alpha=0.5))
        for kw_id, table in tables.items():
            docs_with_cands = {c.doc_id for c in cands if c.kw_id == kw_id}
            assert set(table.entries) == docs_with_cands


class TestRescoreConfig:
    @pytest.mark.parametrize("alpha", [-0.01, 1.01, 2.0])
    def test_alpha_out_of_range(self, alpha):
        with pytest.raises(ValueError):
            RescoreConfig(alpha=alpha)


@given(st.floats(0, 1, allow_nan=False), st.floats(0.001, 1, allow_nan=False),
       st.floats(0.000001, 1, allow_nan=False))
@settings(max_examples=300, deadline=None)
def test_range_preservation_property(alpha, weight, score):
    table = DocWeightTable(kw_id="K", entries={"d": (weight, weight)},
                           max_score=1.0)
    out = reestimate_confidence(cand("K", "d", score), table,
                                RescoreConfig(alpha=alpha))
    assert 0.0 <= out.score <= 1.0


@given(st.lists(st.floats(0.001, 1, allow_nan=False), min_size=2, max_size=12),
       st.floats(0, 0.999, allow_nan=False))
@settings(max_examples=200, deadline=None)
def test_within_document_order_preserved(scores, alpha):
    """For alpha < 1, same-document candidates keep their score order.

    Scores are quantized to the 6-decimal serialization resolution;
    below that, doubles one ulp apart can legitimately collapse to equal
    rescored values.
    """
    scores = [round(s, 6) or 0.000001 for s in scores]
    cands = [cand("K", "d1", s, start=float(i)) for i, s in enumerate(scores)]
    rescored, _ = rescore_candidates(cands, RescoreConfig(alpha=alpha))
    for i in range(len(scores)):
        for j in range(len(scores)):
            before = np.sign(cands[i].score - cands[j].score)
            after = np.sign(rescored[i].score - rescored[j].score)
            assert before == after


@given(st.lists(st.tuples(st.integers(0, 4), st.floats(0.001, 1, allow_nan=False)),
                min_size=1, max_size=20),
       st.floats(0.001, 1000, allow_nan=False))
@settings(max_examples=200, deadline=None)
def test_weight_scale_invariance(rows, scale):
    """Scaling every score of a keyword by c > 0 leaves weights unchanged."""
    cands = [cand("K", f"d{d}", s, start=float(i))
             for i, (d, s) in enumerate(rows)]
    scaled_scores = {}
    for c in cands:
        scaled_scores[c.doc_id] = scaled_scores.get(c.doc_id, 0.0) \
            + c.score * scale
    base = document_ranking_weights(sum_document_scores(cands))
    scaled = document_ranking_weights(scaled_scores)
    for doc_id in base.entries:
        assert scaled.entries[doc_id][1] == \
            pytest.approx(base.entries[doc_id][1], abs=1e-9)


def test_own_score_monotonicity():
    """Raising one candidate's score never lowers its rescored score."""
    rng = np.random.default_rng(8)
    for _ in range(100):
        cands = random_candidates(rng, 20, n_kws=3, n_docs=4)
        idx = int(rng.integers(len(cands)))
        bumped = list(cands)
        c = bumped[idx]
        new_score = min(1.0, c.score + float(rng.uniform(0.01, 0.3)))
        bumped[idx] = Candidate(c.kw_id, c.doc_id, c.start, c.duration,
                                new_score)
        before, _ = rescore_candidates(cands, RescoreConfig(alpha=0.35))
        after, _ = rescore_candidates(bumped, RescoreConfig(alpha=0.35))
        assert after[idx].score >= before[idx].score - 1e-15


def test_weight_table_tsv_round_trip(tmp_path):
    cands = random_candidates(np.random.default_rng(9), 60)
    tables = build_weight_tables(cands)
    path = tmp_path / "weights.tsv"
    write_weight_tables(path, tables)
    back = parse_weight_tables(path)
    assert set(back) == set(tables)
    for kw_id in tables:
        assert back[kw_id].entries == tables[kw_id].entries
