"""Document ranking weights and confidence re-estimation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from drstd.rescore import (build_weight_tables, reestimate_confidence,
                           rescore_candidates, write_weight_tables)
from drstd.tables import Candidate

from conftest import random_candidates
from oracles import straightline_rescore


def cand(kw, doc, score, start=0.0):
    return Candidate(kw_id=kw, doc_id=doc, start=start, duration=0.4,
                     score=score)


def parse_weight_tables(path):
    """Read tables written by write_weight_tables, recomputing the weights
    from the summed document scores."""
    sums = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            kw_id, doc_id, doc_score, _weight = line.split("\t")
            sums.setdefault(kw_id, {})[doc_id] = float(doc_score)
    return {kw_id: {doc_id: (s, s / max(docs.values()))
                    for doc_id, s in docs.items()}
            for kw_id, docs in sums.items()}


def doc_scores(table):
    return {doc_id: score for doc_id, (score, _weight) in table.items()}


def weights(table):
    return {doc_id: weight for doc_id, (_score, weight) in table.items()}


class TestBuildWeightTables:
    def test_two_docs(self):
        cands = [cand("K", "A", 0.5), cand("K", "A", 0.3, 1.0),
                 cand("K", "B", 0.4)]
        assert doc_scores(build_weight_tables(cands)["K"]) == \
            {"A": 0.8, "B": 0.4}

    def test_single_candidate(self):
        assert build_weight_tables([cand("K", "d1", 0.9)]) == \
            {"K": {"d1": (0.9, 1.0)}}

    def test_keywords_kept_apart(self):
        tables = build_weight_tables([cand("K1", "A", 0.5), cand("K2", "A", 0.2),
                                      cand("K2", "B", 0.4)])
        assert tables == {"K1": {"A": (0.5, 1.0)},
                          "K2": {"A": (0.2, 0.5), "B": (0.4, 1.0)}}

    def test_matches_independent_resum(self):
        rng = np.random.default_rng(0)
        cands = [cand("K", f"d{int(rng.integers(10))}", float(rng.uniform(0.01, 1)),
                      start=float(i)) for i in range(200)]
        got = doc_scores(build_weight_tables(cands)["K"])
        expected = {}
        for c in cands:
            expected[c.doc_id] = expected.get(c.doc_id, 0.0) + c.score
        assert got == expected

    def test_relative_to_max(self):
        table = build_weight_tables([cand("K", "A", 0.8), cand("K", "B", 0.4)])["K"]
        assert table == {"A": (0.8, 1.0), "B": (0.4, 0.5)}

    def test_three_docs(self):
        table = build_weight_tables([cand("K", "a", 1.0), cand("K", "b", 0.5),
                                     cand("K", "c", 0.25)])["K"]
        assert weights(table) == {"a": 1.0, "b": 0.5, "c": 0.25}

    def test_empty_input_empty_tables(self):
        assert build_weight_tables([]) == {}

    def test_zero_score_adds_no_mass(self):
        assert build_weight_tables([cand("K", "A", 0.5), cand("K", "A", 0.0, 1.0),
                                    cand("K", "B", 0.0)]) == \
            {"K": {"A": (0.5, 1.0), "B": (0.0, 0.0)}}

    def test_keyword_without_mass_weighs_zero(self):
        tables = build_weight_tables([cand("K1", "A", 0.5), cand("K2", "A", 0.0),
                                      cand("K2", "B", 0.0, 1.0)])
        assert tables == {"K1": {"A": (0.5, 1.0)},
                          "K2": {"A": (0.0, 0.0), "B": (0.0, 0.0)}}

    def test_negative_score_rejected(self):
        with pytest.raises(ValueError, match="'K'/'B'@0.0 has negative score -0.5$"):
            build_weight_tables([cand("K", "A", 0.5), cand("K", "B", -0.5)])

    def test_max_weight_exactly_one(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            cands = [cand("K", f"d{i}", float(rng.uniform(0.001, 1)))
                     for i in range(int(rng.integers(1, 12)))]
            assert max(weights(build_weight_tables(cands)["K"]).values()) == 1.0


class TestReestimateConfidence:
    def test_interpolation(self):
        assert reestimate_confidence(0.5, 1.0, 0.1) == \
            pytest.approx(0.55, abs=1e-15)

    def test_alpha_zero_identity(self):
        assert reestimate_confidence(0.5, 1.0, 0.0) == 0.5

    def test_alpha_one_is_the_weight(self):
        assert reestimate_confidence(0.5, 0.25, 1.0) == 0.25

    def test_moderate_coefficient(self):
        # alpha 0.15 with weight 0.5 on a 0.8 score
        assert reestimate_confidence(0.8, 0.5, 0.15) == \
            pytest.approx(0.755, abs=1e-12)

    def test_returns_a_float(self):
        assert type(reestimate_confidence(np.float64(0.5), 1.0, 0.1)) is float


class TestRescoreCandidates:
    def test_alpha_zero_bit_identical(self):
        cands = random_candidates(np.random.default_rng(2), 300)
        rescored, _ = rescore_candidates(cands, 0.0)
        assert rescored == cands

    def test_alpha_one_document_constant(self):
        cands = random_candidates(np.random.default_rng(3), 300)
        rescored, tables = rescore_candidates(cands, 1.0)
        for c in rescored:
            assert c.score == tables[c.kw_id][c.doc_id][1]
        # every candidate in a keyword's top document scores exactly 1
        for c in rescored:
            top = max(doc_scores(tables[c.kw_id]).values())
            if tables[c.kw_id][c.doc_id][0] == top:
                assert c.score == 1.0

    def test_order_and_length_preserved(self):
        cands = random_candidates(np.random.default_rng(4), 100)
        rescored, _ = rescore_candidates(cands, 0.4)
        assert len(rescored) == len(cands)
        for before, after in zip(cands, rescored):
            assert (before.kw_id, before.doc_id, before.start) == \
                (after.kw_id, after.doc_id, after.start)

    def test_only_score_changes(self):
        src = Candidate("K", "d1", 3.25, 0.5, 0.4, decision="YES")
        (out,), _ = rescore_candidates([src], 0.3)
        assert (out.kw_id, out.doc_id, out.start, out.duration, out.decision) \
            == ("K", "d1", 3.25, 0.5, "YES")
        assert out.score == reestimate_confidence(0.4, 1.0, 0.3)

    def test_matches_straightline_oracle(self):
        rng = np.random.default_rng(5)
        cands = random_candidates(rng, 1000, n_kws=40, n_docs=30)
        # zero scores: every one of K000's, and about a tenth of the rest
        cands = [c._replace(score=0.0) if c.kw_id == "K000" or rng.random() < 0.1
                 else c for c in cands]
        rescored, _ = rescore_candidates(cands, 0.3)
        assert [c.score for c in rescored] == straightline_rescore(cands, 0.3)

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
    def test_keyword_without_mass_stays_zero(self, alpha):
        cands = [cand("K", "d1", 0.0), cand("K", "d2", 0.0), cand("K", "d2", 0.0, 1.0)]
        rescored, tables = rescore_candidates(cands, alpha)
        assert weights(tables["K"]) == {"d1": 0.0, "d2": 0.0}
        assert [c.score for c in rescored] == [0.0, 0.0, 0.0]
        assert [c.score for c in rescored] == straightline_rescore(cands, alpha)

    def test_weight_tables_cover_exactly_the_candidate_docs(self):
        cands = random_candidates(np.random.default_rng(7), 80)
        _, tables = rescore_candidates(cands, 0.5)
        for kw_id, table in tables.items():
            docs_with_cands = {c.doc_id for c in cands if c.kw_id == kw_id}
            assert set(table) == docs_with_cands

    @pytest.mark.parametrize("alpha", [-0.01, 1.01, 2.0, math.nan])
    def test_alpha_out_of_range(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            rescore_candidates([cand("K", "d1", 0.5)], alpha)


@given(st.floats(0, 1, allow_nan=False), st.floats(0.001, 1, allow_nan=False),
       st.floats(0.000001, 1, allow_nan=False))
@settings(max_examples=300, deadline=None)
def test_range_preservation_property(alpha, weight, score):
    assert 0.0 <= reestimate_confidence(score, weight, alpha) <= 1.0


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
    rescored, _ = rescore_candidates(cands, alpha)
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
    scaled = [cand("K", c.doc_id, c.score * scale, start=c.start) for c in cands]
    base = weights(build_weight_tables(cands)["K"])
    got = weights(build_weight_tables(scaled)["K"])
    assert got.keys() == base.keys()
    for doc_id in base:
        assert got[doc_id] == pytest.approx(base[doc_id], abs=1e-9)


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
        before, _ = rescore_candidates(cands, 0.35)
        after, _ = rescore_candidates(bumped, 0.35)
        assert after[idx].score >= before[idx].score - 1e-15


def test_weight_table_tsv_round_trip(tmp_path):
    cands = random_candidates(np.random.default_rng(9), 60)
    tables = build_weight_tables(cands)
    path = tmp_path / "weights.tsv"
    write_weight_tables(path, tables)
    assert parse_weight_tables(path) == tables
