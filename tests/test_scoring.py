"""Alignment, term-weighted values, rank diagnostics and sweeps."""

import csv
import io
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from drstd import diagnostics, scoring
from drstd.cli import main
from drstd.decision import DecisionPolicy
from drstd.diagnostics import (alpha_sweep, doc_performance, doc_rank_curves,
                               spearman, weight_performance_correlation)
from drstd.rescore import build_weight_tables
from drstd.scoring import (align, atwv, build_report, keyword_rates, mtwv,
                           score_detections)
from drstd.tables import Candidate, RefOccurrence, parse_occurrence_table

from conftest import random_candidates, random_references
from oracles import (brute_force_atwv, exhaustive_mtwv, numpy_spearman,
                     optimal_match_count, reference_alpha_sweep,
                     reference_nearest_first_alignment)


def hyp(kw, doc, start, dur=0.4, score=0.9, decision="YES"):
    return Candidate(kw_id=kw, doc_id=doc, start=start, duration=dur,
                     score=score, decision=decision)


def ref(kw, doc, start, dur=0.4):
    return RefOccurrence(kw_id=kw, doc_id=doc, start=start, duration=dur)


class TestAlign:
    def test_midpoint_within_delta_is_correct(self):
        result = align([hyp("K", "d", 3.22)], [ref("K", "d", 3.20)], 0.5)
        assert result.matched == [0]
        counts = result.keyword_counts["K"]
        assert (counts.n_correct, counts.n_true) == (1, 1)

    def test_two_hyps_near_one_ref_nearer_wins(self):
        hyps = [hyp("K", "d", 3.0), hyp("K", "d", 3.38)]
        refs = [ref("K", "d", 3.40)]
        result = align(hyps, refs, 0.5)
        assert result.matched == [1]
        # brute-force optimal matching agrees on the match count
        optimal = optimal_match_count(
            [h.start + h.duration / 2 for h in hyps],
            [r.start + r.duration / 2 for r in refs],
            0.5)
        assert result.keyword_counts["K"].n_correct == optimal

    def test_no_hypotheses_all_missed(self):
        refs = [ref("K", "d", 1.0), ref("K", "d", 5.0)]
        result = align([], refs, 0.5)
        counts = result.keyword_counts["K"]
        assert (counts.n_correct, counts.n_true) == (0, 2)

    def test_beyond_delta_is_false_alarm(self):
        result = align([hyp("K", "d", 4.0)], [ref("K", "d", 1.0)], 0.5)
        assert result.matched == []

    def test_keyword_and_doc_must_match(self):
        result = align([hyp("K1", "d", 1.0), hyp("K2", "other", 1.0)],
                       [ref("K1", "other", 1.0), ref("K2", "d", 1.0)], 0.5)
        assert result.matched == []

    def test_each_reference_consumed_once(self):
        hyps = [hyp("K", "d", 1.0), hyp("K", "d", 1.02), hyp("K", "d", 1.04)]
        result = align(hyps, [ref("K", "d", 1.01)], 0.5)
        assert len(result.matched) == 1

    def test_matched_positions_increase_across_groups(self):
        # the d2 group comes first in input order, yet positions ascend
        hyps = [hyp("K", "d2", 1.0), hyp("K", "d1", 1.0), hyp("K", "d1", 9.0),
                hyp("K", "d2", 5.0)]
        refs = [ref("K", "d1", 1.0), ref("K", "d2", 5.0), ref("K", "d2", 1.0)]
        assert align(hyps, refs, 0.5).matched == [0, 1, 3]

    def test_counts_balance(self):
        rng = np.random.default_rng(0)
        hyps = [c for c in random_candidates(rng, 120, n_kws=6, n_docs=6)]
        refs = random_references(rng, 60, n_kws=6, n_docs=6)
        result = align(hyps, refs, 0.5)
        total_correct = sum(c.n_correct for c in result.keyword_counts.values())
        total_fa = sum(c.n_fa for c in result.keyword_counts.values())
        assert total_correct + total_fa == len(hyps)
        assert sum(c.n_true for c in result.keyword_counts.values()) == len(refs)
        for counts in result.keyword_counts.values():
            assert counts.n_correct <= counts.n_true

    def test_delta_must_be_positive(self):
        with pytest.raises(ValueError, match="delta"):
            align([], [], 0.0)


# Quarter-second times, exact in binary, so that distances tie exactly,
# also with delta itself; a hypothesis may be zero-length.
def _occurrences(durations):
    return st.lists(st.tuples(st.sampled_from(["K0", "K1"]),
                              st.sampled_from(["d0", "d1"]),
                              st.sampled_from([0.0, 0.25, 0.5, 1.0, 1.5]),
                              st.sampled_from(durations)), max_size=10)


@given(hyp_rows=_occurrences([0.0, 0.25, 0.5, 1.0]),
       ref_rows=_occurrences([0.25, 0.5, 1.0]),
       delta=st.sampled_from([0.25, 0.5, 1.0]))
# equal distances, at delta: the earlier hypothesis start wins
@example(hyp_rows=[("K0", "d0", 1.0, 0.5), ("K0", "d0", 0.0, 0.5)],
         ref_rows=[("K0", "d0", 0.5, 0.5)], delta=0.5)
# equal distances and starts: the shorter hypothesis wins
@example(hyp_rows=[("K0", "d0", 0.0, 1.0), ("K0", "d0", 0.0, 0.5)],
         ref_rows=[("K0", "d0", 0.25, 0.25)], delta=0.25)
# equal distances from one hypothesis: the earlier reference start wins,
# which leaves the later one to the second hypothesis
@example(hyp_rows=[("K0", "d0", 0.5, 0.5), ("K0", "d0", 1.5, 0.5)],
         ref_rows=[("K0", "d0", 1.0, 0.25), ("K0", "d0", 0.25, 0.25)], delta=1.0)
@settings(max_examples=300, deadline=None)
def test_align_matches_nearest_first_oracle(hyp_rows, ref_rows, delta):
    hyps = [hyp(*row) for row in hyp_rows]
    refs = [ref(*row) for row in ref_rows]
    result = align(hyps, refs, delta)
    matched, counts = reference_nearest_first_alignment(hyps, refs, delta)
    assert result.matched == matched
    assert {kw_id: (c.n_true, c.n_correct, c.n_fa)
            for kw_id, c in result.keyword_counts.items()} == counts


class TestKeywordRates:
    def test_formula(self):
        result = align(
            [hyp("K", "d", 1.0), hyp("K", "d", 3.0), hyp("K", "d", 5.0),
             hyp("K", "d", 40.0), hyp("K", "d", 50.0)],
            [ref("K", "d", 1.0), ref("K", "d", 3.0), ref("K", "d", 5.0),
             ref("K", "d", 20.0)], 0.5)
        rates = keyword_rates(result, 3600.0)
        p_miss, p_fa = rates["K"]
        assert p_miss == pytest.approx(0.25, abs=1e-12)
        assert p_fa == pytest.approx(2 / 3596, abs=1e-15)

    def test_perfect_detection(self):
        result = align([hyp("K", "d", 1.0)], [ref("K", "d", 1.0)], 0.5)
        assert keyword_rates(result, 3600.0)["K"] == (0.0, 0.0)

    def test_empty_hypothesis_set(self):
        result = align([], [ref("K", "d", 1.0)], 0.5)
        assert keyword_rates(result, 3600.0)["K"] == (1.0, 0.0)

    def test_zero_reference_keywords_skipped(self):
        result = align([hyp("NOREF", "d", 1.0)], [ref("K", "d", 1.0)], 0.5)
        assert "NOREF" not in keyword_rates(result, 3600.0)

    def test_trial_too_short_rejected(self):
        result = align([], [ref("K", "d", float(i)) for i in range(5)], 0.4)
        with pytest.raises(ValueError, match="trial_seconds"):
            keyword_rates(result, 4.0)


class TestAtwv:
    def test_perfect_is_one(self):
        assert atwv({"a": (0.0, 0.0), "b": (0.0, 0.0)}, 999.9) == 1.0

    def test_empty_output_is_zero(self):
        assert atwv({"a": (1.0, 0.0), "b": (1.0, 0.0)}, 999.9) == 0.0

    def test_single_keyword_with_false_alarm(self):
        value = atwv({"a": (1.0, 1.0 / 3599.0)}, 999.9)
        assert value == pytest.approx(1 - (1 + 999.9 / 3599), abs=1e-10)
        assert value == pytest.approx(-0.277827, abs=5e-7)

    def test_no_scoreable_keywords_rejected(self):
        with pytest.raises(ValueError, match="scoreable"):
            atwv({}, 999.9)

    def test_total_is_left_to_right(self):
        """The keyword total is summed in order on every Python, where
        from 3.12 on the builtin sum() would round it to 0.6."""
        value = atwv({"a": (0.1, 0.0), "b": (0.2, 0.0), "c": (0.3, 0.0)}, 999.9)
        assert value == 1.0 - ((0.1 + 0.2) + 0.3) / 3
        assert value != 1.0 - math.fsum([0.1, 0.2, 0.3]) / 3

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_brute_force_on_random_instances(self, seed):
        rng = np.random.default_rng(seed)
        n_kws = int(rng.integers(1, 11))
        hyps = random_candidates(rng, int(rng.integers(0, 120)),
                                 n_kws=n_kws, n_docs=int(rng.integers(1, 21)))
        refs = random_references(rng, int(rng.integers(1, 60)), n_kws=n_kws)
        alignment = align(hyps, refs, 0.5)
        rates = keyword_rates(alignment, 3600.0)
        if not rates:
            return
        got = atwv(rates, 999.9)
        counts = [(c.n_true, c.n_correct, c.n_fa)
                  for c in alignment.keyword_counts.values()]
        assert got == pytest.approx(
            brute_force_atwv(counts, 3600.0, 999.9), abs=1e-10)

    def test_decomposition_identity(self):
        rng = np.random.default_rng(11)
        hyps = random_candidates(rng, 200, n_kws=8, n_docs=10)
        refs = random_references(rng, 80, n_kws=8, n_docs=10)
        report = build_report(align(hyps, refs, 0.5).keyword_counts, 3600.0,
                              999.9)
        aggregate = report["aggregate"]
        assert aggregate["atwv"] == pytest.approx(
            1.0 - aggregate["mean_p_miss"] - 999.9 * aggregate["mean_p_fa"],
            abs=1e-12)

    def test_score_detections_accepts_only_yes_rows(self):
        hyps = [hyp("K", "d", 1.0, decision=""), hyp("K", "d", 9.0, decision="NO"),
                hyp("K", "d", 20.0)]
        report = score_detections(hyps, [ref("K", "d", 1.0)], 3600.0, 999.9)
        scores = report["keywords"]["K"]
        assert (scores["n_correct"], scores["n_fa"]) == (0, 1)


class TestMtwv:
    def test_single_correct_candidate(self):
        cands = [hyp("K", "d", 1.0, score=0.6, decision="")]
        refs = [ref("K", "d", 1.0)]
        threshold, value = mtwv(cands, refs, 999.9, 3600.0)
        assert threshold <= 0.6
        assert value == 1.0

    def test_only_false_alarms(self):
        cands = [hyp("K", "d", 100.0, score=0.9, decision="")]
        refs = [ref("K", "d", 1.0)]
        threshold, value = mtwv(cands, refs, 999.9, 3600.0)
        assert threshold > 0.9
        assert value == 0.0

    def test_upper_bounds_every_global_threshold(self):
        rng = np.random.default_rng(12)
        cands = random_candidates(rng, 50, n_kws=4, n_docs=5)
        refs = random_references(rng, 25, n_kws=4, n_docs=5)
        _, best = mtwv(cands, refs, 999.9, 3600.0)
        for cut in {c.score for c in cands} | {0.0, 0.5, 1.0}:
            accepted = [c for c in cands if c.score >= cut]
            rates = keyword_rates(align(accepted, refs, 0.5), 3600.0)
            assert best >= atwv(rates, 999.9) - 1e-12

    def test_matches_exhaustive_scan_oracle(self):
        rng = np.random.default_rng(13)
        cands = random_candidates(rng, 50, n_kws=3, n_docs=4)
        refs = random_references(rng, 20, n_kws=3, n_docs=4)
        assert (mtwv(cands, refs, 999.9, 3600.0)
                == exhaustive_mtwv(cands, refs, 999.9, 3600.0))

    @given(data=st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_oracle_on_tie_heavy_instances(self, data):
        # few keywords, documents, start times and scores, so groups hold
        # several hypotheses and references, scores tie, and some keywords
        # (K3) never have references
        def occurrence(kws):
            return st.tuples(st.sampled_from(kws), st.sampled_from(["d0", "d1"]),
                             st.sampled_from([0.0, 0.2, 0.3, 0.6, 2.0]),
                             st.sampled_from([0.2, 0.4]))
        rows = data.draw(st.lists(
            st.tuples(occurrence(["K0", "K1", "K2", "K3"]),
                      st.sampled_from([0.1, 0.25, 0.5, 0.5 + 1e-9, 0.9, 1.0])),
            max_size=25))
        cands = [hyp(kw, doc, start, dur, score=score, decision="")
                 for (kw, doc, start, dur), score in rows]
        refs = [ref(*row) for row in data.draw(
            st.lists(occurrence(["K0", "K1", "K2"]), max_size=12))]
        beta = data.draw(st.sampled_from([999.9, 1.0]))
        trial = data.draw(st.sampled_from([3600.0, 5.0, 2.0]))
        # a non-positive delta (an error case) in about one draw in ten
        delta = data.draw(st.sampled_from([0.5, 0.15] * 5 + [0.0]))

        def outcome(fn):
            try:
                return fn(cands, refs, beta, trial, delta)
            except ValueError as exc:
                return str(exc)

        assert outcome(mtwv) == outcome(exhaustive_mtwv)

    def test_matches_each_hypothesis_once(self, monkeypatch):
        # N singleton groups with distinct scores: the exhaustive scan would
        # pair and match N(N+1)/2 hypotheses, one pass pairs N and hands the
        # greedy pass N pairs
        paired, matched = [], []
        group_pairs, greedy = scoring._group_pairs, scoring._greedy_matches

        def counting_pairs(hypotheses, hyp_idx, *args):
            paired.append(len(hyp_idx))
            return group_pairs(hypotheses, hyp_idx, *args)

        def counting_greedy(pairs, accepted):
            matched.append(len(pairs))
            return greedy(pairs, accepted)

        monkeypatch.setattr(scoring, "_group_pairs", counting_pairs)
        monkeypatch.setattr(scoring, "_greedy_matches", counting_greedy)
        n = 500
        cands = [hyp("K", f"d{i}", 1.0, score=(i + 1) / 1000, decision="")
                 for i in range(n)]
        refs = [ref("K", f"d{i}", 1.0) for i in range(n)]
        assert mtwv(cands, refs, 999.9, 3600.0) == (0.001, 1.0)
        assert sum(paired) == sum(matched) == n


class TestSpearman:
    def test_monotone(self):
        assert spearman([1, 2, 3], [10, 20, 30]) == 1.0

    def test_reversed(self):
        assert spearman([1, 2, 3], [3, 2, 1]) == -1.0

    def test_half(self):
        assert spearman([1, 2, 3], [2, 1, 3]) == 0.5

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            spearman([1, 2], [1, 2, 3])

    def test_too_short(self):
        with pytest.raises(ValueError):
            spearman([1], [1])

    def test_zero_variance_undefined(self):
        assert math.isnan(spearman([1, 1, 1], [1, 2, 3]))

    def test_ties_match_scipy(self):
        import scipy.stats  # about 1 s: imported by the two tests that use it

        rng = np.random.default_rng(14)
        for _ in range(100):
            n = int(rng.integers(3, 40))
            x = rng.integers(0, 6, size=n).astype(float)
            y = rng.integers(0, 6, size=n).astype(float)
            if len(set(x)) < 2 or len(set(y)) < 2:
                continue
            want = scipy.stats.spearmanr(x, y).statistic
            assert spearman(x, y) == pytest.approx(want, abs=1e-12)

    @given(st.lists(st.floats(-100, 100, allow_nan=False), min_size=3,
                    max_size=30, unique=True))
    @settings(max_examples=100, deadline=None)
    def test_monotone_transform_invariance(self, xs):
        ys = [x ** 3 + 2 * x for x in xs]  # strictly increasing transform
        base = list(range(len(xs)))
        assert spearman(base, xs) == pytest.approx(
            spearman(base, ys), abs=1e-12)


@st.composite
def tie_heavy_pairs(draw):
    """Two equal-length float lists, each drawn from at most 5 values."""
    n = draw(st.integers(2, 60))
    pair = []
    for _ in range(2):
        pool = draw(st.lists(st.floats(allow_nan=False), min_size=1, max_size=5))
        pair.append(draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)))
    return pair


@given(tie_heavy_pairs())
@example(([1.0] * 5, [1.0, 2.0, 3.0, 4.0, 5.0]))
@example(([0.5, 0.5], [-0.0, 0.0]))
@settings(max_examples=300, deadline=None)
def test_spearman_bit_equal_to_numpy_oracle(pair):
    """The same float as the numpy implementation (NaN where it gives NaN)."""
    x, y = pair
    assert repr(spearman(x, y)) == repr(numpy_spearman(x, y))


class TestDocPerformance:
    def test_rows_per_document_in_weight_table_order(self):
        hyps = [hyp("K", "rich", 1.0), hyp("K", "rich", 3.0),
                hyp("K", "mixed", 1.0, score=0.3), hyp("K", "mixed", 7.0),
                hyp("NOREF", "d", 1.0)]
        refs = [ref("K", "rich", 1.0), ref("K", "rich", 3.0),
                ref("K", "mixed", 7.0), ref("K", "elsewhere", 1.0)]
        tables = build_weight_tables(hyps)
        # "none" has a weight but no accepted hit: precision 0, recall 0
        tables["K"]["none"] = (0.1, 0.1)
        rows = doc_performance(hyps, tables, align(hyps, refs, 0.5))
        assert rows == [("K", "rich", 1.0, 1.0, 0.5),
                        ("K", "mixed", tables["K"]["mixed"][1], 0.5, 0.25),
                        ("K", "none", 0.1, 0.0, 0.0)]


class TestDocRankCurves:
    def test_single_keyword_top_doc(self):
        hyps = [hyp("K", "top", 1.0), hyp("K", "top", 5.0)]
        refs = [ref("K", "top", 1.0), ref("K", "top", 5.0),
                ref("K", "elsewhere", 9.0), ref("K", "elsewhere", 12.0)]
        tables = build_weight_tables(hyps)
        doc_rows = doc_performance(hyps, tables, align(hyps, refs, 0.5))
        rows = doc_rank_curves(doc_rows, max_rank=5)
        assert rows[0] == (1, 1.0, 0.5)

    def test_keyword_without_candidates_contributes_nothing(self):
        hyps = [hyp("K", "d", 1.0)]
        refs = [ref("K", "d", 1.0), ref("GHOST", "d", 5.0)]
        tables = build_weight_tables(hyps)
        doc_rows = doc_performance(hyps, tables, align(hyps, refs, 0.5))
        rows = doc_rank_curves(doc_rows, max_rank=3)
        assert rows == [(1, 1.0, 1.0)]

    def test_rank_positions_average_over_available_keywords(self):
        hyps = [hyp("A", "d1", 1.0), hyp("A", "d2", 5.0, score=0.2),
                hyp("B", "d1", 9.0)]
        refs = [ref("A", "d1", 1.0), ref("B", "d1", 9.0)]
        tables = build_weight_tables(hyps)
        doc_rows = doc_performance(hyps, tables, align(hyps, refs, 0.5))
        rows = doc_rank_curves(doc_rows, max_rank=4)
        # rank 1 averages keywords A and B; rank 2 only keyword A has a doc
        assert rows[0][0] == 1 and rows[1][0] == 2
        assert rows[0][1] == pytest.approx(1.0)
        assert rows[1][1] == pytest.approx(0.0)

    def test_equal_weights_rank_by_doc_id(self):
        # d2 comes first in the weight table; with equal weights d1 ranks first
        hyps = [hyp("K", "d2", 1.0), hyp("K", "d1", 1.0)]
        refs = [ref("K", "d1", 1.0)]
        tables = build_weight_tables(hyps)
        assert list(tables["K"]) == ["d2", "d1"]
        assert tables["K"]["d1"][1] == tables["K"]["d2"][1]
        doc_rows = doc_performance(hyps, tables, align(hyps, refs, 0.5))
        rows = doc_rank_curves(doc_rows, max_rank=5)
        assert rows == [(1, 1.0, 1.0), (2, 0.0, 0.0)]


class TestAlphaSweep:
    def test_alpha_zero_reproduces_baseline(self):
        rng = np.random.default_rng(15)
        cands = random_candidates(rng, 150, n_kws=6, n_docs=8)
        refs = random_references(rng, 50, n_kws=6, n_docs=8)
        policy = DecisionPolicy(mode="kst", trial_seconds=3600.0)
        rows = alpha_sweep(cands, refs, [0.0], policy)
        # independent baseline: decide and score the raw candidates
        from drstd.decision import apply_decisions, yes_only
        baseline = atwv(keyword_rates(
            align(yes_only(apply_decisions(cands, policy)), refs, 0.5),
            3600.0), policy.beta)
        assert rows[0].atwv == baseline

    def test_row_per_grid_point(self):
        rng = np.random.default_rng(16)
        cands = random_candidates(rng, 60, n_kws=4, n_docs=5)
        refs = random_references(rng, 30, n_kws=4, n_docs=5)
        policy = DecisionPolicy(mode="kst", trial_seconds=3600.0)
        grid = [0.0, 0.25, 0.5, 1.0]
        rows = alpha_sweep(cands, refs, grid, policy)
        assert [r.alpha for r in rows] == grid

    def test_rejects_bad_alpha(self):
        policy = DecisionPolicy(mode="kst", trial_seconds=3600.0)
        with pytest.raises(ValueError, match="alpha must be in"):
            alpha_sweep([], [], [1.5], policy)

    @pytest.mark.parametrize("grid", [[0.0, 1.5], [0.2, 1.0, -0.1]])
    def test_rejects_bad_alpha_after_valid_points(self, grid):
        policy = DecisionPolicy(mode="kst", trial_seconds=3600.0)
        cands = [hyp("K", "d", 1.0, decision="")]
        with pytest.raises(ValueError, match="alpha must be in"):
            alpha_sweep(cands, [ref("K", "d", 1.0)], grid, policy)

    def test_requires_trial_seconds(self):
        # a global policy may have no trial, but every sweep row is an ATWV
        policy = DecisionPolicy(mode="global")
        cands = [hyp("K", "d", 1.0, decision="")]
        with pytest.raises(ValueError, match="trial_seconds"):
            alpha_sweep(cands, [ref("K", "d", 1.0)], [0.0], policy)
        assert alpha_sweep(cands, [], [], policy) == []

    def test_empty_grid_checks_nothing(self):
        # as rescoring, deciding and scoring at no alpha at all
        cands = [hyp("K", "d", 1.0, score=0.0, decision="")]
        policy = DecisionPolicy(mode="kst", trial_seconds=3600.0)
        assert alpha_sweep(cands, [], [], policy, 0.0) == []
        assert reference_alpha_sweep(cands, [], [], policy, 0.0) == []

    def test_kst_cuts_from_rescored_scores(self):
        # at alpha 0.5 the d1 hit scores 0.3: above the cut from the raw
        # scores (0.265), below the cut from the rescored ones (0.333)
        cands = [hyp("K", "d0", 1.0, score=0.5, decision=""),
                 hyp("K", "d0", 5.0, score=0.5, decision=""),
                 hyp("K", "d1", 1.0, score=0.3, decision="")]
        refs = [ref("K", "d1", 1.0)]
        policy = DecisionPolicy(mode="kst", trial_seconds=3600.0)
        rows = alpha_sweep(cands, refs, [0.0, 0.5], policy)
        assert [row.mean_p_miss for row in rows] == [0.0, 1.0]
        assert rows == reference_alpha_sweep(cands, refs, [0.0, 0.5], policy)

    def test_builds_alpha_independent_work_once(self, acceptance_synth,
                                                 tmp_path, monkeypatch):
        # the weight tables once per sweep, and each (kw_id, doc_id) group
        # with references paired once, whatever the grid length
        out = tmp_path / "candidates.tsv"
        synth = acceptance_synth.out
        assert main(["--quiet", "search", "--corpus", str(synth / "corpus.jsonl"),
                     "--keywords", str(synth / "keywords.tsv"),
                     "--out", str(out)]) == 0
        cands = parse_occurrence_table(out, "candidate")
        refs = parse_occurrence_table(synth / "refs.tsv", "ref")
        tables, paired = [], []
        build, group_pairs = diagnostics.build_weight_tables, scoring._group_pairs

        def counting_build(candidates):
            tables.append(len(candidates))
            return build(candidates)

        def counting_pairs(hypotheses, hyp_idx, *args):
            first = hypotheses[hyp_idx[0]]
            paired.append((first.kw_id, first.doc_id))
            return group_pairs(hypotheses, hyp_idx, *args)

        monkeypatch.setattr(diagnostics, "build_weight_tables", counting_build)
        monkeypatch.setattr(scoring, "_group_pairs", counting_pairs)
        policy = DecisionPolicy(mode="kst", trial_seconds=36000.0)
        with_refs = ({(c.kw_id, c.doc_id) for c in cands}
                     & {(r.kw_id, r.doc_id) for r in refs})
        assert len(with_refs) > 50
        for grid in ([0.1], [i / 9 for i in range(10)]):
            tables.clear()
            paired.clear()
            assert len(alpha_sweep(cands, refs, grid, policy)) == len(grid)
            assert tables == [len(cands)]
            assert sorted(paired) == sorted(with_refs)


@given(data=st.data())
@settings(max_examples=400, deadline=None)
def test_alpha_sweep_matches_reference_oracle(data):
    """Rows equal to rescoring, deciding and scoring at each alpha, bit for
    bit, or the same first error."""
    # few keywords, documents, times and scores, so groups hold several
    # hypotheses and references and scores tie; K3 has no references
    def occurrence(kws):
        return st.tuples(st.sampled_from(kws), st.sampled_from(["d0", "d1"]),
                         st.sampled_from([0.0, 0.2, 0.3, 0.6, 2.0]),
                         st.sampled_from([0.2, 0.4]))
    rows = data.draw(st.lists(
        st.tuples(occurrence(["K0", "K1", "K2", "K3"]),
                  st.sampled_from([0.1, 0.2, 0.3, 0.4, 0.5, 0.5 + 1e-9, 0.6,
                                   0.75, 0.9, 1.0])),
        min_size=6, max_size=25))
    cands = [hyp(kw, doc, start, dur, score=score, decision="")
             for (kw, doc, start, dur), score in rows]
    # a score of 0 in about one draw in eight
    if data.draw(st.sampled_from([False] * 7 + [True])):
        cands[data.draw(st.integers(0, len(cands) - 1))] = hyp(
            "K0", "d0", 0.3, score=0.0, decision="")
    refs = [ref(*row) for row in data.draw(
        st.lists(occurrence(["K0", "K1", "K2"]), max_size=12))]
    # repeated alphas, 0 and 1; a bad alpha in about one draw in eight
    grid = data.draw(st.lists(st.sampled_from([0.0, 0.1, 0.25, 0.5, 1.0]),
                              min_size=1, max_size=6))
    if data.draw(st.sampled_from([False] * 7 + [True])):
        grid.insert(data.draw(st.integers(0, len(grid))),
                    data.draw(st.sampled_from([1.5, -0.25])))
    policy = data.draw(st.sampled_from([
        DecisionPolicy("kst", beta=999.9, trial_seconds=3600.0),
        DecisionPolicy("kst", beta=999.9, trial_seconds=600.0),
        DecisionPolicy("kst", beta=1.0, trial_seconds=5.0),
        DecisionPolicy("kst", beta=999.9, trial_seconds=2.0),
        DecisionPolicy("global", 0.5, beta=999.9, trial_seconds=3600.0),
        DecisionPolicy("global", 0.3, beta=1.0, trial_seconds=5.0),
        DecisionPolicy("global", 1.0, beta=999.9, trial_seconds=3600.0)]))
    delta = data.draw(st.sampled_from([0.5, 0.15] * 4 + [0.0, -1.0]))

    def outcome(sweep):
        try:
            return repr(sweep(cands, refs, grid, policy, delta))
        except ValueError as exc:
            return f"ValueError: {exc}"

    assert outcome(alpha_sweep) == outcome(reference_alpha_sweep)


def test_weight_performance_correlation_prefers_hit_rich_docs():
    # keyword with a hit-rich doc (high weight, all correct) and a junk doc
    hyps = [hyp("K", "rich", 1.0), hyp("K", "rich", 3.0),
            hyp("K", "junk", 50.0, score=0.3)]
    refs = [ref("K", "rich", 1.0), ref("K", "rich", 3.0)]
    doc_rows = doc_performance(hyps, build_weight_tables(hyps),
                               align(hyps, refs, 0.5))
    rho_p, rho_r = weight_performance_correlation(doc_rows)
    assert rho_p == 1.0
    assert rho_r == 1.0


@pytest.mark.parametrize("rows", [
    [],
    [(1, 0.5, 0.25), (2, 1.0, 0.0)],
    [(-3, -0.0, -1.5), (10**20, 1e-07, -2.5e-05), (0, 1.5e+300, -1e22),
     (7, 5e-324, 1.7976931348623157e+308)],
])
def test_write_csv_bytes_match_csv_writer(tmp_path, rows):
    header = ("rank", "avg_precision", "avg_recall")
    path = tmp_path / "out.csv"
    scoring.write_csv(path, header, rows)
    want = io.StringIO(newline="")
    writer = csv.writer(want)
    writer.writerow(header)
    writer.writerows([repr(value) for value in row] for row in rows)
    assert path.read_bytes() == want.getvalue().encode("utf-8")
