"""Streaming keyword search and overlap dedup."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from drstd.corpus_io import ConfusionNetworkDoc, KeywordEntry, Slot
from drstd.index_search import dedup_overlaps, search_all
from drstd.tables import Candidate

from conftest import random_corpus, random_keywords
from oracles import (candidate_order, naive_scan_search, pairwise_merge_dedup,
                     reference_greedy_dedup)


def doc(doc_id, *slot_specs):
    slots = []
    clock = 0.0
    for arcs, dur in slot_specs:
        slots.append(Slot(start=clock, duration=dur, arcs=tuple(arcs)))
        clock += dur
    return ConfusionNetworkDoc(doc_id=doc_id, slots=tuple(slots))


class TestSearchKeyword:
    def test_single_token(self):
        d = doc("d1", ([("cat", 0.7), ("<eps>", 0.3)], 0.4))
        hits = search_all([d], [KeywordEntry("KW1", ("cat",))])
        assert hits == [Candidate("KW1", "d1", 0.0, 0.4, 0.7)]

    def test_multi_token_skips_eps_slot(self):
        d = doc("d1", ([("cat", 0.7), ("<eps>", 0.3)], 0.4),
                ([("<eps>", 1.0)], 0.2), ([("sat", 0.5), ("mat", 0.5)], 0.4))
        hits = search_all([d], [KeywordEntry("KW1", ("cat", "sat"))])
        assert len(hits) == 1
        assert hits[0].score == pytest.approx(0.7 * 1.0 * 0.5, abs=1e-15)
        assert hits[0].start == 0.0
        assert hits[0].duration == pytest.approx(1.0)

    def test_eps_posterior_multiplied_in(self):
        d = doc("d1", ([("a", 1.0)], 0.3), ([("x", 0.6), ("<eps>", 0.4)], 0.3),
                ([("b", 0.5), ("<eps>", 0.5)], 0.3))
        hits = search_all([d], [KeywordEntry("KW1", ("a", "b"))])
        assert len(hits) == 1
        assert hits[0].score == pytest.approx(1.0 * 0.4 * 0.5, abs=1e-15)

    def test_gap_blocked_without_eps(self):
        d = doc("d1", ([("a", 1.0)], 0.3), ([("x", 1.0)], 0.3),
                ([("b", 1.0)], 0.3))
        assert search_all([d], [KeywordEntry("KW1", ("a", "b"))]) == []

    def test_unknown_token_empty(self):
        d = doc("d1", ([("cat", 1.0)], 0.4))
        assert search_all([d], [KeywordEntry("KW1", ("dog",))]) == []

    def test_consecutive_tokens(self):
        d = doc("d1", ([("a", 0.9), ("<eps>", 0.1)], 0.3),
                ([("b", 0.8), ("c", 0.2)], 0.3))
        hits = search_all([d], [KeywordEntry("KW1", ("a", "b"))])
        assert len(hits) == 1
        assert hits[0].score == pytest.approx(0.72, abs=1e-15)

    def test_branching_paths_both_reported(self):
        # "b" can match in the middle slot or after traversing its eps arc
        d = doc("d1", ([("a", 1.0)], 0.3),
                ([("b", 0.3), ("<eps>", 0.2), ("x", 0.5)], 0.3),
                ([("b", 1.0)], 0.3))
        hits = search_all([d], [KeywordEntry("KW1", ("a", "b"))])
        assert sorted(round(h.score, 10) for h in hits) == [0.2, 0.3]


class TestSearchAll:
    def test_concatenated_and_sorted(self):
        d1 = doc("d1", ([("cat", 1.0)], 0.4))
        d2 = doc("d2", ([("dog", 1.0)], 0.4))
        kws = [KeywordEntry("K2", ("dog",)), KeywordEntry("K1", ("cat",))]
        hits = search_all([d1, d2], kws)
        assert [h.kw_id for h in hits] == ["K1", "K2"]

    def test_empty_keyword_list(self):
        corpus = [doc("d1", ([("cat", 1.0)], 0.4))]
        assert search_all(corpus, []) == []

    def test_empty_corpus(self):
        assert search_all([], [KeywordEntry("K1", ("cat",))]) == []

    def test_every_token_of_two_slots_found(self):
        d = doc("d1", ([("cat", 0.7), ("<eps>", 0.3)], 0.4), ([("sat", 1.0)], 0.5))
        kws = [KeywordEntry("K1", ("cat",)), KeywordEntry("K2", ("sat",)),
               KeywordEntry("K3", ("<eps>",))]
        assert search_all([d], kws) == [Candidate("K1", "d1", 0.0, 0.4, 0.7),
                                        Candidate("K2", "d1", 0.4, 0.5, 1.0)]

    def test_one_candidate_per_non_eps_arc(self):
        corpus = random_corpus(np.random.default_rng(2), max_docs=50)
        # independent oracle: direct scan of the corpus
        arcs = [tok for d in corpus for s in d.slots
                for tok, _ in s.arcs if tok != "<eps>"]
        keywords = [KeywordEntry(tok, (tok,)) for tok in sorted(set(arcs))]
        assert len(search_all(corpus, keywords)) == len(arcs)

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_naive_scan(self, seed):
        rng = np.random.default_rng(seed)
        corpus = random_corpus(rng, max_docs=50)
        keywords = random_keywords(rng, int(rng.integers(5, 21)))
        # a one-shot iterator: the search reads the corpus exactly once
        got = search_all(iter(corpus), keywords)
        assert got == naive_scan_search(corpus, keywords)

    def test_eps_as_a_later_keyword_token(self):
        # "<eps>" matches a null arc, which also lets the gap go on past it
        d = doc("d1", ([("a", 0.6), ("<eps>", 0.4)], 0.3),
                ([("<eps>", 0.5), ("b", 0.5)], 0.3),
                ([("d", 0.7), ("<eps>", 0.3)], 0.3), ([("d", 1.0)], 0.3))
        kws = [KeywordEntry("K1", ("a", "<eps>", "d")),
               KeywordEntry("K2", ("a", "<eps>"))]
        hits = search_all([d], kws)
        assert hits == naive_scan_search([d], kws)
        assert len(hits) == 5

    def test_scores_are_probabilities(self):
        rng = np.random.default_rng(10)
        corpus = random_corpus(rng, max_docs=30)
        keywords = random_keywords(rng, 15)
        for hit in search_all(corpus, keywords):
            assert 0.0 < hit.score <= 1.0


class TestDedupOverlaps:
    def test_higher_score_survives(self):
        a = Candidate("KW1", "d1", 0.0, 0.5, 0.4)
        b = Candidate("KW1", "d1", 0.1, 0.5, 0.9)
        assert dedup_overlaps([a, b]) == [b]

    def test_non_overlapping_unchanged(self):
        a = Candidate("KW1", "d1", 0.0, 0.5, 0.4)
        b = Candidate("KW1", "d1", 2.0, 0.5, 0.9)
        assert dedup_overlaps([a, b]) == [a, b]

    def test_different_keyword_or_doc_never_merged(self):
        a = Candidate("KW1", "d1", 0.0, 0.5, 0.4)
        b = Candidate("KW2", "d1", 0.0, 0.5, 0.9)
        c = Candidate("KW1", "d2", 0.0, 0.5, 0.9)
        assert dedup_overlaps([a, b, c]) == sorted([a, b, c],
                                                   key=candidate_order)

    def test_exactly_half_overlap_kept(self):
        a = Candidate("KW1", "d1", 0.0, 1.0, 0.4)
        b = Candidate("KW1", "d1", 0.5, 1.0, 0.9)  # overlap = 50%, not > 50%
        assert dedup_overlaps([a, b]) == [a, b]

    def test_chain_of_three_keeps_global_max(self):
        chain = [Candidate("KW1", "d1", 0.0, 1.0, 0.5),
                 Candidate("KW1", "d1", 0.2, 1.0, 0.9),
                 Candidate("KW1", "d1", 0.4, 1.0, 0.7)]
        got = dedup_overlaps(chain)
        assert got == pairwise_merge_dedup(chain)
        assert got == [chain[1]]

    def test_score_tie_earliest_start_wins(self):
        a = Candidate("KW1", "d1", 0.0, 1.0, 0.7)
        b = Candidate("KW1", "d1", 0.1, 1.0, 0.7)
        assert dedup_overlaps([b, a]) == [a]


@given(st.lists(st.tuples(st.integers(0, 1), st.floats(0, 5, allow_nan=False),
                          st.floats(0.1, 2, allow_nan=False),
                          st.floats(0.01, 1, allow_nan=False)), max_size=25))
@settings(max_examples=150, deadline=None)
def test_dedup_idempotent(rows):
    cands = [Candidate(f"K{k}", "d1", s, d, sc) for k, s, d, sc in rows]
    once = dedup_overlaps(cands)
    assert dedup_overlaps(once) == once


# Starts and durations on a quarter-second grid make equal starts, touching
# spans (one ends where the next starts), nested spans, exact half overlaps
# and zero-length spans common; few scores make score ties common.
_GRID_START = st.integers(0, 12).map(lambda q: q / 4)
_GRID_DURATION = st.sampled_from([0.0, 0.25, 0.5, 0.75, 1.0, 2.0])
_DEDUP_ROW = st.tuples(
    st.sampled_from(["K1", "K2"]), st.sampled_from(["d1", "d2"]),
    st.one_of(_GRID_START, st.floats(0, 3, allow_nan=False)),
    st.one_of(_GRID_DURATION, st.floats(0, 2, allow_nan=False)),
    st.sampled_from([0.2, 0.5, 0.9]),
    st.sampled_from(["", "NO", "YES"]))


@given(st.lists(_DEDUP_ROW, max_size=20))
@example([("K1", "d1", 1.0, 1.0, 0.5, ""),       # equal starts: the
          ("K1", "d1", 1.0, 0.5, 0.5, "")])      # shorter one wins the tie
@example([("K1", "d1", 1.0, 2.0, 0.9, ""),       # zero-length spans inside
          ("K1", "d1", 1.5, 0.0, 0.5, ""),       # a span (kept), at its
          ("K1", "d1", 1.0, 0.0, 0.2, ""),       # start (dropped), and two
          ("K1", "d2", 2.0, 0.0, 0.9, ""),       # at the same instant
          ("K1", "d2", 2.0, 0.0, 0.5, "")])      # (one kept)
@example([("K1", "d1", 0.0, 2.0, 0.5, ""),       # nested spans
          ("K1", "d1", 0.5, 0.5, 0.9, "")])
@example([("K1", "d1", 0.0, 1.0, 0.5, ""),       # touching spans
          ("K1", "d1", 1.0, 1.0, 0.9, "")])
@example([("K1", "d1", 0.0, 1.0, 0.5, ""),       # an exact half
          ("K1", "d1", 0.5, 1.0, 0.9, "")])      # overlap: both kept
@example([("K1", "d1", 0.0, 1.0, 0.5, "YES"),    # a full tie: the first
          ("K1", "d1", 0.0, 1.0, 0.5, "NO")])    # in input order is kept
@settings(max_examples=300, deadline=None)
def test_dedup_matches_greedy_oracle(rows):
    cands = [Candidate(*row) for row in rows]
    assert dedup_overlaps(cands) == reference_greedy_dedup(cands)
