"""Threshold decisions: global and keyword-specific."""

import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from drstd.decision import (DecisionPolicy, apply_decisions, kst_cuts, yes_flags,
                            yes_only)
from drstd.tables import Candidate

from oracles import best_expected_twv, expected_twv, reference_kst_cut


def cands_with_scores(scores, kw="K1"):
    return [Candidate(kw_id=kw, doc_id="d1", start=float(i), duration=0.4,
                      score=s) for i, s in enumerate(scores)]


def kst_cut(candidates, policy):
    """The `kst_cuts` threshold of one keyword's candidate list."""
    cuts = kst_cuts([c.kw_id for c in candidates],
                    [c.score for c in candidates], policy)
    (cut,) = cuts.values()
    return cut


class TestKstThreshold:
    def test_closed_form_value(self):
        # expected-true-count 2 over a 3600 s trial at the default cost ratio
        policy = DecisionPolicy(mode="kst", beta=999.9, trial_seconds=3600.0)
        theta = kst_cut(cands_with_scores([1.0, 1.0]), policy)
        assert theta == pytest.approx(1999.8 / 5597.8, abs=1e-12)
        assert theta == pytest.approx(0.357247, abs=5e-7)

    def test_empty_list_returns_one(self):
        policy = DecisionPolicy(mode="kst", trial_seconds=3600.0)
        assert kst_cuts([], [], policy) == {}
        # a keyword of zero mass: nothing short of a perfect score passes
        assert kst_cuts(["K1", "K1"], [0.0, 0.0], policy) == {"K1": 1.0}

    def test_small_mass_small_threshold(self):
        policy = DecisionPolicy(mode="kst", beta=999.9, trial_seconds=3600.0)
        tiny = kst_cut(cands_with_scores([0.001]), policy)
        assert 0.0 < tiny < 0.001 * 999.9 / 3600.0 * 1.01

    def test_beta_one_reduces_to_mass_over_trial(self):
        policy = DecisionPolicy(mode="kst", beta=1.0, trial_seconds=3600.0)
        cands = cands_with_scores([0.5, 0.7, 0.3])
        theta = kst_cut(cands, policy)
        assert theta == pytest.approx(1.5 / 3600.0, abs=1e-15)
        # cross-check against the expected-TWV scan at beta=1
        scores = [c.score for c in cands]
        accepted = [s >= theta for s in scores]
        assert expected_twv(scores, accepted, 3600.0, 1.0) == pytest.approx(
            best_expected_twv(scores, 3600.0, 1.0), abs=1e-9)

    @pytest.mark.parametrize("beta,trial_seconds,cut", [
        (0.5, 1.0, "nan"),  # T + (beta - 1) * N is 0
        (0.25, 1.0, "-1.0"),
        (1e308, 100.0, "nan"),  # beta * N overflows
    ], ids=["zero-denominator", "negative", "overflow"])
    def test_undefined_cut_names_its_keyword(self, beta, trial_seconds, cut):
        policy = DecisionPolicy(mode="kst", beta=beta, trial_seconds=trial_seconds)
        with pytest.raises(ValueError, match=rf"^keyword 'K1' has no KST "
                           rf"threshold: .* is {cut} at beta="):
            kst_cuts(["K0", "K1", "K1"], [0.0, 1.0, 1.0], policy)
        with pytest.raises(ValueError, match="^keyword 'K1' "):
            apply_decisions(cands_with_scores([1.0, 1.0]), policy)
        # N = 0 keeps its convention under the same policy
        assert kst_cuts(["K0"], [0.0], policy) == {"K0": 1.0}

    def test_finite_cut_above_one_is_kept(self):
        # beta * N / (T + (beta - 1) * N) = 0.75 / 0.25: no score passes
        policy = DecisionPolicy(mode="kst", beta=0.5, trial_seconds=1.0)
        assert kst_cuts(["K1"] * 3, [0.5] * 3, policy) == {"K1": 3.0}

    def test_requires_kst_mode(self):
        policy = DecisionPolicy(mode="global", trial_seconds=3600.0)
        with pytest.raises(ValueError, match="kst"):
            kst_cuts([], [], policy)

    @pytest.mark.parametrize("beta", [2.0, 10.0, 999.9])
    def test_decisions_maximize_expected_twv(self, beta):
        """Exhaustive-scan optimality, scores read as true-hit probabilities."""
        rng = np.random.default_rng(17)
        policy = DecisionPolicy(mode="kst", beta=beta, trial_seconds=3600.0)
        for _ in range(100):
            scores = [float(s) for s in
                      rng.uniform(0.01, 1.0, size=int(rng.integers(1, 21)))]
            decided = apply_decisions(cands_with_scores(scores), policy)
            accepted = [c.decision == "YES" for c in decided]
            achieved = expected_twv(scores, accepted, 3600.0, beta)
            assert achieved >= best_expected_twv(scores, 3600.0, beta) - 1e-9


class TestApplyDecisions:
    def test_global_threshold(self):
        policy = DecisionPolicy(mode="global", global_threshold=0.5)
        decided = apply_decisions(cands_with_scores([0.4, 0.5, 0.9]), policy)
        assert [c.decision for c in decided] == ["NO", "YES", "YES"]

    def test_global_zero_accepts_everything(self):
        policy = DecisionPolicy(mode="global", global_threshold=0.0)
        decided = apply_decisions(cands_with_scores([0.01, 0.99]), policy)
        assert all(c.decision == "YES" for c in decided)

    def test_kst_example_cut(self):
        # threshold ~0.357247 from the two-unit-mass example
        policy = DecisionPolicy(mode="kst", beta=999.9, trial_seconds=3600.0)
        cands = cands_with_scores([1.0, 1.0, 0.36, 0.35])
        # recompute with the extra candidates' mass included
        theta = kst_cut(cands, policy)
        decided = apply_decisions(cands, policy)
        for c in decided:
            assert c.decision == ("YES" if c.score >= theta else "NO")

    def test_monotone_in_score(self):
        rng = np.random.default_rng(23)
        policy = DecisionPolicy(mode="kst", trial_seconds=3600.0)
        decided = apply_decisions(
            cands_with_scores(list(rng.uniform(0.01, 1, size=30))), policy)
        yes_scores = [c.score for c in decided if c.decision == "YES"]
        no_scores = [c.score for c in decided if c.decision == "NO"]
        if yes_scores and no_scores:
            assert min(yes_scores) > max(no_scores)

    def test_idempotent_and_order_preserving(self):
        policy = DecisionPolicy(mode="global", global_threshold=0.5)
        cands = cands_with_scores([0.9, 0.1, 0.6])
        once = apply_decisions(cands, policy)
        twice = apply_decisions(once, policy)
        assert once == twice
        assert [c.start for c in once] == [c.start for c in cands]

    def test_per_keyword_thresholds_independent(self):
        policy = DecisionPolicy(mode="kst", beta=999.9, trial_seconds=3600.0)
        heavy = cands_with_scores([0.9] * 12, kw="HEAVY")  # high mass, high cut
        light = cands_with_scores([0.9], kw="LIGHT")       # low mass, low cut
        decided = apply_decisions(heavy + light, policy)
        by_kw = {}
        for c in decided:
            by_kw.setdefault(c.kw_id, set()).add(c.decision)
        assert by_kw["LIGHT"] == {"YES"}

    def test_yes_only_filter(self):
        policy = DecisionPolicy(mode="global", global_threshold=0.5)
        decided = apply_decisions(cands_with_scores([0.4, 0.9]), policy)
        assert [c.score for c in yes_only(decided)] == [0.9]


class TestDecisionPolicy:
    @pytest.mark.parametrize("kwargs", [
        {"mode": "sometimes"},
        {"mode": "global", "global_threshold": 1.5},
        {"mode": "kst", "beta": 0.0},
        {"mode": "kst", "trial_seconds": 0.0},
        {"mode": "kst"},  # kst thresholds need a trial length
    ])
    def test_invalid_policies(self, kwargs):
        with pytest.raises(ValueError):
            DecisionPolicy(**kwargs)


# Scores where cuts tie with them and sums depend on their order, beside
# free ones; betas and trials that give every error case of the cut.
_KST_SCORE = st.sampled_from([0.0, 0.1, 0.2, 0.25, 0.3, 0.5, 1.0]) | st.floats(0, 1)


@given(rows=st.lists(st.tuples(st.sampled_from(["K0", "K1", "K2"]), _KST_SCORE),
                     max_size=12),
       beta=st.sampled_from([0.25, 0.5, 1.0, 2.0, 999.9, 1e308]),
       trial=st.sampled_from([1.0, 2.0, 3600.0]))
@example(rows=[("K1", 0.5)], beta=1.0, trial=1.0)  # the cut equals the score
@example(rows=[("K1", 1.0), ("K1", 1.0)], beta=2.0, trial=2.0)  # N = T: cut 1.0
@settings(max_examples=300, deadline=None)
def test_kst_cuts_and_flags_match_oracle(rows, beta, trial):
    kw_ids = [kw_id for kw_id, _ in rows]
    scores = [score for _, score in rows]
    policy = DecisionPolicy(mode="kst", beta=beta, trial_seconds=trial)
    expected, failing = {}, None
    for kw_id in dict.fromkeys(kw_ids):
        try:
            expected[kw_id] = reference_kst_cut(
                [s for k, s in rows if k == kw_id], beta, trial)
        except ValueError:
            failing = kw_id
            break
    try:
        got = kst_cuts(kw_ids, scores, policy)
    except ValueError as exc:
        named = re.match(r"keyword '(\w+)' has no KST threshold", str(exc))
        assert named and named[1] == failing, str(exc)
        return
    assert failing is None
    assert got == expected
    assert yes_flags(kw_ids, scores, policy) == [
        score >= expected[kw_id] for kw_id, score in rows]
