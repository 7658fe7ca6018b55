"""Acceptance suite: one test per release criterion.

Each test prints a single PASS line when its criterion holds (run with
``pytest tests/test_acceptance.py -v -s``); tolerances are pinned in the
assertions. The synthetic-experiment criteria use the fixed corpus
configuration (200 docs, 50 keywords, topic affinity 0.9, noise 0.5,
seed 7) shared through the session fixture `acceptance_synth`.
"""

import json
import math
import time

import numpy as np
import pytest
import scipy.stats

from drstd.cli import main
from drstd.decision import DecisionPolicy, apply_decisions, yes_only
from drstd.diagnostics import (doc_performance, spearman,
                               weight_performance_correlation)
from drstd.rescore import (build_weight_tables, reestimate_confidence,
                           rescore_candidates)
from drstd.scoring import align, atwv, keyword_rates
from drstd.index_search import search_all
from drstd.tables import Candidate, parse_occurrence_table

from conftest import (ACCEPTANCE_SYNTH_ARGS, random_candidates,
                      random_corpus, random_keywords, random_references)
from oracles import (best_expected_twv, brute_force_atwv, expected_twv,
                     naive_scan_search, straightline_rescore)


def report(criterion, detail):
    print(f"[PASS] criterion {criterion}: {detail}")


@pytest.fixture(scope="module")
def synth_dir(acceptance_synth):
    return acceptance_synth.out


def run_pipeline(synth_dir, out_dir, alpha):
    argv = ["--quiet", "pipeline",
            "--corpus", str(synth_dir / "corpus.jsonl"),
            "--keywords", str(synth_dir / "keywords.tsv"),
            "--ref", str(synth_dir / "refs.tsv"),
            "--alpha", str(alpha), "--decision", "kst",
            "--out", str(out_dir)]
    assert main(argv) == 0
    return json.loads((out_dir / "report.json").read_text())


@pytest.fixture(scope="module")
def baseline_run(synth_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("accept_base")
    payload = run_pipeline(synth_dir, out, alpha=0.0)
    return out, payload


def test_criterion_1_rescore_oracle_equivalence():
    """100 random instances match a straight-line reimplementation exactly."""
    rng = np.random.default_rng(101)
    start = time.monotonic()
    scores = 0
    for _ in range(100):
        n = int(rng.integers(1, 1001))
        cands = random_candidates(rng, n, n_kws=int(rng.integers(1, 51)),
                                  n_docs=int(rng.integers(1, 51)))
        alpha = float(rng.uniform(0, 1))
        rescored, _ = rescore_candidates(cands, alpha)
        assert [c.score for c in rescored] == straightline_rescore(cands, alpha)
        scores += n
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    report(1, f"100 instances, {scores} scores bit-identical, {elapsed:.2f}s")


def test_criterion_2_identity_and_boundary_laws():
    """alpha=0 bit-identity, alpha=1 document-constancy, exact range."""
    rng = np.random.default_rng(102)
    cands = random_candidates(rng, 500, n_kws=20, n_docs=15)
    at_zero, _ = rescore_candidates(cands, 0.0)
    assert at_zero == cands
    at_one, tables = rescore_candidates(cands, 1.0)
    per_doc = {}
    for c in at_one:
        per_doc.setdefault((c.kw_id, c.doc_id), set()).add(c.score)
    assert all(len(scores) == 1 for scores in per_doc.values())
    for c in at_one:
        table = tables[c.kw_id]
        if table[c.doc_id][0] == max(s for s, _w in table.values()):
            assert c.score == 1.0
    for alpha, weight, score in rng.random((100_000, 3)):
        assert 0.0 <= reestimate_confidence(score, weight, alpha) <= 1.0
    report(2, "alpha laws exact, range preserved on 100000 triples")


def test_criterion_3_search_matches_naive_scan():
    """20 random corpora: streaming search equals a full-scan matcher."""
    rng = np.random.default_rng(103)
    for _ in range(20):
        corpus = random_corpus(rng, max_docs=50)
        keywords = random_keywords(rng, int(rng.integers(3, 15)))
        assert search_all(iter(corpus), keywords) == \
            naive_scan_search(corpus, keywords)
    report(3, "20 corpora, candidates identical, scores included")


def test_criterion_4_atwv_matches_brute_force():
    """50 random instances: ATWV from definitions, 1e-10; identity 1e-12."""
    rng = np.random.default_rng(104)
    checked = 0
    for _ in range(50):
        n_kws = int(rng.integers(1, 11))
        n_docs = int(rng.integers(1, 21))
        hyps = random_candidates(rng, int(rng.integers(0, 100)),
                                 n_kws=n_kws, n_docs=n_docs)
        refs = random_references(rng, int(rng.integers(1, 50)),
                                 n_kws=n_kws, n_docs=n_docs)
        alignment = align(hyps, refs, 0.5)
        rates = keyword_rates(alignment, 3600.0)
        if not rates:
            continue
        got = atwv(rates, 999.9)
        counts = [(c.n_true, c.n_correct, c.n_fa)
                  for c in alignment.keyword_counts.values()]
        assert abs(got - brute_force_atwv(counts, 3600.0, 999.9)) <= 1e-10
        mean_pm = sum(p for p, _ in rates.values()) / len(rates)
        mean_pf = sum(f for _, f in rates.values()) / len(rates)
        assert abs(got - (1.0 - mean_pm - 999.9 * mean_pf)) <= 1e-12
        checked += 1
    assert checked >= 40
    report(4, f"{checked} instances match brute force within 1e-10")


def test_criterion_5_kst_optimality():
    """200 random candidate sets: KST decisions maximize expected TWV."""
    rng = np.random.default_rng(105)
    policy = DecisionPolicy(mode="kst", beta=999.9, trial_seconds=3600.0)
    for _ in range(200):
        scores = [float(s) for s in
                  rng.uniform(0.001, 1.0, size=int(rng.integers(1, 21)))]
        cands = [Candidate("K", "d", float(i), 0.4, s)
                 for i, s in enumerate(scores)]
        decided = apply_decisions(cands, policy)
        accepted = [c.decision == "YES" for c in decided]
        achieved = expected_twv(scores, accepted, 3600.0, 999.9)
        best = best_expected_twv(scores, 3600.0, 999.9)
        assert achieved >= best - 1e-9
    report(5, "200 candidate sets within 1e-9 of the exhaustive-scan optimum")


def test_criterion_6_synthetic_direction(tmp_path):
    """Rescoring at alpha=0.1 beats the baseline by >= 1% relative."""
    start = time.monotonic()
    synth_out = tmp_path / "synth"
    assert main(["--quiet", "synth", *ACCEPTANCE_SYNTH_ARGS,
                 "--out", str(synth_out)]) == 0
    base = run_pipeline(synth_out, tmp_path / "base", alpha=0.0)
    prop = run_pipeline(synth_out, tmp_path / "prop", alpha=0.1)
    elapsed = time.monotonic() - start
    base_atwv = base["aggregate"]["atwv"]
    prop_atwv = prop["aggregate"]["atwv"]
    assert prop_atwv > base_atwv
    relative = (prop_atwv - base_atwv) / abs(base_atwv)
    assert relative >= 0.01
    assert elapsed < 10.0
    report(6, f"ATWV {base_atwv:.4f} -> {prop_atwv:.4f} "
              f"(+{100 * relative:.1f}% rel), {elapsed:.1f}s")


def test_criterion_7_correlation_diagnostic(synth_dir, baseline_run, tmp_path):
    """Weight vs precision/recall Spearman >= 0.5; curve CSV emitted."""
    base_dir, _ = baseline_run
    cands = parse_occurrence_table(base_dir / "candidates.tsv", "candidate")
    refs = parse_occurrence_table(synth_dir / "refs.tsv", "ref")
    policy = DecisionPolicy(mode="kst", trial_seconds=_trial_seconds(base_dir))
    accepted = yes_only(apply_decisions(cands, policy))
    doc_rows = doc_performance(accepted, build_weight_tables(cands),
                               align(accepted, refs, 0.5))
    rho_p, rho_r = weight_performance_correlation(doc_rows)
    assert rho_p >= 0.5
    assert rho_r >= 0.5
    diag_out = tmp_path / "diag"
    assert main(["--quiet", "diag", "--in", str(base_dir / "candidates.tsv"),
                 "--ref", str(synth_dir / "refs.tsv"),
                 "--trial-seconds", str(policy.trial_seconds),
                 "--out", str(diag_out)]) == 0
    curve = (diag_out / "rank_curve.csv").read_text().splitlines()
    assert curve[0] == "rank,avg_precision,avg_recall"
    assert len(curve) > 1
    report(7, f"rho(weight, precision) {rho_p:.3f}, "
              f"rho(weight, recall) {rho_r:.3f}, curve CSV emitted")


def _trial_seconds(run_dir):
    manifest = json.loads((run_dir / "pipeline.manifest.json").read_text())
    return manifest["config"]["trial_seconds"]


def test_criterion_8_alpha_sweep_shape(synth_dir, baseline_run, tmp_path):
    """A 0.05-step grid over [0, 1] peaks inside [0.05, 0.4]; CSV emitted."""
    base_dir, _ = baseline_run
    grid = ",".join(f"{v:.2f}" for v in np.arange(0, 1.0001, 0.05))
    out = tmp_path / "sweep.csv"
    assert main(["--quiet", "sweep", "--in", str(base_dir / "candidates.tsv"),
                 "--ref", str(synth_dir / "refs.tsv"),
                 "--alpha-grid", grid, "--decision", "kst",
                 "--trial-seconds", str(_trial_seconds(base_dir)),
                 "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    values = [(float(alpha), float(twv)) for alpha, twv, _pm, _pf in rows]
    assert len(values) == 21
    best_alpha = max(values, key=lambda av: av[1])[0]
    assert 0.05 <= best_alpha <= 0.4
    report(8, f"sweep peak at alpha={best_alpha} inside [0.05, 0.4]")


def test_criterion_9_pipeline_determinism(synth_dir, tmp_path):
    """Byte-identical artifacts across three reruns."""
    runs = {}
    for name in ("a", "b", "c"):
        out = tmp_path / name
        run_pipeline(synth_dir, out, alpha=0.1)
        runs[name] = out
    artifacts = ["candidates.tsv", "rescored.tsv", "weights.tsv",
                 "decided.tsv", "report.json", "keyword_scores.tsv"]
    for name in artifacts:
        reference = (runs["a"] / name).read_bytes()
        assert (runs["b"] / name).read_bytes() == reference, name
        assert (runs["c"] / name).read_bytes() == reference, name
    report(9, f"{len(artifacts)} artifacts byte-identical over three reruns")


def test_criterion_10_spearman_unit_correctness():
    """Exact textbook cases; ties match average-rank Pearson to 1e-12."""
    assert spearman([1, 2, 3], [10, 20, 30]) == 1.0
    assert spearman([1, 2, 3], [3, 2, 1]) == -1.0
    assert spearman([1, 2, 3], [2, 1, 3]) == 0.5
    rng = np.random.default_rng(110)
    checked = 0
    while checked < 100:
        n = int(rng.integers(3, 50))
        x = rng.integers(0, 8, size=n).astype(float)
        y = rng.integers(0, 8, size=n).astype(float)
        if len(set(x)) < 2 or len(set(y)) < 2:
            continue
        want = scipy.stats.spearmanr(x, y).statistic
        assert not math.isnan(want)
        assert abs(spearman(x, y) - want) <= 1e-12
        checked += 1
    report(10, "exact unit cases and 100 tied vectors within 1e-12 of "
               "average-rank Pearson")
