"""The whole chain against the oracles: `pipeline` and the chained
subcommands on small random corpora, file by file; and the bytes of the
acceptance chain against their pins."""

import contextlib
import io
import json
from typing import NamedTuple

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from drstd.cli import main
from drstd.corpus_io import (EPS_TOKEN, ConfusionNetworkDoc, KeywordEntry, Slot,
                             write_cn_corpus, write_keyword_list)
from drstd.tables import (SCORE_DECIMALS, RefOccurrence, parse_occurrence_table,
                          write_references)

from chain_pins import mismatches, run_chain
from oracles import (brute_force_atwv, candidate_order, naive_scan_search,
                     reference_greedy_dedup, reference_kst_cut,
                     reference_nearest_first_alignment, straightline_rescore)

CHAIN_FILES = ("candidates.tsv", "rescored.tsv", "weights.tsv", "decided.tsv",
               "report.json", "keyword_scores.tsv")


class Case(NamedTuple):
    docs: list
    keywords: list
    refs: list
    alpha: str
    decision: list  # the decision flags
    beta: str
    trial: str
    delta: str


def _slot(start, duration, *arcs):
    return Slot(start, duration, tuple(arcs))


@st.composite
def chain_cases(draw):
    """1-4 documents of 1-12 slots over three tokens, repeated within a
    slot at times, with <eps> arcs and some posteriors below 5e-7. Times
    and the weights behind the posteriors are dyadic, so scores and
    distances tie. The trial exceeds every keyword's reference count."""
    docs = []
    for d in range(draw(st.integers(1, 4))):
        slots, clock = [], 0.0
        for _ in range(draw(st.integers(1, 12))):
            duration = draw(st.sampled_from([0.0, 0.25, 0.5, 0.75]))
            tokens = draw(st.lists(st.sampled_from("abc"), min_size=1, max_size=3))
            if draw(st.booleans()):
                tokens.append(EPS_TOKEN)
            weights = [draw(st.sampled_from([1.0, 1.0, 2.0, 1e-7])) for _ in tokens]
            slots.append(_slot(clock, duration, *(
                (token, weight / sum(weights))
                for token, weight in zip(tokens, weights))))
            clock += duration + draw(st.sampled_from([0.0, 0.25]))
        docs.append(ConfusionNetworkDoc(f"d{d}", tuple(slots)))
    keywords = [KeywordEntry(f"K{i}", tuple(draw(st.lists(
        st.sampled_from("abc"), min_size=1, max_size=3))))
        for i in range(draw(st.integers(1, 3)))]
    refs = draw(st.lists(st.builds(
        RefOccurrence, st.sampled_from([kw.kw_id for kw in keywords]),
        st.sampled_from([doc.doc_id for doc in docs]),
        st.sampled_from([0.0, 0.25, 0.5, 1.0, 2.0]),
        st.sampled_from([0.25, 0.5])), min_size=1, max_size=4))
    most = max(sum(r.kw_id == kw.kw_id for r in refs) for kw in keywords)
    return Case(docs, keywords, refs,
                alpha=draw(st.sampled_from(["0", "0.1", "0.5", "1"])),
                decision=draw(st.sampled_from([
                    ["--decision", "kst"],
                    ["--decision", "global", "--threshold", "0.5"],
                    ["--decision", "global", "--threshold", "1"]])),
                beta=draw(st.sampled_from(["1", "2", "999.9"])),
                trial=draw(st.sampled_from([str(most + 1), "50", "3600"])),
                delta=draw(st.sampled_from(["0.25", "0.5"])))


def _run(*argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["--quiet", *argv])
    assert code == 0, err.getvalue()


def _quantized(score):
    return float(f"{score:.{SCORE_DECIMALS}f}")


# "a b" anchored at slot 0 through the null arc of slot 1, and at slot 1:
# equal scores, overlapping spans; the earlier start is kept.
_TIE = Case([ConfusionNetworkDoc("d0", (
    _slot(0.0, 0.25, ("a", 1.0)),
    _slot(0.25, 0.25, ("a", 0.5), (EPS_TOKEN, 0.5)),
    _slot(0.5, 0.5, ("b", 1.0))))],
    [KeywordEntry("K0", ("a", "b"))], [RefOccurrence("K0", "d0", 0.25, 0.5)],
    alpha="0", decision=["--decision", "kst"], beta="999.9", trial="3600",
    delta="0.5")
# A posterior below 5e-7: that hit is a row that prints as 0, next to K0's
# hit of score 1.
_TINY = _TIE._replace(docs=[ConfusionNetworkDoc("d0", (
    _slot(0.0, 0.5, ("a", 1e-7), ("b", 1.0 - 1e-7)),
    _slot(0.5, 0.5, ("a", 1.0))))], keywords=[KeywordEntry("K0", ("a",))])
# Two hits of score 1 and N = T = 2: the KST cut is exactly 1.0.
_CUT_TIE = _TINY._replace(docs=[ConfusionNetworkDoc("d0", (
    _slot(0.0, 0.5, ("a", 1.0)), _slot(0.5, 0.5, ("b", 1.0)),
    _slot(1.0, 0.5, ("a", 1.0))))], beta="2", trial="2")


@given(case=chain_cases())
@example(case=_TIE)
@example(case=_TINY)
@example(case=_CUT_TIE)
@example(case=_CUT_TIE._replace(decision=["--decision", "global",
                                          "--threshold", "1"]))
@settings(max_examples=60, deadline=None)
def test_chain_matches_pipeline_and_oracles(tmp_path_factory, case):
    work = tmp_path_factory.mktemp("chain")
    corpus, keywords, refs = (work / "corpus.jsonl", work / "keywords.tsv",
                              work / "refs.tsv")
    write_cn_corpus(corpus, case.docs)
    write_keyword_list(keywords, case.keywords)
    write_references(refs, case.refs)
    decide = [*case.decision, "--beta", case.beta, "--trial-seconds", case.trial]
    piped, chained = work / "piped", work / "chained"
    _run("pipeline", "--corpus", str(corpus), "--keywords", str(keywords),
         "--ref", str(refs), "--alpha", case.alpha, *decide,
         "--delta", case.delta, "--out", str(piped))
    _run("search", "--corpus", str(corpus), "--keywords", str(keywords),
         "--out", str(chained / "candidates.tsv"))
    _run("rescore", "--in", str(chained / "candidates.tsv"), "--alpha", case.alpha,
         "--weights-out", str(chained / "weights.tsv"),
         "--out", str(chained / "rescored.tsv"))
    _run("decide", "--in", str(chained / "rescored.tsv"), *decide,
         "--out", str(chained / "decided.tsv"))
    _run("score", "--hyp", str(chained / "decided.tsv"), "--ref", str(refs),
         "--trial-seconds", case.trial, "--beta", case.beta, "--delta", case.delta,
         "--out", str(chained / "report.json"))
    for name in CHAIN_FILES:
        assert (piped / name).read_bytes() == (chained / name).read_bytes(), name
    # Each stage takes what the stages before it wrote, its own output too.
    again = work / "again"
    _run("rescore", "--in", str(piped / "rescored.tsv"), "--alpha", case.alpha,
         "--out", str(again / "rescored.tsv"))
    _run("sweep", "--in", str(piped / "rescored.tsv"), "--ref", str(refs),
         "--alpha-grid", case.alpha, *decide, "--delta", case.delta,
         "--out", str(again / "sweep.csv"))
    _run("diag", "--in", str(piped / "rescored.tsv"), "--ref", str(refs), *decide,
         "--delta", case.delta, "--out", str(again / "diag"))
    _run("decide", "--in", str(piped / "decided.tsv"), *decide,
         "--out", str(again / "decided.tsv"))

    # search: every match, then dedup
    hits = reference_greedy_dedup(naive_scan_search(case.docs, case.keywords))
    candidates = parse_occurrence_table(piped / "candidates.tsv", "candidate")
    assert candidates == [hit._replace(score=_quantized(hit.score)) for hit in hits]

    rescored = parse_occurrence_table(piped / "rescored.tsv", "candidate")
    assert rescored == sorted(
        (cand._replace(score=_quantized(score)) for cand, score in zip(
            candidates, straightline_rescore(candidates, float(case.alpha)))),
        key=candidate_order)

    decided = parse_occurrence_table(piped / "decided.tsv", "decided")
    kw_ids = {c.kw_id for c in rescored}
    if case.decision[1] == "kst":
        cuts = {kw_id: reference_kst_cut(
            [c.score for c in rescored if c.kw_id == kw_id],
            float(case.beta), float(case.trial)) for kw_id in kw_ids}
    else:
        cuts = dict.fromkeys(kw_ids, float(case.decision[3]))
    assert decided == [
        c._replace(decision="YES" if c.score >= cuts[c.kw_id] else "NO")
        for c in rescored]

    _, counts = reference_nearest_first_alignment(
        [c for c in decided if c.decision == "YES"],
        parse_occurrence_table(refs, "ref"), float(case.delta))
    counts = {kw_id: row for kw_id, row in counts.items() if row[0]}
    report = json.loads((piped / "report.json").read_text(encoding="utf-8"))
    assert {kw_id: (s["n_true"], s["n_correct"], s["n_fa"])
            for kw_id, s in report["keywords"].items()} == counts
    assert report["aggregate"]["atwv"] == pytest.approx(
        brute_force_atwv(counts.values(), float(case.trial), float(case.beta)),
        rel=1e-12, abs=1e-12)


def test_acceptance_chain_bytes_pinned(tmp_path):
    # `tests/chain_pins.py` runs the same check under any interpreter.
    assert mismatches(run_chain(tmp_path)) == []
