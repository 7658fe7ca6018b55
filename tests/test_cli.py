"""Command line behaviour: subcommand composition, exit codes, manifests."""

import argparse
import builtins
import contextlib
import hashlib
import io
import json
import logging
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import drstd
from drstd import cli
from drstd.cli import main
from drstd.corpus_io import (EPS_TOKEN, ConfusionNetworkDoc, KeywordEntry, Slot,
                             write_cn_corpus, write_keyword_list)
from drstd.decision import DecisionPolicy
from drstd.synth import SynthConfig
from drstd.tables import (Candidate, RefOccurrence, parse_occurrence_table,
                          write_references)

from conftest import ACCEPTANCE_SYNTH_ARGS, run_synth

DATA_CONFIG = ["--docs", "40", "--slots", "30", "--keywords", "10",
               "--vocab", "150", "--topic-affinity", "0.85",
               "--noise", "0.45", "--seed", "5"]


@pytest.fixture(scope="module")
def data_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("synth")
    assert main(["--quiet", "synth", *DATA_CONFIG, "--out", str(out)]) == 0
    return out


def run(*argv):
    return main(["--quiet", *argv])


# The report.json layout: the keys of "config", "aggregate" and of each
# "keywords" entry; `score --mtwv` adds MTWV_KEYS to "aggregate".
REPORT_KEYS = {
    "config": {"beta", "trial_seconds", "delta_seconds"},
    "aggregate": {"atwv", "mean_p_miss", "mean_p_fa", "num_scored_keywords"},
    "keyword": {"n_true", "n_correct", "n_fa", "p_miss", "p_fa", "twv"},
}
MTWV_KEYS = {"mtwv", "mtwv_threshold"}


def report_layout(payload):
    """The key sets of a report.json payload, named as in REPORT_KEYS."""
    assert set(payload) == {"config", "aggregate", "keywords"}
    keyword = next(iter(payload["keywords"].values()))
    return {"config": set(payload["config"]),
            "aggregate": set(payload["aggregate"]), "keyword": set(keyword)}


class TestSynthCommand:
    def test_writes_three_artifacts_and_manifest(self, data_dir):
        for name in ("corpus.jsonl", "keywords.tsv", "refs.tsv",
                     "synth.manifest.json"):
            assert (data_dir / name).exists()

    def test_rerun_is_byte_identical(self, data_dir, tmp_path):
        again = tmp_path / "again"
        assert run("synth", *DATA_CONFIG, "--out", str(again)) == 0
        for name in ("corpus.jsonl", "keywords.tsv", "refs.tsv",
                     "synth.manifest.json"):
            assert (again / name).read_bytes() == (data_dir / name).read_bytes()

    @pytest.mark.parametrize("config,planned_at_least", [
        (["--docs", "1", "--slots", "5", "--keywords", "3", "--vocab", "20",
          "--seed", "1"], 18),
        (ACCEPTANCE_SYNTH_ARGS, 0),
    ], ids=["saturated", "acceptance"])
    def test_dropped_occurrences_reported(self, tmp_path, request, config,
                                          planned_at_least):
        if config == ACCEPTANCE_SYNTH_ARGS:
            synth = request.getfixturevalue("acceptance_synth")
        else:
            synth = run_synth(config, tmp_path)
        dropped = int(re.search(r"(\d+) planned occurrences dropped",
                                synth.log).group(1))
        refs = parse_occurrence_table(synth.out / "refs.tsv", "ref")
        assert _manifest(synth.out, "synth")["counts"] == {
            "references": len(refs), "dropped": dropped}
        if planned_at_least:
            assert len(refs) == 5  # one per slot of the only document
            assert dropped > 0
            assert dropped + len(refs) >= planned_at_least
        else:
            assert dropped == 0

    def test_dropped_occurrences_counted_under_quiet(self, tmp_path, caplog):
        assert run("synth", "--docs", "1", "--slots", "5", "--keywords", "3",
                   "--vocab", "20", "--seed", "1", "--out", str(tmp_path)) == 0
        assert caplog.text == ""
        counts = _manifest(tmp_path, "synth")["counts"]
        assert counts["references"] == 5
        assert counts["dropped"] > 0

    @pytest.mark.parametrize("vocab", ["2", "3", "4"])
    def test_vocabulary_below_competitor_draw_rejected(self, tmp_path, capsys,
                                                       vocab):
        out = tmp_path / "out"
        assert main(["synth", "--docs", "2", "--slots", "3", "--keywords", "1",
                     "--vocab", vocab, "--seed", "1", "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"drstd: vocabulary of {vocab} is too small: each slot draws up "
            "to 5 distinct competitor tokens\n")
        assert not out.exists()

    @pytest.mark.parametrize("keywords", ["10", "11"])
    def test_keywords_filling_vocabulary_rejected(self, tmp_path, capsys,
                                                  keywords):
        out = tmp_path / "out"
        assert main(["synth", "--docs", "2", "--slots", "3", "--keywords",
                     keywords, "--vocab", "10", "--seed", "1",
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"drstd: vocabulary of 10 is too small to host {keywords} "
            "keywords plus filler tokens\n")
        assert not out.exists()

    @pytest.mark.parametrize("flag,value", [
        ("--docs", "0"), ("--slots", "-3"), ("--keywords", "2.5"),
        ("--vocab", "many"), ("--docs-per-topic", "0"),
        ("--topic-affinity", "1.5"), ("--noise", "nan"), ("--seed", "-1"),
    ])
    def test_bad_flag_named(self, tmp_path, capsys, flag, value):
        argv = {"--docs": "2", "--slots": "3", "--keywords": "1",
                "--vocab": "10", "--seed": "1", flag: value}
        out = tmp_path / "out"
        assert main(["synth", *(arg for item in argv.items() for arg in item),
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"drstd: argument {flag}: ")
        assert value in err and err.count("\n") == 1
        assert not out.exists()


class TestLogging:
    def test_quiet_holds_when_logging_is_configured(self, data_dir, tmp_path,
                                                    caplog):
        caplog.set_level(logging.INFO)  # the root logger, as an embedding app
        search = ["search", "--corpus", str(data_dir / "corpus.jsonl"),
                  "--keywords", str(data_dir / "keywords.tsv"),
                  "--out", str(tmp_path / "c.tsv")]
        assert main(["--quiet", *search]) == 0
        assert caplog.messages == []
        assert main(search) == 0
        assert [line.split(":")[0] for line in caplog.messages] == ["search"]


class TestSearchAndIndex:
    def test_search_writes_candidates(self, data_dir, tmp_path):
        out = tmp_path / "cands.tsv"
        assert run("search", "--corpus", str(data_dir / "corpus.jsonl"),
                   "--keywords", str(data_dir / "keywords.tsv"),
                   "--out", str(out)) == 0
        cands = parse_occurrence_table(out, "candidate")
        assert cands
        assert (tmp_path / "search.manifest.json").exists()

    def test_index_subcommand_and_flags_rejected(self, data_dir, tmp_path):
        corpus = str(data_dir / "corpus.jsonl")
        keywords = str(data_dir / "keywords.tsv")
        out = tmp_path / "c.tsv"
        search = ["search", "--corpus", corpus, "--keywords", keywords,
                  "--out", str(out)]
        assert run("index", "--corpus", corpus, "--out", str(out)) == 1
        assert run(*search, "--index", str(tmp_path / "index.bin")) == 1
        assert run("--jobs", "2", *search) == 1
        assert not out.exists()


class TestRescoreCommand:
    def test_alpha_zero_score_column_identical(self, data_dir, tmp_path):
        cands = tmp_path / "c.tsv"
        out = tmp_path / "r.tsv"
        assert run("search", "--corpus", str(data_dir / "corpus.jsonl"),
                   "--keywords", str(data_dir / "keywords.tsv"),
                   "--out", str(cands)) == 0
        assert run("rescore", "--alpha", "0.0", "--in", str(cands),
                   "--out", str(out)) == 0
        assert out.read_bytes() == cands.read_bytes()

    def test_weights_out(self, data_dir, tmp_path):
        cands = tmp_path / "c.tsv"
        run("search", "--corpus", str(data_dir / "corpus.jsonl"),
            "--keywords", str(data_dir / "keywords.tsv"), "--out", str(cands))
        weights = tmp_path / "w.tsv"
        assert run("rescore", "--alpha", "0.2", "--in", str(cands),
                   "--out", str(tmp_path / "r.tsv"),
                   "--weights-out", str(weights)) == 0
        header, first = weights.read_text().splitlines()[:2]
        assert header.startswith("#")
        assert len(first.split("\t")) == 4

    def test_empty_weights_out_is_validation_error(self, data_dir, tmp_path,
                                                   capsys):
        cands = tmp_path / "c.tsv"
        run("search", "--corpus", str(data_dir / "corpus.jsonl"),
            "--keywords", str(data_dir / "keywords.tsv"), "--out", str(cands))
        capsys.readouterr()
        out = tmp_path / "out" / "r.tsv"
        assert run("rescore", "--alpha", "0.2", "--in", str(cands),
                   "--out", str(out), "--weights-out", "") == 1
        assert capsys.readouterr().err.splitlines() == [
            "drstd: argument --weights-out: expected a path, got ''"]
        assert not out.parent.exists()

    def test_weights_out_directory_leaves_no_table(self, data_dir, tmp_path):
        """The weights are written before the table, so a --weights-out
        that cannot be written leaves no --out and no manifest."""
        cands = tmp_path / "c.tsv"
        run("search", "--corpus", str(data_dir / "corpus.jsonl"),
            "--keywords", str(data_dir / "keywords.tsv"), "--out", str(cands))
        out = tmp_path / "out" / "r.tsv"
        out.parent.mkdir()
        assert run("rescore", "--alpha", "0.2", "--in", str(cands),
                   "--out", str(out), "--weights-out", str(out.parent)) == 2
        assert list(out.parent.iterdir()) == []

    def test_bad_alpha_is_validation_error(self, data_dir, tmp_path):
        cands = tmp_path / "c.tsv"
        run("search", "--corpus", str(data_dir / "corpus.jsonl"),
            "--keywords", str(data_dir / "keywords.tsv"), "--out", str(cands))
        assert run("rescore", "--alpha", "1.5", "--in", str(cands),
                   "--out", str(tmp_path / "r.tsv")) == 1


class TestScoreCommand:
    def test_report_has_atwv(self, data_dir, tmp_path):
        cands = tmp_path / "c.tsv"
        decided = tmp_path / "d.tsv"
        report = tmp_path / "report.json"
        run("search", "--corpus", str(data_dir / "corpus.jsonl"),
            "--keywords", str(data_dir / "keywords.tsv"), "--out", str(cands))
        assert run("decide", "--in", str(cands), "--decision", "kst",
                   "--trial-seconds", "3600", "--out", str(decided)) == 0
        assert run("score", "--hyp", str(decided),
                   "--ref", str(data_dir / "refs.tsv"),
                   "--trial-seconds", "3600", "--out", str(report)) == 0
        payload = json.loads(report.read_text())
        assert report_layout(payload) == REPORT_KEYS
        assert (tmp_path / "keyword_scores.tsv").exists()

    def test_undecided_hypotheses_rejected(self, data_dir, tmp_path, capsys):
        cands = tmp_path / "c.tsv"
        decided = tmp_path / "d.tsv"
        run("search", "--corpus", str(data_dir / "corpus.jsonl"),
            "--keywords", str(data_dir / "keywords.tsv"), "--out", str(cands))
        run("decide", "--in", str(cands), "--decision", "kst",
            "--trial-seconds", "3600", "--out", str(decided))
        # one undecided row among decided ones is as invalid as all of them
        mixed = tmp_path / "mixed.tsv"
        lines = decided.read_text().splitlines()
        mixed.write_text("\n".join(lines) + "\nK9999\td0000\t0.0\t0.4\t0.5\n")
        for hyp in (cands, mixed):
            capsys.readouterr()
            assert run("score", "--hyp", str(hyp),
                       "--ref", str(data_dir / "refs.tsv"),
                       "--trial-seconds", "3600",
                       "--out", str(tmp_path / "r.json")) == 1
        assert not (tmp_path / "r.json").exists()
        stderr = capsys.readouterr().err
        assert stderr.startswith(f"drstd: {mixed}:{len(lines) + 1}: "), stderr
        assert "YES/NO" in stderr

    def test_mtwv_flag(self, data_dir, tmp_path):
        cands = tmp_path / "c.tsv"
        decided = tmp_path / "d.tsv"
        report = tmp_path / "report.json"
        run("search", "--corpus", str(data_dir / "corpus.jsonl"),
            "--keywords", str(data_dir / "keywords.tsv"), "--out", str(cands))
        run("decide", "--in", str(cands), "--decision", "kst",
            "--trial-seconds", "3600", "--out", str(decided))
        assert run("score", "--hyp", str(decided),
                   "--ref", str(data_dir / "refs.tsv"), "--trial-seconds",
                   "3600", "--mtwv", "--out", str(report)) == 0
        payload = json.loads(report.read_text())
        assert report_layout(payload) == {
            **REPORT_KEYS, "aggregate": REPORT_KEYS["aggregate"] | MTWV_KEYS}
        aggregate = payload["aggregate"]
        assert aggregate["mtwv"] >= aggregate["atwv"] - 1e-12


class TestPipeline:
    @pytest.mark.parametrize("decision", [
        ["--decision", "kst"], ["--decision", "global", "--threshold", "0.3"]],
        ids=["kst", "global"])
    def test_byte_identical_to_chained_subcommands(self, data_dir, tmp_path,
                                                   decision):
        corpus = str(data_dir / "corpus.jsonl")
        keywords = str(data_dir / "keywords.tsv")
        refs = str(data_dir / "refs.tsv")
        piped = tmp_path / "piped"
        assert run("pipeline", "--corpus", corpus, "--keywords", keywords,
                   "--ref", refs, "--alpha", "0.1", *decision,
                   "--trial-seconds", "3600", "--out", str(piped)) == 0
        chained = tmp_path / "chained"
        chained.mkdir()
        assert run("search", "--corpus", corpus, "--keywords", keywords,
                   "--out", str(chained / "candidates.tsv")) == 0
        assert run("rescore", "--alpha", "0.1",
                   "--in", str(chained / "candidates.tsv"),
                   "--out", str(chained / "rescored.tsv"),
                   "--weights-out", str(chained / "weights.tsv")) == 0
        assert run("decide", "--in", str(chained / "rescored.tsv"),
                   *decision, "--trial-seconds", "3600",
                   "--out", str(chained / "decided.tsv")) == 0
        assert run("score", "--hyp", str(chained / "decided.tsv"), "--ref",
                   refs, "--trial-seconds", "3600",
                   "--out", str(chained / "report.json")) == 0
        for name in ("candidates.tsv", "rescored.tsv", "weights.tsv",
                     "decided.tsv", "report.json", "keyword_scores.tsv"):
            assert (piped / name).read_bytes() == \
                (chained / name).read_bytes(), name

    def test_rerun_manifest_identical(self, data_dir, tmp_path):
        refs = str(data_dir / "refs.tsv")
        pipeline = ["pipeline", "--corpus", str(data_dir / "corpus.jsonl"),
                    "--keywords", str(data_dir / "keywords.tsv"),
                    "--ref", refs, "--alpha", "0.1", "--trial-seconds", "3600"]
        diag = ["diag", "--in", str(tmp_path / "pipeline_a" / "candidates.tsv"),
                "--ref", refs, "--trial-seconds", "3600"]
        for argv in (pipeline, diag):
            name = f"{argv[0]}.manifest.json"
            a, b = tmp_path / f"{argv[0]}_a", tmp_path / f"{argv[0]}_b"
            assert run(*argv, "--out", str(a)) == 0
            assert run(*argv, "--out", str(b)) == 0
            assert (a / name).read_bytes() == (b / name).read_bytes(), name

    def test_hit_below_printable_score_written_as_zero(self, tmp_path, caplog):
        # "a b" matches with score 0.001 * 0.9995 * 0.0004 < 5e-7, which is
        # written as 0.000000: a keyword without mass, whose kst cut is 1.
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(
            '{"doc_id":"d1","slots":['
            '{"start":0,"dur":1,"arcs":[["a",0.001],["<eps>",0.999]]},'
            '{"start":1,"dur":1,"arcs":[["<eps>",0.9995],["x",0.0005]]},'
            '{"start":2,"dur":1,"arcs":[["b",0.0004],["<eps>",0.9996]]}]}\n')
        keywords = tmp_path / "keywords.tsv"
        keywords.write_text("P1\ta b\n")
        refs = tmp_path / "refs.tsv"
        refs.write_text("P1\td1\t0.0\t3.0\n")
        pipeline = ["pipeline", "--corpus", str(corpus), "--keywords",
                    str(keywords), "--ref", str(refs), "--alpha", "0.1"]
        # a fresh process, where nothing but main configures logging
        quiet = subprocess.run(
            [sys.executable, "-c",
             "import sys; from drstd.cli import main; sys.exit(main())",
             "--quiet", *pipeline, "--out", str(tmp_path / "quiet")],
            env={**os.environ,
                 "PYTHONPATH": str(Path(drstd.__file__).resolve().parents[1])},
            capture_output=True, text=True, timeout=120)
        assert (quiet.returncode, quiet.stdout, quiet.stderr) == (0, "", "")
        caplog.set_level(logging.INFO, logger="drstd")
        out = tmp_path / "run"
        assert main([*pipeline, "--out", str(out)]) == 0
        hit = Candidate("P1", "d1", 0.0, 3.0, 0.0)
        assert parse_occurrence_table(out / "candidates.tsv", "candidate") == [hit]
        assert parse_occurrence_table(out / "decided.tsv", "decided") == [
            hit._replace(decision="NO")]
        assert caplog.messages == [
            "rescore: 1 candidates, alpha=0.1", "decide: 0 YES of 1 (kst mode)",
            "score: ATWV 0.0000 over 1 keywords (mean Pmiss 1.0000, "
            "mean PFA 0.000000)", f"pipeline: alpha=0.1, kst decisions -> {out}"]
        caplog.clear()
        assert main(["search", "--corpus", str(corpus), "--keywords",
                     str(keywords), "--out", str(tmp_path / "c.tsv")]) == 0
        assert caplog.messages == ["search: 1 candidates for 1 keywords over 1 docs"]
        assert (tmp_path / "c.tsv").read_bytes() == \
            (out / "candidates.tsv").read_bytes()

    @pytest.mark.parametrize("flags,refs_text,message", [
        (["--trial-seconds", "2"], None, "trial_seconds 2.0 must exceed the "),
        ([], "# kw_id\tdoc_id\tstart\tdur\n", "no scoreable keywords"),
    ], ids=["short-trial", "no-references"])
    def test_failing_scoring_check_writes_nothing(self, data_dir, tmp_path,
                                                   capsys, flags, refs_text,
                                                   message):
        refs = data_dir / "refs.tsv"
        if refs_text is not None:
            refs = tmp_path / "refs.tsv"
            refs.write_text(refs_text)
        out = tmp_path / "run"
        assert run("pipeline", "--corpus", str(data_dir / "corpus.jsonl"),
                   "--keywords", str(data_dir / "keywords.tsv"),
                   "--ref", str(refs), "--alpha", "0.1", *flags,
                   "--out", str(out)) == 1
        stderr = capsys.readouterr().err
        assert stderr.count("\n") == 1
        assert stderr.startswith(f"drstd: {message}"), stderr
        assert not out.exists()

    def test_reads_no_table_it_wrote(self, data_dir, tmp_path, monkeypatch):
        """Each stage takes the table the stage before wrote as written: the
        one table parsed is --ref, and every line read is an input's."""
        from drstd import corpus_io, tables
        parsed, read = [], set()
        parse = cli.parse_occurrence_table
        monkeypatch.setattr(cli, "parse_occurrence_table",
                            lambda *args: parsed.append(args) or parse(*args))
        for module in (corpus_io, tables):
            monkeypatch.setattr(module, "_numbered_lines",
                                lambda path, lines=module._numbered_lines:
                                read.add(Path(path)) or lines(path))
        corpus, keywords, refs = (data_dir / name for name in (
            "corpus.jsonl", "keywords.tsv", "refs.tsv"))
        assert run("pipeline", "--corpus", str(corpus), "--keywords",
                   str(keywords), "--ref", str(refs), "--alpha", "0.1",
                   "--trial-seconds", "3600", "--out", str(tmp_path / "run")) == 0
        assert parsed == [(refs, "ref")]
        assert read == {corpus, keywords, refs}

    @pytest.mark.parametrize("trial_seconds", [[], ["--trial-seconds", "10"]],
                             ids=["corpus_seconds", "given_seconds"])
    @pytest.mark.parametrize("docs", [[], [
        ConfusionNetworkDoc("d1", ()),
        ConfusionNetworkDoc("d2", (Slot(1.0, 0.0, (("cat", 1.0),)),
                                   Slot(1.0, 0.0, (("dog", 1.0),))))]],
        ids=["no_documents", "zero_length_spans"])
    def test_corpus_of_no_seconds_named(self, tmp_path, capsys, docs,
                                        trial_seconds):
        # With no speech seconds in the corpus, the trial must be given.
        corpus, keywords, refs = (tmp_path / name for name in (
            "corpus.jsonl", "keywords.tsv", "refs.tsv"))
        write_cn_corpus(corpus, docs)
        write_keyword_list(keywords, [KeywordEntry("K1", ("cat",))])
        write_references(refs, [RefOccurrence("K1", "d1", 0.0, 0.4)])
        out = tmp_path / "run"
        code = run("pipeline", "--corpus", str(corpus), "--keywords",
                   str(keywords), "--ref", str(refs), "--alpha", "0.1",
                   *trial_seconds, "--out", str(out))
        if trial_seconds:
            assert code == 0
        else:
            assert code == 1
            assert capsys.readouterr().err.splitlines() == [
                f"drstd: {corpus}: documents span 0 seconds in all: give "
                "--trial-seconds"]
            assert not out.exists()

    def test_undefined_kst_cut_fails_after_rescore(self, tmp_path, capsys):
        # Two perfect hits rescore to N = 2, and T + (beta - 1) * N is 0.
        corpus, keywords, refs = (tmp_path / name for name in (
            "corpus.jsonl", "keywords.tsv", "refs.tsv"))
        write_cn_corpus(corpus, [ConfusionNetworkDoc("d1", (
            Slot(0.0, 0.5, (("cat", 1.0),)), Slot(1.0, 0.5, (("cat", 1.0),))))])
        write_keyword_list(keywords, [KeywordEntry("K1", ("cat",))])
        write_references(refs, [RefOccurrence("K1", "d1", 0.0, 0.5)])
        out = tmp_path / "run"
        assert run("pipeline", "--corpus", str(corpus), "--keywords",
                   str(keywords), "--ref", str(refs), "--alpha", "0.1",
                   "--beta", "0.25", "--trial-seconds", "1.5",
                   "--out", str(out)) == 1
        assert capsys.readouterr().err.splitlines() == [
            "drstd: keyword 'K1' has no KST threshold: beta*N / (T + (beta-1)*N) "
            "is nan at beta=0.25, T=1.5, N=2.0"]
        # the cut needs the rescored scores, so the stages before it wrote
        assert sorted(p.name for p in out.iterdir()) == [
            "candidates.tsv", "rescored.tsv", "weights.tsv"]


class TestSweepAndDiag:
    def test_sweep_csv(self, data_dir, tmp_path):
        cands = tmp_path / "c.tsv"
        run("search", "--corpus", str(data_dir / "corpus.jsonl"),
            "--keywords", str(data_dir / "keywords.tsv"), "--out", str(cands))
        out = tmp_path / "sweep.csv"
        assert run("sweep", "--in", str(cands),
                   "--ref", str(data_dir / "refs.tsv"),
                   "--alpha-grid", "0,0.1,0.2", "--trial-seconds", "3600",
                   "--out", str(out)) == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "alpha,atwv,mean_pmiss,mean_pfa"
        assert len(lines) == 4

    def test_diag_artifacts(self, data_dir, tmp_path):
        cands = tmp_path / "c.tsv"
        run("search", "--corpus", str(data_dir / "corpus.jsonl"),
            "--keywords", str(data_dir / "keywords.tsv"), "--out", str(cands))
        out = tmp_path / "diag"
        assert run("diag", "--in", str(cands),
                   "--ref", str(data_dir / "refs.tsv"),
                   "--trial-seconds", "3600", "--out", str(out)) == 0
        curve = (out / "rank_curve.csv").read_text().splitlines()
        assert curve[0] == "rank,avg_precision,avg_recall"
        diagnostics = json.loads((out / "diagnostics.json").read_text())
        assert "spearman_weight_precision" in diagnostics

    def test_diag_builds_doc_rows_once(self, data_dir, tmp_path, monkeypatch):
        from drstd import diagnostics
        cands = tmp_path / "c.tsv"
        run("search", "--corpus", str(data_dir / "corpus.jsonl"),
            "--keywords", str(data_dir / "keywords.tsv"), "--out", str(cands))
        calls = []
        build = diagnostics.doc_performance
        monkeypatch.setattr(diagnostics, "doc_performance",
                            lambda *args: calls.append(args) or build(*args))
        assert run("diag", "--in", str(cands),
                   "--ref", str(data_dir / "refs.tsv"),
                   "--trial-seconds", "3600", "--out", str(tmp_path / "diag")) == 0
        assert len(calls) == 1

    @staticmethod
    def _diag_strict(tmp_path, caplog, rows):
        cands, refs = tmp_path / "c.tsv", tmp_path / "r.tsv"
        cands.write_text("".join(f"{kw}\t{doc}\t0.0\t0.4\t0.9\n"
                                 for kw, doc in rows))
        refs.write_text("".join(f"{kw}\t{doc}\t0.0\t0.4\n" for kw, doc in rows))
        out = tmp_path / "diag"
        caplog.set_level(logging.INFO, logger="drstd")
        assert main(["diag", "--in", str(cands), "--ref", str(refs),
                     "--decision", "global", "--out", str(out)]) == 0

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        diagnostics = json.loads((out / "diagnostics.json").read_text(),
                                 parse_constant=reject)
        assert diagnostics["spearman_weight_precision"] is None
        assert diagnostics["spearman_weight_recall"] is None
        assert ("weight-precision rho undefined, weight-recall rho undefined"
                in caplog.text)
        return out

    def test_diag_zero_rank_variance_writes_null(self, tmp_path, caplog):
        # one document per keyword: every pooled weight is 1.0
        self._diag_strict(tmp_path, caplog, [("K1", "d1"), ("K2", "d2")])

    def test_diag_single_document_writes_null(self, tmp_path, caplog):
        out = self._diag_strict(tmp_path, caplog, [("K1", "d1")])
        assert (out / "rank_curve.csv").read_text().splitlines() == [
            "rank,avg_precision,avg_recall", "1,1.0,1.0"]

    @pytest.mark.parametrize("decision", ["global", "kst"])
    def test_diag_checks_its_trial_as_scoring_does(self, tmp_path, capsys,
                                                   decision):
        # a trial must exceed each keyword's true occurrences; references
        # that name no keyword leave nothing to check
        cands, refs, empty = (tmp_path / name for name in ("c.tsv", "r.tsv",
                                                           "empty.tsv"))
        cands.write_text("K1\td1\t0.0\t0.5\t0.5\n")
        refs.write_text("K1\td1\t0.0\t0.5\n")
        empty.write_text("")
        out = tmp_path / "out"
        flags = ["--decision", decision, "--trial-seconds", "0.5",
                 "--out", str(out)]
        for argv in (["sweep", "--alpha-grid", "0"], ["diag"]):
            assert run(*argv, "--in", str(cands), "--ref", str(refs),
                       *flags) == 1
            assert capsys.readouterr().err.splitlines() == [
                "drstd: trial_seconds 0.5 must exceed the 1 true occurrences "
                "of keyword 'K1'"]
            assert not out.exists()
        assert run("diag", "--in", str(cands), "--ref", str(empty), *flags) == 0
        assert json.loads((out / "diagnostics.json").read_text())[
            "trial_seconds"] == 0.5


# The config keys and input names each subcommand's manifest records.
MANIFEST_KEYS = {
    "search": ({"out"}, {"corpus", "keywords"}),
    "rescore": ({"alpha", "out", "weights_out"}, {"candidates"}),
    "decide": ({"decision", "threshold", "beta", "trial_seconds", "out"},
               {"candidates"}),
    "score": ({"beta", "trial_seconds", "delta", "mtwv", "out"},
              {"hypotheses", "references"}),
    "sweep": ({"alpha_grid", "decision", "threshold", "beta", "trial_seconds",
               "delta", "out"}, {"candidates", "references"}),
    "diag": ({"decision", "threshold", "beta", "trial_seconds", "delta",
              "max_rank"}, {"candidates", "references"}),
    "synth": ({"docs", "slots", "vocab", "keywords", "topic_affinity",
               "docs_per_topic", "noise", "seed"}, set()),
    "pipeline": ({"alpha", "decision", "threshold", "beta", "trial_seconds",
                  "delta"}, {"corpus", "keywords", "references"}),
}


def _compensated_sum(values, start=0):
    """sum() with float rounding compensated, as the builtin adds floats
    from Python 3.12 on; here exactly rounded by fsum."""
    values = [start, *values]
    if any(isinstance(value, float) for value in values):
        return math.fsum(values)
    return builtins.sum(values)


def test_totals_do_not_depend_on_the_sum_builtin(data_dir, tmp_path,
                                                 monkeypatch):
    """Each command writes the same bytes with sum() compensated in every
    drstd module, so its totals are the same on every Python."""
    corpus, keywords, refs = (str(data_dir / name) for name in (
        "corpus.jsonl", "keywords.tsv", "refs.tsv"))
    commands = (
        ["pipeline", "--corpus", corpus, "--keywords", keywords, "--ref", refs,
         "--alpha", "0.3", "--out", "{out}/pipeline"],
        ["score", "--hyp", "{out}/pipeline/decided.tsv", "--ref", refs,
         "--trial-seconds", "3600", "--mtwv", "--out", "{out}/score/r.json"],
        ["sweep", "--in", "{out}/pipeline/candidates.tsv", "--ref", refs,
         "--alpha-grid", "0,0.2,0.4,0.6,0.8,1", "--trial-seconds", "3600",
         "--out", "{out}/sweep.csv"],
        ["diag", "--in", "{out}/pipeline/candidates.tsv", "--ref", refs,
         "--trial-seconds", "3600", "--out", "{out}/diag"])

    def artifacts(out):
        """Run the commands into `out`; the bytes of all but the manifests."""
        for argv in commands:
            assert run(*(arg.format(out=out) for arg in argv)) == 0
        return {path.relative_to(out): path.read_bytes()
                for path in sorted(out.rglob("*"))
                if path.is_file() and not path.name.endswith(".manifest.json")}

    builtin = artifacts(tmp_path / "builtin")
    for name, module in list(sys.modules.items()):
        if name.startswith("drstd"):
            monkeypatch.setattr(module, "sum", _compensated_sum, raising=False)
    assert artifacts(tmp_path / "compensated") == builtin


def _manifest(directory, subcommand):
    return json.loads((directory / f"{subcommand}.manifest.json").read_text())


class TestManifests:
    def test_config_and_input_keys(self, data_dir, tmp_path):
        corpus, keywords, refs = (str(data_dir / name) for name in (
            "corpus.jsonl", "keywords.tsv", "refs.tsv"))
        cands, decided = str(tmp_path / "c.tsv"), str(tmp_path / "d.tsv")
        for argv in (
                ["search", "--corpus", corpus, "--keywords", keywords,
                 "--out", cands],
                ["rescore", "--in", cands, "--alpha", "0.1",
                 "--out", str(tmp_path / "r.tsv")],
                ["decide", "--in", cands, "--trial-seconds", "3600",
                 "--out", decided],
                ["score", "--hyp", decided, "--ref", refs, "--trial-seconds",
                 "3600", "--out", str(tmp_path / "report.json")],
                ["sweep", "--in", cands, "--ref", refs, "--alpha-grid", "0,0.1",
                 "--trial-seconds", "3600", "--out", str(tmp_path / "s.csv")],
                ["diag", "--in", cands, "--ref", refs, "--trial-seconds", "3600",
                 "--out", str(tmp_path / "diag")],
                ["pipeline", "--corpus", corpus, "--keywords", keywords,
                 "--ref", refs, "--alpha", "0.1", "--out", str(tmp_path / "run")]):
            assert run(*argv) == 0, argv
        where = {"synth": data_dir, "diag": tmp_path / "diag",
                 "pipeline": tmp_path / "run"}
        for subcommand, (config, inputs) in MANIFEST_KEYS.items():
            manifest = _manifest(where.get(subcommand, tmp_path), subcommand)
            assert manifest["subcommand"] == subcommand
            assert set(manifest["config"]) == config, subcommand
            assert set(manifest["inputs"]) == inputs, subcommand
            assert ("counts" in manifest) == (subcommand == "synth"), subcommand

    def test_recorded_values_are_those_the_run_used(self, data_dir, tmp_path):
        corpus, keywords, refs = (str(data_dir / name) for name in (
            "corpus.jsonl", "keywords.tsv", "refs.tsv"))
        cands = str(tmp_path / "c.tsv")
        assert run("search", "--corpus", corpus, "--keywords", keywords,
                   "--out", cands) == 0
        commands = {
            "decide": ["--in", cands, "--out", "{out}/d.tsv"],
            "sweep": ["--in", cands, "--ref", refs, "--alpha-grid", "0,0.1",
                      "--out", "{out}/s.csv"],
            "diag": ["--in", cands, "--ref", refs, "--out", "{out}"],
            "pipeline": ["--corpus", corpus, "--keywords", keywords,
                         "--ref", refs, "--alpha", "0.1", "--out", "{out}"],
        }
        for decision, threshold in (("kst", None), ("global", 0.3)):
            for command, argv in commands.items():
                out = tmp_path / decision / command
                assert run(command, *(a.format(out=out) for a in argv),
                           "--decision", decision, "--threshold", "0.3",
                           "--trial-seconds", "3600") == 0
                config = _manifest(out, command)["config"]
                assert config["threshold"] == threshold, (decision, command)
                assert config["trial_seconds"] == 3600.0
        # pipeline without --trial-seconds records the corpus's seconds
        out = tmp_path / "derived"
        assert run("pipeline", *(a.format(out=out)
                                 for a in commands["pipeline"])) == 0
        report = json.loads((out / "report.json").read_text())
        config = _manifest(out, "pipeline")["config"]
        assert config["trial_seconds"] == report["config"]["trial_seconds"] > 0
        assert config["threshold"] is None

    def test_global_decisions_without_trial_record_null(self, data_dir,
                                                        tmp_path):
        cands = str(tmp_path / "c.tsv")
        assert run("search", "--corpus", str(data_dir / "corpus.jsonl"),
                   "--keywords", str(data_dir / "keywords.tsv"),
                   "--out", cands) == 0
        assert run("decide", "--in", cands, "--decision", "global",
                   "--out", str(tmp_path / "d.tsv")) == 0
        assert run("diag", "--in", cands, "--ref", str(data_dir / "refs.tsv"),
                   "--decision", "global", "--out", str(tmp_path / "diag")) == 0
        diag = tmp_path / "diag"
        for payload in (_manifest(tmp_path, "decide")["config"],
                        _manifest(diag, "diag")["config"],
                        json.loads((diag / "diagnostics.json").read_text())):
            assert payload["trial_seconds"] is None

    def test_in_place_run_records_the_hash_its_input_had(self, data_dir,
                                                         tmp_path):
        table = tmp_path / "c.tsv"
        assert run("search", "--corpus", str(data_dir / "corpus.jsonl"),
                   "--keywords", str(data_dir / "keywords.tsv"),
                   "--out", str(table)) == 0
        for command, flags in (("rescore", ["--alpha", "0.1"]),
                               ("decide", ["--trial-seconds", "3600"])):
            before = hashlib.sha256(table.read_bytes()).hexdigest()
            assert run(command, "--in", str(table), *flags,
                       "--out", str(table)) == 0
            assert hashlib.sha256(table.read_bytes()).hexdigest() != before
            assert _manifest(tmp_path, command)["inputs"] == {
                "candidates": {"path": str(table), "sha256": before}}


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")
class TestPipeInput:
    """An input may be a pipe, as process substitution passes it: read in
    one pass, it names the line of a bad byte, and its manifest records a
    null hash. The write end is closed before the run, so a second read
    would find the pipe empty rather than wait."""

    @staticmethod
    @contextlib.contextmanager
    def pipe(data: bytes):
        assert len(data) <= 4096  # fits any pipe's buffer: the write ends
        read_end, write_end = os.pipe()
        try:
            os.write(write_end, data)
            os.close(write_end)
            yield f"/dev/fd/{read_end}"
        finally:
            os.close(read_end)

    @pytest.mark.parametrize("command,flag,text", [
        ("search", "--corpus", b'{"doc_id": "d1", "slots": []}\r\n\r\n\xe9\r\n'),
        ("rescore", "--in", b"K1\td1\t0.0\t0.5\t0.5\r\n\r\n\xe9\r\n"),
    ])
    def test_bad_byte_named_by_line(self, tmp_path, capsys, command, flag,
                                    text):
        keywords = tmp_path / "keywords.tsv"
        keywords.write_text("K1\tcat\n")
        other = {"search": ["--keywords", str(keywords)],
                 "rescore": ["--alpha", "0.1"]}[command]
        out = tmp_path / "out"
        with self.pipe(text) as path:
            assert run(command, flag, path, *other, "--out", str(out)) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"drstd: {path}:3: not UTF-8 text (byte 0xe9: invalid "
            "continuation byte)"]
        assert not out.exists()

    def test_manifest_records_null_hash(self, tmp_path):
        keywords, cands = tmp_path / "keywords.tsv", tmp_path / "c.tsv"
        keywords.write_text("K1\tcat\n")
        corpus = (b'{"doc_id": "d1", "slots": [{"start": 0.0, "dur": 0.5, '
                  b'"arcs": [["cat", 0.8], ["<eps>", 0.2]]}]}\n')
        with self.pipe(corpus) as path:
            assert run("search", "--corpus", path, "--keywords", str(keywords),
                       "--out", str(cands)) == 0
        assert _manifest(tmp_path, "search")["inputs"] == {
            "corpus": {"path": path, "sha256": None},
            "keywords": {"path": str(keywords), "sha256": hashlib.sha256(
                keywords.read_bytes()).hexdigest()}}
        assert cands.read_text().splitlines()[1:] == [
            "K1\td1\t0.0\t0.5\t0.800000"]
        with self.pipe(cands.read_bytes()) as path:
            assert run("rescore", "--in", path, "--alpha", "0.1",
                       "--out", str(tmp_path / "r.tsv")) == 0
        assert _manifest(tmp_path, "rescore")["inputs"] == {
            "candidates": {"path": path, "sha256": None}}


# Commands that write a file --out, each with its input flags.
OUT_FILE_COMMANDS = {
    "search": ["search", "--corpus", "{corpus}", "--keywords", "{keywords}"],
    "rescore": ["rescore", "--in", "{candidates}", "--alpha", "0.1",
                "--weights-out", "{new}/weights/w.tsv"],
    "decide": ["decide", "--in", "{candidates}", "--trial-seconds", "3600"],
    "score": ["score", "--hyp", "{decided}", "--ref", "{refs}",
              "--trial-seconds", "3600"],
    "sweep": ["sweep", "--in", "{candidates}", "--ref", "{refs}",
              "--alpha-grid", "0,0.1", "--trial-seconds", "3600"],
}


@pytest.mark.parametrize("command", OUT_FILE_COMMANDS)
def test_out_parent_made_on_first_write(data_dir, tmp_path, command):
    """A missing parent of --out is created once the run has succeeded, and
    a failed run leaves it missing."""
    cands, decided = tmp_path / "c.tsv", tmp_path / "d.tsv"
    assert run("search", "--corpus", str(data_dir / "corpus.jsonl"),
               "--keywords", str(data_dir / "keywords.tsv"),
               "--out", str(cands)) == 0
    assert run("decide", "--in", str(cands), "--trial-seconds", "3600",
               "--out", str(decided)) == 0
    good = {"corpus": data_dir / "corpus.jsonl",
            "keywords": data_dir / "keywords.tsv", "candidates": cands,
            "decided": decided, "refs": data_dir / "refs.tsv"}
    bad = tmp_path / "bad.tsv"
    bad.write_text("bad\n")
    new = tmp_path / "new"
    out = new / "out" / "result"
    for files, code in (({name: bad for name in good}, 1), (good, 0)):
        argv = [arg.format(new=new, **files) for arg in OUT_FILE_COMMANDS[command]]
        assert run(*argv, "--out", str(out)) == code
        assert new.exists() == (code == 0)
    assert out.is_file()
    assert _manifest(out.parent, command)["config"]["out"] == str(out)
    if command == "rescore":
        assert (new / "weights" / "w.tsv").is_file()


@pytest.fixture(scope="module")
def zero_mass_tables(tmp_path_factory):
    """The directory of a `pipeline` run whose tables hold a row of score
    0.000000, the one hit of keyword P1, next to K2's hits of mass."""
    work = tmp_path_factory.mktemp("zero_mass")
    (work / "corpus.jsonl").write_text(
        '{"doc_id":"d1","slots":['
        '{"start":0,"dur":1,"arcs":[["a",0.001],["<eps>",0.999]]},'
        '{"start":1,"dur":1,"arcs":[["b",0.0004],["c",0.9996]]}]}\n'
        '{"doc_id":"d2","slots":[{"start":0,"dur":1,"arcs":[["c",0.5],["b",0.5]]}]}\n')
    (work / "keywords.tsv").write_text("P1\ta b\nK2\tc\n")
    (work / "refs.tsv").write_text("P1\td1\t0.0\t2.0\nK2\td1\t1.0\t1.0\n")
    assert run("pipeline", "--corpus", str(work / "corpus.jsonl"),
               "--keywords", str(work / "keywords.tsv"),
               "--ref", str(work / "refs.tsv"), "--alpha", "0.5",
               "--trial-seconds", "3600", "--out", str(work / "run")) == 0
    assert "P1\td1\t0.0\t2.0\t0.000000" in \
        (work / "run" / "candidates.tsv").read_text().splitlines()
    return work


@pytest.mark.parametrize("table", ["candidates.tsv", "rescored.tsv", "decided.tsv"])
@pytest.mark.parametrize("command", ["rescore", "decide", "sweep", "diag"])
def test_every_stage_takes_every_candidate_table(zero_mass_tables, tmp_path,
                                                 command, table):
    """The north star: each stage that takes candidates accepts every table
    a stage writes, its own included, and a score of 0 in it."""
    refs = str(zero_mass_tables / "refs.tsv")
    argv = {"rescore": ["--alpha", "0.5"], "decide": ["--trial-seconds", "3600"],
            "sweep": ["--ref", refs, "--alpha-grid", "0,0.5,1",
                      "--trial-seconds", "3600"],
            "diag": ["--ref", refs, "--trial-seconds", "3600"]}[command]
    assert run(command, "--in", str(zero_mass_tables / "run" / table), *argv,
               "--out", str(tmp_path / "out")) == 0


class TestErrorHandling:
    def test_missing_file_is_io_error(self, tmp_path):
        assert run("search", "--corpus", str(tmp_path / "nope.jsonl"),
                   "--keywords", str(tmp_path / "kw.tsv"),
                   "--out", str(tmp_path / "c.tsv")) == 2

    def test_unknown_flag_is_validation_error(self):
        assert run("index", "--frobnicate") == 1

    def test_schema_violation_is_validation_error(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"doc_id": "d1", "slots": [{"start": 0, "dur": 1, '
                       '"arcs": [["a", 0.4], ["b", 0.4]]}]}\n')
        kw = tmp_path / "kw.tsv"
        kw.write_text("K1\ta\n")
        assert run("search", "--corpus", str(bad), "--keywords", str(kw),
                   "--out", str(tmp_path / "c.tsv")) == 1

    def test_malformed_corpus_line_after_valid_docs_writes_nothing(
            self, data_dir, tmp_path):
        corpus = tmp_path / "corpus.jsonl"
        valid = (data_dir / "corpus.jsonl").read_text().splitlines()[:3]
        corpus.write_text("\n".join(valid) + '\n{"doc_id": "late", "slots": 5}\n')
        keywords = str(data_dir / "keywords.tsv")
        assert run("search", "--corpus", str(corpus), "--keywords", keywords,
                   "--out", str(tmp_path / "c.tsv")) == 1
        assert run("pipeline", "--corpus", str(corpus), "--keywords", keywords,
                   "--ref", str(data_dir / "refs.tsv"), "--alpha", "0.1",
                   "--out", str(tmp_path / "run")) == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["corpus.jsonl"]

    @pytest.mark.parametrize("header,shown", [
        (False, "\\ufeffKW0001"), (True, "\\ufeff# kw_id")],
        ids=["no_header", "header"])
    def test_keyword_list_with_bom_named(self, data_dir, tmp_path, capsys,
                                         header, shown):
        # An editor's UTF-8 byte-order mark would make the first kw_id
        # another keyword's, whose hits no reference could match.
        text = (data_dir / "keywords.tsv").read_text(encoding="utf-8")
        if not header:
            text = text.split("\n", 1)[1]
        assert text.startswith("# kw_id" if header else "KW0001\t")
        keywords = tmp_path / "keywords.tsv"
        keywords.write_text("\ufeff" + text, encoding="utf-8")
        out = tmp_path / "run"
        assert run("pipeline", "--corpus", str(data_dir / "corpus.jsonl"),
                   "--keywords", str(keywords), "--ref", str(data_dir / "refs.tsv"),
                   "--alpha", "0.1", "--out", str(out)) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"drstd: {keywords}:1: kw_id '{shown}' holds a space or an "
            "unprintable character"]
        assert not out.exists()

    def test_doc_id_with_tab_rejected_before_anything_is_written(
            self, tmp_path, capsys):
        corpus, keywords, refs = (tmp_path / name for name in (
            "corpus.jsonl", "keywords.tsv", "refs.tsv"))
        write_cn_corpus(corpus, _TAB_DOC[0])
        write_keyword_list(keywords, _TAB_DOC[1])
        write_references(refs, _TAB_DOC[2])
        assert run("search", "--corpus", str(corpus), "--keywords",
                   str(keywords), "--out", str(tmp_path / "c.tsv")) == 1
        assert run("pipeline", "--corpus", str(corpus), "--keywords",
                   str(keywords), "--ref", str(refs), "--alpha", "0.1",
                   "--trial-seconds", "1000", "--out", str(tmp_path / "run")) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 2, lines
        for line in lines:
            assert line.startswith(f"drstd: {corpus}:1: doc_id 'a\\tb'"), line
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "corpus.jsonl", "keywords.tsv", "refs.tsv"]

    @pytest.mark.parametrize("argv,fragment", [
        (["score", "--hyp", "h", "--ref", "r", "--trial-seconds", "nan"], "> 0"),
        (["score", "--hyp", "h", "--ref", "r", "--trial-seconds", "3600",
          "--delta", "nan"], "> 0"),
        (["score", "--hyp", "h", "--ref", "r", "--trial-seconds", "3600",
          "--beta", "-1"], "> 0"),
        (["decide", "--in", "c", "--beta", "nan", "--trial-seconds", "3600"],
         "> 0"),
        (["decide", "--in", "c", "--trial-seconds", "nan"], "> 0"),
        (["decide", "--in", "c", "--trial-seconds", "0"], "> 0"),
        # Flags follow the number rule of the tables: no digit-group
        # underscores, surrounding whitespace or non-ASCII digits.
        (["decide", "--in", "c", "--trial-seconds", "7_000"],
         "expected a finite float > 0, got '7_000'"),
        (["decide", "--in", "c", "--trial-seconds", " 7000 "],
         "expected a finite float > 0, got ' 7000 '"),
        (["decide", "--in", "c", "--trial-seconds", "\u0667\u0660\u0660\u0660"],
         "expected a finite float > 0, got '\u0667\u0660\u0660\u0660'"),
        (["synth", "--docs", "\u0663", "--keywords", "2", "--seed", "1"],
         "--docs: expected a finite int > 0, got '\u0663'"),
        (["synth", "--docs", "3", "--keywords", "1_0", "--seed", "1"],
         "--keywords: expected a finite int > 0, got '1_0'"),
        (["synth", "--docs", "3", "--keywords", "2", "--seed", " 1"],
         "--seed: expected an int >= 0, got ' 1'"),
        (["pipeline", "--corpus", "c", "--keywords", "k", "--ref", "r",
          "--alpha", "0.1", "--trial-seconds", "inf"], "> 0"),
        (["sweep", "--in", "c", "--ref", "r", "--alpha-grid", "0",
          "--trial-seconds", "3600", "--delta", "-0.5"], "> 0"),
        (["diag", "--in", "c", "--ref", "r", "--trial-seconds", "3600",
          "--max-rank", "-3"], "> 0"),
        (["diag", "--in", "c", "--ref", "r", "--trial-seconds", "3600",
          "--max-rank", "0"], "> 0"),
        (["pipeline", "--corpus", "c", "--keywords", "k", "--ref", "r",
          "--alpha", "1.5"], "--alpha: expected a finite float in [0, 1]"),
        (["rescore", "--in", "c", "--alpha", "nan"], "in [0, 1], got 'nan'"),
        (["sweep", "--in", "c", "--ref", "r", "--alpha-grid", "0,7",
          "--trial-seconds", "3600"], "--alpha-grid: expected a finite float"),
        (["sweep", "--in", "c", "--ref", "r", "--alpha-grid", "0.1,,0.2,",
          "--trial-seconds", "3600"],
         "drstd: argument --alpha-grid: expected a finite float in [0, 1], "
         "got ''"),
        (["pipeline", "--corpus", "c", "--keywords", "k", "--ref", "r",
          "--alpha", "0.1", "--threshold", "1.5"],
         "--threshold: expected a finite float in [0, 1]"),
        (["decide", "--in", "c", "--threshold", "nan", "--trial-seconds",
          "3600"], "in [0, 1], got 'nan'"),
        (["decide", "--in", "c", "--decision", "kst"],
         "--trial-seconds is required with --decision kst"),
        (["sweep", "--in", "c", "--ref", "r", "--alpha-grid", "0",
          "--decision", "kst"], "--trial-seconds is required with --decision kst"),
        (["diag", "--in", "c", "--ref", "r", "--decision", "kst"],
         "--trial-seconds is required with --decision kst"),
        (["sweep", "--in", "c", "--ref", "r", "--alpha-grid", "0",
          "--decision", "global"], "--trial-seconds is required: sweep scores ATWV"),
        (["score", "--hyp", "h", "--ref", "r", "--trial-seconds", "3600",
          "--detail-out", "x"], "unrecognized arguments: --detail-out x"),
    ])
    def test_non_finite_or_non_positive_flag_rejected(self, tmp_path, capsys,
                                                       argv, fragment):
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)]) == 1
        stderr = capsys.readouterr().err
        assert len(stderr.splitlines()) == 1, stderr
        assert fragment in stderr
        assert not out.exists()

    def test_zero_score_row_taken_by_rescoring_commands(self, tmp_path):
        # a score of 0 adds no mass; its row still takes its document's weight
        cands, refs = tmp_path / "c.tsv", tmp_path / "r.tsv"
        cands.write_text("# kw_id\tdoc_id\tstart\tdur\tscore\n"
                         "K1\td1\t3.0\t0.5\t0.5\n\n"
                         "K1\td1\t1.0\t0.5\t0.000000\n")
        refs.write_text("K1\td1\t1.0\t0.5\n")
        out = tmp_path / "out"
        inputs = ["--in", str(cands)]
        assert run("rescore", *inputs, "--alpha", "0.1",
                   "--out", str(out / "r.tsv")) == 0
        assert parse_occurrence_table(out / "r.tsv", "candidate")[0] == \
            Candidate("K1", "d1", 1.0, 0.5, 0.1 * 1.0)
        assert run("sweep", *inputs, "--ref", str(refs), "--alpha-grid", "0,1",
                   "--trial-seconds", "3600", "--out", str(out / "s.csv")) == 0
        assert run("diag", *inputs, "--ref", str(refs), "--trial-seconds", "3600",
                   "--out", str(out / "diag")) == 0
        assert run("decide", *inputs, "--trial-seconds", "3600",
                   "--out", str(tmp_path / "d.tsv")) == 0
        assert run("score", "--hyp", str(tmp_path / "d.tsv"), "--ref", str(refs),
                   "--trial-seconds", "3600", "--out", str(out / "report.json")) == 0

    def test_rescored_zero_score_taken_by_rescoring_commands(self, tmp_path):
        # at alpha 1, d2's score becomes its weight, 5e-9, written as 0
        cands, refs = tmp_path / "c.tsv", tmp_path / "r.tsv"
        cands.write_text("".join(f"K1\td1\t{i}.0\t0.5\t1.000000\n"
                                 for i in range(200))
                         + "K1\td2\t0.0\t0.5\t0.000001\n")
        refs.write_text("K1\td1\t0.0\t0.5\n")
        rescored = tmp_path / "rescored.tsv"
        assert run("rescore", "--in", str(cands), "--alpha", "1",
                   "--out", str(rescored)) == 0
        assert rescored.read_text().splitlines()[201] == "K1\td2\t0.0\t0.5\t0.000000"
        decided = tmp_path / "decided.tsv"
        assert run("decide", "--in", str(rescored), "--trial-seconds", "3600",
                   "--out", str(decided)) == 0
        assert run("score", "--hyp", str(decided), "--ref", str(refs),
                   "--trial-seconds", "3600",
                   "--out", str(tmp_path / "report.json")) == 0
        out = tmp_path / "out"
        inputs = ["--in", str(rescored)]
        assert run("rescore", *inputs, "--alpha", "0.5",
                   "--out", str(out / "r.tsv")) == 0
        assert run("sweep", *inputs, "--ref", str(refs), "--alpha-grid", "0,1",
                   "--trial-seconds", "3600", "--out", str(out / "s.csv")) == 0
        assert run("diag", *inputs, "--ref", str(refs), "--trial-seconds", "3600",
                   "--out", str(out / "diag")) == 0

    @pytest.mark.parametrize("beta,trial_seconds,cut", [
        ("0.5", "1", "nan"), ("0.25", "1", "-1.0"), ("1e308", "100", "nan")],
        ids=["zero-denominator", "negative", "overflow"])
    def test_undefined_kst_cut_is_one_line(self, tmp_path, capsys, beta,
                                           trial_seconds, cut):
        cands, refs = tmp_path / "c.tsv", tmp_path / "r.tsv"
        cands.write_text("K1\td1\t0.0\t0.5\t1.000000\n"
                         "K1\td1\t1.0\t0.5\t1.000000\n")
        refs.write_text("K1\td1\t0.0\t0.5\n")
        out = tmp_path / "out"
        flags = ["--beta", beta, "--trial-seconds", trial_seconds, "--out", str(out)]
        for argv in (["decide", "--in", str(cands)],
                     ["sweep", "--in", str(cands), "--ref", str(refs),
                      "--alpha-grid", "0"],
                     ["diag", "--in", str(cands), "--ref", str(refs)]):
            assert run(*argv, *flags) == 1
            assert capsys.readouterr().err.splitlines() == [
                f"drstd: keyword 'K1' has no KST threshold: beta*N / "
                f"(T + (beta-1)*N) is {cut} at beta={float(beta)}, "
                f"T={float(trial_seconds)}, N=2.0"]
            assert not out.exists()

    @pytest.mark.parametrize("command,bad", [
        ("search", "corpus"), ("search", "keywords"), ("rescore", "candidates"),
        ("score", "references")])
    def test_undecodable_input_named_by_line(self, tmp_path, capsys, command,
                                             bad):
        files = {"corpus": '{"doc_id": "d1", "slots": []}',
                 "keywords": "K1\tcat", "candidates": "K1\td1\t0.0\t0.5\t0.5\tYES",
                 "references": "K1\td1\t0.0\t0.5"}
        for name, line in files.items():
            path = tmp_path / name
            path.write_bytes(line.encode() + b"\r\n\r\n"
                             + (b"\xe9\r\n" if name == bad else b""))
        flags = {"search": ["--corpus", "corpus", "--keywords", "keywords"],
                 "rescore": ["--in", "candidates", "--alpha", "0.1"],
                 "score": ["--hyp", "candidates", "--ref", "references",
                           "--trial-seconds", "10"]}[command]
        argv = [str(tmp_path / flag) if flag in files else flag for flag in flags]
        out = tmp_path / "out"
        assert run(command, *argv, "--out", str(out)) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"drstd: {tmp_path / bad}:3: not UTF-8 text (byte 0xe9: invalid "
            "continuation byte)"]
        assert not out.exists()

    def test_kst_requires_trial_seconds(self, tmp_path):
        cands = tmp_path / "c.tsv"
        cands.write_text("K1\td1\t0.0\t0.4\t0.5\n")
        assert run("decide", "--in", str(cands), "--decision", "kst",
                   "--out", str(tmp_path / "d.tsv")) == 1

    @pytest.mark.parametrize("docs,fragment", [
        ([[(-1e308, 0.4, "cat"), (1e308, 0.4, "dog")]],
         ":1: doc 'd1' slot 1: span from the first slot start -1e+308"),
        ([[(1e308, 1e308, "cat")], [(0.0, 0.4, "cat")]],
         ":1: doc 'd1' slot 0: span from the first slot start 1e+308"),
        ([[(0.0, 1e308, "cat")], [(0.0, 1e308, "cat")]],
         ": documents span inf seconds in all"),
    ], ids=["slot_to_slot", "slot_end", "corpus_total"])
    @pytest.mark.parametrize("trial_seconds", [[], ["--trial-seconds", "1000"]],
                             ids=["corpus_seconds", "given_seconds"])
    def test_corpus_times_overflowing_rejected_before_anything_is_written(
            self, tmp_path, capsys, docs, fragment, trial_seconds):
        corpus, keywords, refs = (tmp_path / name for name in (
            "corpus.jsonl", "keywords.tsv", "refs.tsv"))
        write_cn_corpus(corpus, [
            ConfusionNetworkDoc(f"d{i}", tuple(
                Slot(start, dur, ((token, 1.0),)) for start, dur, token in doc))
            for i, doc in enumerate(docs, 1)])
        write_keyword_list(keywords, [KeywordEntry("K1", ("cat", "dog")),
                                      KeywordEntry("K2", ("cat",))])
        write_references(refs, [RefOccurrence("K1", "d1", 0.0, 0.4)])
        out = tmp_path / "run"
        assert run("pipeline", "--corpus", str(corpus), "--keywords",
                   str(keywords), "--ref", str(refs), "--alpha", "0.1",
                   *trial_seconds, "--out", str(out)) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1, lines
        assert lines[0].startswith(f"drstd: {corpus}{fragment}"), lines
        assert not out.exists()

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert "drstd" in capsys.readouterr().out


# A valid line of every input file (%d numbers its ids); the fuzz test
# below replaces one file with valid lines, a fuzzed one and a bad one.
VALID_ROWS = {
    "corpus": '{"doc_id": "d%d", "slots": [{"start": 0.0, "dur": 1.0, '
              '"arcs": [["a", 0.6], ["<eps>", 0.4]]}]}',
    "keywords": "K%d\ta",
    "candidates": "K1\td%d\t0.0\t1.0\t0.6",
    "decided": "K1\td%d\t0.0\t1.0\t0.6\tYES",
    "refs": "K1\td%d\t0.0\t1.0",
}
# One line each input must reject, so that every fuzzed file is invalid.
INVALID_LINES = {
    "corpus": ["{", "[]", "NaN", '{"doc_id": "x", "slots": 5}',
               '{"doc_id": "", "slots": []}', '{"doc_id": "a\\tb", "slots": []}',
               '{"doc_id": "\\ufeffx", "slots": []}',
               '{"doc_id": "a\\u00a0b", "slots": []}',
               '{"doc_id": "a\\u200bb", "slots": []}', '{"doc_id": "a b", "slots": []}',
               '{"doc_id": "x", "slots": [{"start": 0, "dur": Infinity, '
               '"arcs": [["a", 1]]}]}',
               '{"doc_id": "x", "slots": [{"start": 0, "dur": 1, '
               '"arcs": [["a b", 1]]}]}',
               '{"doc_id": "x", "slots": [{"start": 0, "dur": 1, '
               '"arcs": [[null, 1]]}]}',
               '{"doc_id": "x", "slots": [{"start": 1e308, "dur": 1e308, '
               '"arcs": [["a", 1]]}]}'],
    "keywords": ["K", "K\t ", "K\ta\tb", "\ufeffK\ta", "K\u00a01\ta",
                 "K\u200b\ta", "K 1\ta"],
    "candidates": ["K\td\t0\t1", "K\td\tinf\t1\t0.5", "K\td\t0\t1\t2",
                   "K\td\t0\t-1\t0.5", "K\td\t0\t1\t0.5\tmaybe",
                   "\ufeffK\td\t0\t1\t0.5", "K\td\u00a0\t0\t1\t0.5"],
    "decided": ["K\td\t0\t1\t0.5\tmaybe", "K\td\t0\t1\tnan\tYES",
                "K\td\t0\t1", "K\td\t0\t1\t0.5",
                "K\u200b\td\t0\t1\t0.5\tYES", "K\t d\t0\t1\t0.5\tYES"],
    "refs": ["K\td\t0\t0", "K\td\t0\tinf", "K\td\t0", "K\td\tx\t1",
             "\ufeffK\td\t0\t1", "K\td\u200b\t0\t1", "K 1\td\t0\t1",
             "K\td\u00a0\t0\t1"],
}
FUZZ_COMMANDS = {
    "search": ["search", "--corpus", "{corpus}", "--keywords", "{keywords}",
               "--out", "{out}"],
    "rescore": ["rescore", "--in", "{candidates}", "--alpha", "0.1",
                "--out", "{out}"],
    "decide": ["decide", "--in", "{candidates}", "--trial-seconds", "3600",
               "--out", "{out}"],
    "score": ["score", "--hyp", "{decided}", "--ref", "{refs}",
              "--trial-seconds", "3600", "--out", "{out}"],
}

_text = st.text(st.characters(blacklist_categories=("Cs",),
                              blacklist_characters="\t\n\r"), max_size=6)
_number = st.one_of(st.floats(), st.integers(-10**30, 10**30),
                    st.sampled_from(["inf", "-inf", "nan", "1e999", "-0.0"]))
TSV_ROWS = st.lists(st.one_of(_text, _number.map(str),
                              st.sampled_from(["YES", "NO", "#", ""])),
                    max_size=7).map("\t".join)
_json = st.recursive(
    st.one_of(st.none(), st.booleans(), st.floats(), st.integers(), _text),
    lambda children: st.one_of(
        st.lists(children, max_size=3),
        st.dictionaries(st.one_of(st.sampled_from(
            ["doc_id", "slots", "start", "dur", "arcs"]), _text),
            children, max_size=4)),
    max_leaves=10)
_docs = st.fixed_dictionaries({
    "doc_id": st.one_of(_text, _json),
    "slots": st.one_of(_json, st.lists(st.fixed_dictionaries({
        "start": st.one_of(_number, _json), "dur": st.one_of(_number, _json),
        "arcs": st.one_of(_json, st.lists(st.lists(
            st.one_of(_text, _number, _json), max_size=3), max_size=3)),
    }), max_size=3)),
})
JSON_ROWS = st.one_of(_json, _docs).map(json.dumps)


@pytest.mark.parametrize("command,fuzzed", [
    ("search", "corpus"), ("search", "keywords"), ("rescore", "candidates"),
    ("decide", "candidates"), ("score", "decided"), ("score", "refs"),
])
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_fuzzed_input_fails_in_one_line(tmp_path_factory, command, fuzzed,
                                        data):
    # Valid lines first, so that the fuzzed line is always parsed; the bad
    # line makes the file invalid even when the fuzzed line is not.
    lines = [VALID_ROWS[fuzzed] % i for i in range(data.draw(st.integers(0, 2)))]
    tail = [data.draw(JSON_ROWS if fuzzed == "corpus" else TSV_ROWS),
            data.draw(st.sampled_from(INVALID_LINES[fuzzed]))]
    if data.draw(st.booleans()):
        tail.reverse()
    work = tmp_path_factory.mktemp("fuzz")
    paths = {"out": str(work / "out")}
    for name, row in VALID_ROWS.items():
        path = work / name
        path.write_text("\n".join(lines + tail if name == fuzzed else [row % 0])
                        + "\n", encoding="utf-8")
        paths[name] = str(path)
    argv = [arg.format(**paths) for arg in FUZZ_COMMANDS[command]]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["--quiet", *argv])
    stderr = err.getvalue()
    assert code in (1, 2)
    assert len(stderr.splitlines()) == 1, stderr
    assert "Traceback" not in stderr


_any_text = st.text(st.characters(blacklist_categories=("Cs",)), max_size=4)
# Ids the readers accept, in any script: no character that `str.isprintable`
# refuses (categories C and Z but the space) and no space.
_id_text = st.text(st.characters(blacklist_categories=(
    "Cc", "Cf", "Cs", "Co", "Cn", "Zl", "Zp", "Zs")), min_size=1, max_size=4)


@st.composite
def own_inputs(draw):
    """A corpus of the shape `parse_cn_corpus` accepts, with arbitrary
    Unicode doc_ids (as often ids the readers accept) and tokens, plus
    keywords made of its tokens and references to its documents."""
    vocab = draw(st.lists(_any_text, min_size=1, max_size=4, unique=True))
    doc_ids = draw(st.lists(st.one_of(_id_text, _any_text.filter(bool)),
                            min_size=1, max_size=3, unique=True))
    docs = []
    for doc_id in doc_ids:
        slots, clock = [], 0.0
        for _ in range(draw(st.integers(0, 5))):
            clock += draw(st.floats(0, 10))
            tokens = draw(st.lists(st.sampled_from(vocab), max_size=3))
            if draw(st.booleans()) or not tokens:
                tokens.append(EPS_TOKEN)
            weights = draw(st.lists(st.floats(1e-9, 1), min_size=len(tokens),
                                    max_size=len(tokens)))
            arcs = tuple((token, weight / sum(weights))
                         for token, weight in zip(tokens, weights))
            slots.append(Slot(clock, draw(st.floats(0, 10)), arcs))
        docs.append(ConfusionNetworkDoc(doc_id, tuple(slots)))
    keywords = [KeywordEntry(f"K{i}", tuple(draw(st.lists(
        st.sampled_from(vocab), min_size=1, max_size=3))))
        for i in range(draw(st.integers(1, 3)))]
    refs = draw(st.lists(st.builds(
        RefOccurrence, st.sampled_from([kw.kw_id for kw in keywords]),
        st.sampled_from(doc_ids), st.floats(0, 50), st.floats(0.01, 5)),
        min_size=1, max_size=4))
    return docs, keywords, refs


_TAB_DOC = ([ConfusionNetworkDoc(doc_id, (Slot(0.0, 0.4, (("cat", 1.0),)),))
             for doc_id in ("a\tb", "d2")],
            [KeywordEntry("K1", ("cat",))], [RefOccurrence("K1", "d2", 0.0, 0.4)])


@given(inputs=own_inputs(), alpha=st.sampled_from(["0", "0.1", "1"]),
       decision=st.sampled_from(["kst", "global"]))
@example(inputs=_TAB_DOC, alpha="0.1", decision="kst")
@settings(max_examples=100, deadline=None)
def test_pipeline_accepts_what_its_parsers_accept(tmp_path_factory, inputs,
                                                  alpha, decision):
    """`pipeline` runs on whatever the writers of its input formats write,
    or fails in one line that names no file under its own --out."""
    docs, keywords, refs = inputs
    work = tmp_path_factory.mktemp("own")
    write_cn_corpus(work / "corpus.jsonl", docs)
    write_keyword_list(work / "keywords.tsv", keywords)
    write_references(work / "refs.tsv", refs)
    out = work / "run"
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["--quiet", "pipeline", "--corpus", str(work / "corpus.jsonl"),
                     "--keywords", str(work / "keywords.tsv"),
                     "--ref", str(work / "refs.tsv"), "--alpha", alpha,
                     "--decision", decision, "--trial-seconds", "1000",
                     "--out", str(out)])
    stderr = err.getvalue()
    assert code in (0, 1), stderr
    if code == 1:
        assert len(stderr.splitlines()) == 1, stderr
        assert str(out) not in stderr, stderr
    else:  # what pipeline handed on in memory, its readers accept
        for name, kind in (("candidates.tsv", "candidate"),
                           ("rescored.tsv", "candidate"), ("decided.tsv", "decided")):
            parse_occurrence_table(out / name, kind)


def _subcommands():
    (subs,) = [action for action in cli.build_parser()._actions
               if isinstance(action, argparse._SubParsersAction)]
    return subs.choices


# The checked-number flag types; `--alpha-grid` checks each of its items.
_NUMBER_TYPES = {cli._POSITIVE_FLOAT, cli._POSITIVE_INT, cli._NON_NEGATIVE_INT,
                 cli._UNIT_INTERVAL, cli._parse_grid}
_NUMBER_FLAGS = [(name, action.option_strings[0])
                 for name, sub in _subcommands().items()
                 for action in sub._actions if action.type in _NUMBER_TYPES]


@pytest.mark.parametrize("subcommand,flag", _NUMBER_FLAGS,
                         ids=[" ".join(pair) for pair in _NUMBER_FLAGS])
def test_every_number_flag_rejects_bad_values(tmp_path, capsys, subcommand,
                                              flag):
    required = {action.option_strings[0]:
                "1" if action.type in _NUMBER_TYPES else str(tmp_path / "f")
                for action in _subcommands()[subcommand]._actions
                if action.required}
    # The last three are in every flag's range, but break the number rule.
    for value in ("nan", "inf", "-1", "x", "", " 1", "0_1", "\u0661"):
        argv = {**required, flag: value}
        assert main([subcommand, *(f"{name}={text}"
                                   for name, text in argv.items())]) == 1
        err = capsys.readouterr().err
        assert re.fullmatch(rf"drstd: argument {flag}: expected [^\n]+, "
                            rf"got {re.escape(repr(value))}\n", err), err
    assert not any(tmp_path.iterdir())


_PATH_FLAGS = [(name, action.option_strings[0])
               for name, sub in _subcommands().items()
               for action in sub._actions
               if action.type is cli._path]


@pytest.mark.parametrize("subcommand,flag", _PATH_FLAGS,
                         ids=[" ".join(pair) for pair in _PATH_FLAGS])
def test_every_path_flag_rejects_the_empty_string(tmp_path, capsys, subcommand,
                                                  flag):
    """'' reads as the working directory to Path, so it is rejected before
    anything is read or written, naming its flag. `--weights-out`, kept a
    str, is checked in `TestRescoreCommand`."""
    argv = {action.option_strings[0]:
            "1" if action.type in _NUMBER_TYPES else str(tmp_path / "f")
            for action in _subcommands()[subcommand]._actions if action.required}
    argv[flag] = ""
    assert main([subcommand, *(f"{name}={text}"
                               for name, text in argv.items())]) == 1
    assert capsys.readouterr().err == (
        f"drstd: argument {flag}: expected a path, got ''\n")
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("flag", ["--alpha", "--beta", "--delta", "--trial-seconds"])
def test_shared_flag_is_declared_alike_everywhere(flag):
    """Type, default, help and whether it is required agree on every
    subcommand that takes the flag; only `score` requires --trial-seconds."""
    declared = {name: (action.type, action.default, action.help,
                       action.required and (name, flag) != ("score", "--trial-seconds"))
                for name, sub in _subcommands().items()
                for action in sub._actions if flag in action.option_strings}
    assert len(declared) >= 2, declared
    assert len(set(declared.values())) == 1, declared
    assert next(iter(declared.values()))[2], f"{flag} has no help"
    if flag == "--trial-seconds":
        assert _subcommands()["score"]._option_string_actions[flag].required


# Runs in a fresh interpreter: importing the package loads none of its
# modules, and every command but synth must leave numpy unloaded, and
# logging and csv too under --quiet.
_NUMPY_FREE_SCRIPT = """
import json, sys
import drstd
assert drstd.__version__
assert not [name for name in sys.modules if name.startswith("drstd.")]
from drstd.cli import main
unused = {"numpy", "dataclasses", "logging", "csv"}
assert not unused & sys.modules.keys(), "import drstd.cli"
for argv in json.loads(sys.argv[1]):
    assert main(["--quiet", *argv]) == 0, argv
    assert not unused & sys.modules.keys(), argv
"""


def test_commands_other_than_synth_do_not_import_numpy(tmp_path):
    # nor dataclasses, logging or csv, whose imports would add to every
    # command's start-up
    corpus, keywords, refs = (tmp_path / name for name in (
        "corpus.jsonl", "keywords.tsv", "refs.tsv"))
    write_cn_corpus(corpus, [
        ConfusionNetworkDoc(f"d{i}", (
            Slot(0.0, 0.4, (("cat", p), (EPS_TOKEN, 1 - p))),
            Slot(0.5, 0.4, (("dog", 1.0),))))
        for i, p in enumerate((0.9, 0.6, 0.3), 1)])
    write_keyword_list(keywords, [KeywordEntry("K1", ("cat",)),
                                  KeywordEntry("K2", ("cat", "dog"))])
    write_references(refs, [RefOccurrence("K1", "d1", 0.0, 0.4),
                            RefOccurrence("K2", "d2", 0.0, 0.9)])
    files = {"corpus": corpus, "keywords": keywords, "ref": refs,
             "run": tmp_path / "run", "cands": tmp_path / "run" / "candidates.tsv"}
    commands = [
        ["search", "--corpus", "{corpus}", "--keywords", "{keywords}",
         "--out", "{run}.tsv"],
        ["pipeline", "--corpus", "{corpus}", "--keywords", "{keywords}",
         "--ref", "{ref}", "--alpha", "0.1", "--trial-seconds", "1000",
         "--out", "{run}"],
        ["rescore", "--in", "{cands}", "--alpha", "0.5",
         "--out", "{run}/rescored_again.tsv"],
        ["decide", "--in", "{cands}", "--trial-seconds", "1000",
         "--out", "{run}/decided_again.tsv"],
        ["score", "--mtwv", "--hyp", "{run}/decided.tsv", "--ref", "{ref}",
         "--trial-seconds", "1000", "--out", "{run}/mtwv.json"],
        ["sweep", "--in", "{cands}", "--ref", "{ref}", "--alpha-grid", "0,0.5",
         "--trial-seconds", "1000", "--out", "{run}/sweep.csv"],
        ["diag", "--in", "{cands}", "--ref", "{ref}", "--trial-seconds", "1000",
         "--out", "{run}/diag"],
    ]
    argvs = [[arg.format(**files) for arg in argv] for argv in commands]
    src = Path(drstd.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-c", _NUMPY_FREE_SCRIPT, json.dumps(argvs)],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True,
        text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    diagnostics = json.loads((tmp_path / "run" / "diag" /
                              "diagnostics.json").read_text())
    assert diagnostics["spearman_weight_recall"] is not None  # spearman ran


# Runs one command in a fresh interpreter and prints which of the given
# modules it loaded.
_LOADED_SCRIPT = """
import json, sys
from drstd.cli import main
argv, modules = json.loads(sys.argv[1])
assert main(["--quiet", *argv]) == 0, argv
print(json.dumps(sorted(set(modules) & sys.modules.keys())))
"""

# Without a bytecode cache each command compiles every module it imports.
# Each command maps to its argv and the modules it must leave unloaded: the
# table commands load no corpus code, all but sweep and diag no diagnostics,
# and search, rescore and synth neither decision nor scoring.
_CORPUS_CODE = ["drstd.corpus_io", "drstd.index_search", "unicodedata"]
_STAGE_CODE = ["drstd.decision", "drstd.scoring", "drstd.diagnostics"]
_TABLE_COMMANDS = {
    "search": (["search", "--corpus", "{data}/corpus.jsonl", "--keywords",
                "{data}/keywords.tsv", "--out", "{out}/c.tsv"],
               [*_STAGE_CODE, "drstd.rescore", "drstd.synth"]),
    "synth": (["synth", "--docs", "3", "--keywords", "2", "--seed", "1",
               "--out", "{out}/synth"],
              [*_STAGE_CODE, "drstd.index_search", "drstd.rescore"]),
    "score": (["score", "--mtwv", "--hyp", "{run}/decided.tsv", "--ref", "{ref}",
               "--trial-seconds", "3600", "--out", "{out}/report.json"],
              [*_CORPUS_CODE, "drstd.diagnostics"]),
    "rescore": (["rescore", "--in", "{run}/candidates.tsv", "--alpha", "0.5",
                 "--weights-out", "{out}/w.tsv", "--out", "{out}/r.tsv"],
                [*_CORPUS_CODE, *_STAGE_CODE]),
    "decide": (["decide", "--in", "{run}/candidates.tsv", "--trial-seconds",
                "3600", "--out", "{out}/d.tsv"],
               [*_CORPUS_CODE, "drstd.scoring", "drstd.diagnostics"]),
    "sweep": (["sweep", "--in", "{run}/candidates.tsv", "--ref", "{ref}",
               "--alpha-grid", "0,0.5", "--trial-seconds", "3600",
               "--out", "{out}/s.csv"], _CORPUS_CODE),
    "diag": (["diag", "--in", "{run}/candidates.tsv", "--ref", "{ref}",
              "--trial-seconds", "3600", "--out", "{out}/diag"], _CORPUS_CODE),
}


@pytest.fixture(scope="module")
def pipeline_run(data_dir, tmp_path_factory):
    out = tmp_path_factory.mktemp("pipeline")
    assert run("pipeline", "--corpus", str(data_dir / "corpus.jsonl"),
               "--keywords", str(data_dir / "keywords.tsv"),
               "--ref", str(data_dir / "refs.tsv"), "--alpha", "0.1",
               "--trial-seconds", "3600", "--out", str(out)) == 0
    return out


@pytest.mark.parametrize("command", sorted(_TABLE_COMMANDS))
def test_table_commands_load_no_corpus_code(data_dir, pipeline_run, tmp_path,
                                            command):
    argv, unloaded = _TABLE_COMMANDS[command]
    argv = [arg.format(run=pipeline_run, ref=data_dir / "refs.tsv", out=tmp_path,
                       data=data_dir) for arg in argv]
    src = Path(drstd.__file__).resolve().parents[1]
    done = subprocess.run(
        [sys.executable, "-c", _LOADED_SCRIPT, json.dumps([argv, unloaded])],
        env={**os.environ, "PYTHONPATH": str(src)}, capture_output=True,
        text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == []


@pytest.mark.parametrize("subcommand", sorted(_subcommands()))
def test_subcommand_help_is_that_of_the_full_parser(capsys, subcommand):
    with pytest.raises(SystemExit) as exc:
        main([subcommand, "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out == _subcommands()[subcommand].format_help()


@pytest.mark.parametrize("argv", [["--help"], ["--quiet", "-h", "score"]])
def test_help_before_a_subcommand_names_all_of_them(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert capsys.readouterr().out == cli.build_parser().format_help()


def test_unknown_subcommand_error_names_all_of_them(capsys):
    assert main(["--quiet", "bogus"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("drstd: argument subcommand: invalid choice: 'bogus'")
    assert all(repr(name) in err for name in _subcommands())


_SYNTH_FIELDS = dict(num_docs=10, slots_per_doc=10, vocab_size=50,
                     num_keywords=2, topic_affinity=0.5, docs_per_topic=5,
                     noise=0.3, seed=0)


@pytest.mark.parametrize("build,message", [
    (lambda: DecisionPolicy("sometimes"),
     "mode must be 'global' or 'kst', got 'sometimes'"),
    (lambda: DecisionPolicy("global", global_threshold=1.5),
     "global_threshold outside [0, 1]: 1.5"),
    (lambda: DecisionPolicy("kst", beta=-1.0, trial_seconds=10.0),
     "beta must be > 0, got -1.0"),
    (lambda: DecisionPolicy("kst"), "a kst policy needs trial_seconds"),
    (lambda: DecisionPolicy("global", trial_seconds=0.0),
     "trial_seconds must be > 0, got 0.0"),
    (lambda: SynthConfig(**{**_SYNTH_FIELDS, "docs_per_topic": 0}),
     "docs_per_topic must be >= 1, got 0"),
    (lambda: SynthConfig(**{**_SYNTH_FIELDS, "noise": 1.5}),
     "noise must be in [0, 1], got 1.5"),
])
def test_checked_types_reject_bad_fields_at_construction(build, message):
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == message
