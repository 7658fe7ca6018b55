"""Subcommand front end for the toolkit.

Chains the batch stages as separate subcommands (search, rescore,
decide, score, sweep, diag, synth) plus a `pipeline` subcommand that runs
search -> rescore -> decide -> score in one invocation. Every
intermediate artifact is an ordinary file in the documented formats. The
pipeline runs the stage code of `rescore`, `decide` and `score` on each
table as written, the rows `write_candidates` returns, which are those
the file parses back to; so its outputs are byte-identical to chaining
the individual subcommands, and it reads back no file it wrote. It makes
scoring's checks before any write.

After a run succeeds, `main` drops a `<subcommand>.manifest.json` next to
its primary output recording the flag values the run used, the sha256
each regular input file had before the run and, for `synth`, the counts
the run returns.
Exit codes: 0 success, 1 validation error, 2 I/O error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from pathlib import Path

from . import __version__
from .tables import (_NUMBER, DEFAULT_BETA, DEFAULT_DELTA_SECONDS, DEFAULT_THRESHOLD,
                     Candidate, FormatError, RefOccurrence, parse_occurrence_table,
                     write_candidates, write_lines, write_references)


def _quiet(*_args) -> None:
    """Progress output under --quiet: none, and no `logging` import."""


# `info(message, *args)`; main binds it once per run, to _quiet or the log.
_info = _quiet


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit 2; flag misuse is exit 1
        raise ValueError(message)


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _write_json(path: Path, obj) -> None:
    write_lines(path, [json.dumps(obj, indent=2, sort_keys=True, allow_nan=False)])


def _input_hashes(args) -> dict[str, dict]:
    """The manifest's `inputs`: the flags but `out` parsed as a Path are
    input files. A regular file records its sha256, and any other, a pipe
    say, a null hash."""
    return {name: {"path": str(path),
                   "sha256": _sha256(path) if path.is_file() else None}
            for name, path in sorted(vars(args).items())
            if isinstance(path, Path) and name != "out"}


def _write_manifest(args, inputs: dict[str, dict],
                    counts: dict[str, int] | None) -> None:
    """Write `<subcommand>.manifest.json` beside the file `args.out`, or
    into the directory `args.out`, which is then not recorded: it holds the
    manifest. The flags not parsed as a Path are config, as the run left
    them on `args`. `inputs` and `counts`, when the subcommand returns
    any, go in as they are."""
    flags = {name: value for name, value in vars(args).items()
             if name not in ("func", "quiet", "subcommand", "out")}
    if args.out.is_dir():
        out_dir = args.out
    else:
        out_dir, flags["out"] = args.out.parent, str(args.out)
    manifest = {
        "tool": "drstd",
        "version": __version__,
        "subcommand": args.subcommand,
        "config": {name: value for name, value in flags.items()
                   if not isinstance(value, Path)},
        "inputs": inputs,
    }
    if counts is not None:
        manifest["counts"] = counts
    _write_json(out_dir / f"{args.subcommand}.manifest.json", manifest)


def _resolve_policy(args, corpus_seconds: float | None = None):
    """The DecisionPolicy of the decision flags. Its trial is --trial-seconds,
    else `corpus_seconds`, else None, which only global decisions outside
    sweep take. It leaves on `args`, for the manifest, the values the run
    uses: that trial, and no threshold for kst decisions, which read none."""
    from .decision import DecisionPolicy
    trial_seconds = corpus_seconds if args.trial_seconds is None else args.trial_seconds
    if trial_seconds is None and args.decision == "kst":
        raise ValueError("--trial-seconds is required with --decision kst")
    if trial_seconds is None and args.subcommand == "sweep":
        raise ValueError("--trial-seconds is required: sweep scores ATWV")
    policy = DecisionPolicy(mode=args.decision, global_threshold=args.threshold,
                            beta=args.beta, trial_seconds=trial_seconds)
    args.trial_seconds = trial_seconds
    args.threshold = None if args.decision == "kst" else args.threshold
    return policy


def _number(kind, low, high, wanted: str):
    """argparse type: a `kind` in [low, high], else an error that says it
    expected `wanted`. Text that breaks the number rule of the tables
    (`_NUMBER`), or that `kind` cannot parse, reads as NaN, in no range."""
    def parse(text: str):
        try:
            value = kind(text) if _NUMBER.fullmatch(text) else math.nan
        except ValueError:
            value = math.nan
        if not low <= value <= high:
            raise argparse.ArgumentTypeError(f"expected {wanted}, got {text!r}")
        return value
    return parse


# math.ulp(0.0) is the least float > 0.
_POSITIVE_FLOAT = _number(float, math.ulp(0.0), sys.float_info.max,
                          "a finite float > 0")
_POSITIVE_INT = _number(int, 1, math.inf, "a finite int > 0")
_NON_NEGATIVE_INT = _number(int, 0, math.inf, "an int >= 0")
_UNIT_INTERVAL = _number(float, 0.0, 1.0, "a finite float in [0, 1]")

# The flags that several subcommands take, each declared once.
_SHARED_FLAGS = {
    "--alpha": dict(type=_UNIT_INTERVAL, required=True,
                    help="interpolation coefficient in [0, 1]"),
    "--beta": dict(type=_POSITIVE_FLOAT, default=DEFAULT_BETA,
                   help="false-alarm cost ratio (default: %(default)s)"),
    "--delta": dict(type=_POSITIVE_FLOAT, default=DEFAULT_DELTA_SECONDS,
                    help="alignment midpoint tolerance in seconds"),
    "--trial-seconds": dict(type=_POSITIVE_FLOAT,
                            help="total speech seconds defining false-alarm trials"),
}


def _path(text: str) -> Path:
    """argparse type of a path flag: any text but '', which Path reads as '.'."""
    if not text:
        raise argparse.ArgumentTypeError("expected a path, got ''")
    return Path(text)


def _parse_grid(text: str) -> list[float]:
    """argparse type: comma-separated alphas, each checked by `_UNIT_INTERVAL`,
    so an empty item is an error."""
    return [_UNIT_INTERVAL(v) for v in text.split(",")]


def _search(args, keywords) -> tuple[list[Candidate], int, float]:
    """Search `args.corpus` in one streaming pass.

    Returns the deduplicated candidates and the corpus's document count
    and speech seconds; a corpus whose seconds sum to infinity is a
    FormatError.
    """
    from .corpus_io import parse_cn_corpus
    from .index_search import dedup_overlaps, search_all
    docs, seconds = 0, 0.0

    def counted():
        nonlocal docs, seconds
        for doc in parse_cn_corpus(args.corpus):
            docs += 1
            if doc.slots:
                last = doc.slots[-1]
                seconds += last.start + last.duration - doc.slots[0].start
            yield doc

    found = search_all(counted(), keywords)
    if not math.isfinite(seconds):
        raise FormatError(f"documents span {seconds} seconds in all",
                          path=args.corpus)
    return dedup_overlaps(found), docs, seconds


# The stages `pipeline` chains, each a whole subcommand once its input is
# parsed: each computes, writes and logs its line; the two table stages
# return their table as written.
def _rescore_stage(candidates: list[Candidate], out: Path, alpha: float,
                   weights_out: str | Path | None) -> list[Candidate]:
    from .rescore import rescore_candidates, write_weight_tables
    rescored, tables = rescore_candidates(candidates, alpha)
    # The weights first: a failed write then leaves no table `out`.
    if weights_out is not None:
        write_weight_tables(weights_out, tables)
    rescored = write_candidates(out, rescored)
    _info("rescore: %d candidates, alpha=%s", len(rescored), alpha)
    return rescored


def _decide_stage(candidates: list[Candidate], out: Path,
                  policy) -> list[Candidate]:
    from .decision import apply_decisions
    decided = apply_decisions(candidates, policy)
    decided = write_candidates(out, decided)
    _info("decide: %d YES of %d (%s mode)",
          sum(c.decision == "YES" for c in decided), len(decided), policy.mode)
    return decided


def _score_stage(hypotheses: list[Candidate], references: list[RefOccurrence],
                 out: Path, trial_seconds: float, beta: float, delta: float,
                 with_mtwv: bool = False) -> None:
    """Write the report `out` and its keyword detail beside it."""
    from .scoring import mtwv, score_detections, write_keyword_detail
    report = score_detections(hypotheses, references, trial_seconds, beta, delta)
    aggregate = report["aggregate"]
    if with_mtwv:
        aggregate["mtwv_threshold"], aggregate["mtwv"] = mtwv(
            hypotheses, references, beta, trial_seconds, delta)
    _write_json(out, report)
    write_keyword_detail(out.parent / "keyword_scores.tsv", report)
    _info("score: ATWV %.4f over %d keywords (mean Pmiss %.4f, mean PFA %.6f)",
          aggregate["atwv"], aggregate["num_scored_keywords"],
          aggregate["mean_p_miss"], aggregate["mean_p_fa"])


def cmd_search(args) -> None:
    from .corpus_io import parse_keyword_list
    keywords = parse_keyword_list(args.keywords)
    candidates, docs, _ = _search(args, keywords)
    write_candidates(args.out, candidates)
    _info("search: %d candidates for %d keywords over %d docs",
          len(candidates), len(keywords), docs)


def cmd_rescore(args) -> None:
    _rescore_stage(parse_occurrence_table(args.candidates, "candidate"),
                   args.out, args.alpha, args.weights_out)


def cmd_decide(args) -> None:
    policy = _resolve_policy(args)
    _decide_stage(parse_occurrence_table(args.candidates, "candidate"),
                  args.out, policy)


def cmd_sweep(args) -> None:
    from .diagnostics import alpha_sweep
    from .scoring import write_csv
    policy = _resolve_policy(args)
    candidates = parse_occurrence_table(args.candidates, "candidate")
    references = parse_occurrence_table(args.references, "ref")
    rows = alpha_sweep(candidates, references, args.alpha_grid, policy, args.delta)
    write_csv(args.out, ("alpha", "atwv", "mean_pmiss", "mean_pfa"), rows)
    best = max(rows, key=lambda r: r.atwv)
    _info("sweep: best ATWV %.4f at alpha=%s (%d grid points)",
          best.atwv, best.alpha, len(rows))


def cmd_diag(args) -> None:
    from .decision import apply_decisions, yes_only
    from .diagnostics import (doc_performance, doc_rank_curves,
                              weight_performance_correlation)
    from .rescore import build_weight_tables
    from .scoring import align, keyword_rates, write_csv
    policy = _resolve_policy(args)
    candidates = parse_occurrence_table(args.candidates, "candidate")
    references = parse_occurrence_table(args.references, "ref")
    tables = build_weight_tables(candidates)
    accepted = yes_only(apply_decisions(candidates, policy))
    alignment = align(accepted, references, args.delta)
    if policy.trial_seconds is not None:  # scoring's trial check
        keyword_rates(alignment, policy.trial_seconds)
    rows = doc_performance(accepted, tables, alignment)
    curve = doc_rank_curves(rows, args.max_rank)
    rhos = weight_performance_correlation(rows)
    write_csv(args.out / "rank_curve.csv", ("rank", "avg_precision", "avg_recall"),
              curve)
    _write_json(args.out / "diagnostics.json", {
        "spearman_weight_precision": rhos[0],
        "spearman_weight_recall": rhos[1],
        "max_rank": args.max_rank,
        "decision": policy.mode,
        "beta": policy.beta,
        "trial_seconds": policy.trial_seconds,
        "delta": args.delta,
    })
    _info("diag: weight-precision rho %s, weight-recall rho %s", *(
        "undefined" if rho is None else f"{rho:.3f}" for rho in rhos))


def cmd_synth(args) -> dict[str, int]:
    from .corpus_io import write_cn_corpus, write_keyword_list
    # synth is the one command that needs numpy, so only it imports it.
    from .synth import SynthConfig, generate
    config = SynthConfig(num_docs=args.docs, slots_per_doc=args.slots,
                         vocab_size=args.vocab, num_keywords=args.keywords,
                         topic_affinity=args.topic_affinity,
                         docs_per_topic=args.docs_per_topic, noise=args.noise,
                         seed=args.seed)
    # generate checks the config before it returns; the documents are
    # drawn as write_cn_corpus writes them, and refs is complete after.
    docs, keywords, refs, dropped = generate(config)
    write_cn_corpus(args.out / "corpus.jsonl", docs)
    write_keyword_list(args.out / "keywords.tsv", keywords)
    write_references(args.out / "refs.tsv", refs)
    _info("synth: %d docs, %d keywords, %d references (%d planned "
          "occurrences dropped, their documents full) -> %s",
          config.num_docs, len(keywords), len(refs), dropped, args.out)
    return {"references": len(refs), "dropped": dropped}


def cmd_pipeline(args) -> None:
    from .corpus_io import parse_keyword_list
    from .scoring import score_detections
    keywords = parse_keyword_list(args.keywords)
    references = parse_occurrence_table(args.references, "ref")
    candidates, _, seconds = _search(args, keywords)
    if args.trial_seconds is None and seconds == 0.0:
        raise FormatError("documents span 0 seconds in all: give "
                          "--trial-seconds", path=args.corpus)
    policy = _resolve_policy(args, corpus_seconds=seconds)
    # Scoring's checks of the trial and the references, before any write.
    score_detections([], references, policy.trial_seconds, policy.beta, args.delta)
    candidates = write_candidates(args.out / "candidates.tsv", candidates)
    rescored = _rescore_stage(candidates, args.out / "rescored.tsv", args.alpha,
                              args.out / "weights.tsv")
    _score_stage(_decide_stage(rescored, args.out / "decided.tsv", policy),
                 references, args.out / "report.json", policy.trial_seconds,
                 policy.beta, args.delta)
    _info("pipeline: alpha=%s, %s decisions -> %s",
          args.alpha, policy.mode, args.out)


def _add_input(sub, flag: str, dest: str, help: str | None = None) -> None:
    """Add an input-file flag: parsed as a Path, so its manifest hashes it."""
    sub.add_argument(flag, dest=dest, type=_path, required=True, help=help)


def _add_decision_flags(sub, *shared: str) -> None:
    """Add the flags of `_resolve_policy`, then each of `shared`."""
    sub.add_argument("--decision", choices=["global", "kst"], default="kst",
                     help="thresholding policy (default: kst)")
    sub.add_argument("--threshold", type=_UNIT_INTERVAL, default=DEFAULT_THRESHOLD,
                     help="global-mode threshold (default: %(default)s)")
    for flag in ("--beta", "--trial-seconds", *shared):
        sub.add_argument(flag, **_SHARED_FLAGS[flag])


def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand."""
    parser = _Parser(prog="drstd", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version",
                        version=f"drstd {__version__}")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress progress logging")
    subs = parser.add_subparsers(dest="subcommand", required=True)

    p = subs.add_parser("search", help="one-pass keyword retrieval")
    _add_input(p, "--corpus", "corpus")
    _add_input(p, "--keywords", "keywords")
    p.add_argument("--out", type=_path, required=True, help="candidate TSV")
    p.set_defaults(func=cmd_search)

    p = subs.add_parser("rescore",
                        help="re-estimate confidences from document weights")
    _add_input(p, "--in", "candidates", "candidate TSV")
    p.add_argument("--alpha", **_SHARED_FLAGS["--alpha"])
    # A str, not a Path: an output, so out of the manifest's inputs.
    p.add_argument("--weights-out", type=lambda text: str(_path(text)), default=None,
                   help="optional TSV of per-keyword document weights")
    p.add_argument("--out", type=_path, required=True, help="rescored candidate TSV")
    p.set_defaults(func=cmd_rescore)

    p = subs.add_parser("decide", help="apply YES/NO detection thresholds")
    _add_input(p, "--in", "candidates", "candidate TSV")
    _add_decision_flags(p)
    p.add_argument("--out", type=_path, required=True, help="decided candidate TSV")
    p.set_defaults(func=cmd_decide)

    p = subs.add_parser("score", help="term-weighted-value scoring")
    _add_input(p, "--hyp", "hypotheses", "decided candidate TSV")
    _add_input(p, "--ref", "references", "reference TSV")
    p.add_argument("--trial-seconds", **_SHARED_FLAGS["--trial-seconds"], required=True)
    p.add_argument("--beta", **_SHARED_FLAGS["--beta"])
    p.add_argument("--delta", **_SHARED_FLAGS["--delta"])
    p.add_argument("--mtwv", action="store_true",
                   help="also scan for the best global threshold")
    p.add_argument("--out", type=_path, required=True, help="report JSON")
    p.set_defaults(func=lambda a: _score_stage(
        parse_occurrence_table(a.hypotheses, "decided"),
        parse_occurrence_table(a.references, "ref"),
        a.out, a.trial_seconds, a.beta, a.delta, a.mtwv))

    p = subs.add_parser("sweep", help="ATWV versus interpolation coefficient")
    _add_input(p, "--in", "candidates", "candidate TSV")
    _add_input(p, "--ref", "references", "reference TSV")
    p.add_argument("--alpha-grid", type=_parse_grid, required=True,
                   help="comma-separated coefficients, e.g. 0,0.05,0.1")
    _add_decision_flags(p, "--delta")
    p.add_argument("--out", type=_path, required=True, help="sweep CSV")
    p.set_defaults(func=cmd_sweep)

    p = subs.add_parser("diag",
                        help="document-rank curves and weight correlations")
    _add_input(p, "--in", "candidates", "candidate TSV")
    _add_input(p, "--ref", "references", "reference TSV")
    _add_decision_flags(p, "--delta")
    p.add_argument("--max-rank", type=_POSITIVE_INT, default=10)
    p.add_argument("--out", type=_path, required=True, help="output directory")
    p.set_defaults(func=cmd_diag)

    p = subs.add_parser("synth", help="generate a synthetic corpus",
                        epilog=("Writes corpus.jsonl, keywords.tsv and refs.tsv. "
                                "Spoken-token posteriors are uniform on "
                                "[0.78-0.72*noise, 0.97-0.46*noise]; the rest "
                                "of each slot's mass is split over 2-4 "
                                "competitor arcs by a flattened Dirichlet "
                                "(0.7*Dirichlet + 0.3*uniform), with keywords "
                                "appearing as occasional confusions, "
                                "preferentially in their home topic. "
                                "Deterministic for a given --seed."))
    p.add_argument("--docs", type=_POSITIVE_INT, required=True)
    p.add_argument("--slots", type=_POSITIVE_INT, default=60,
                   help="slots per document")
    p.add_argument("--keywords", type=_POSITIVE_INT, required=True)
    p.add_argument("--vocab", type=_POSITIVE_INT, default=500)
    p.add_argument("--topic-affinity", type=_UNIT_INTERVAL, default=0.8)
    p.add_argument("--docs-per-topic", type=_POSITIVE_INT, default=5)
    p.add_argument("--noise", type=_UNIT_INTERVAL, default=0.3)
    p.add_argument("--seed", type=_NON_NEGATIVE_INT, required=True)
    p.add_argument("--out", type=_path, required=True, help="output directory")
    p.set_defaults(func=cmd_synth)

    p = subs.add_parser("pipeline",
                        help="search, rescore, decide and score in one run")
    _add_input(p, "--corpus", "corpus")
    _add_input(p, "--keywords", "keywords")
    _add_input(p, "--ref", "references")
    p.add_argument("--alpha", **_SHARED_FLAGS["--alpha"])
    _add_decision_flags(p, "--delta")
    p.add_argument("--out", type=_path, required=True, help="output directory")
    p.set_defaults(func=cmd_pipeline)

    return parser


def main(argv=None) -> int:
    """Run one command: exit 0, or 1 for a usage, format or check error (a
    ValueError), or 2 for an I/O error (an OSError)."""
    global _info
    try:
        args = build_parser().parse_args(argv)
        if args.quiet:
            _info = _quiet
        else:
            import logging

            # The level goes on our own logger: basicConfig does nothing once
            # the root logger has a handler, as it may when main runs in
            # process.
            logging.basicConfig(format="%(message)s")
            log = logging.getLogger("drstd")
            log.setLevel(logging.INFO)
            _info = log.info
        # Hashed before the run, which may overwrite an input in place.
        inputs = _input_hashes(args)
        _write_manifest(args, inputs, args.func(args))
    except ValueError as exc:
        print(f"drstd: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"drstd: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
