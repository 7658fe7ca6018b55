"""The sha256 pins of the acceptance chain's artifacts, and their check.

The chain runs `synth` with the acceptance arguments, then `pipeline`
with kst and with global decisions, `score --mtwv` on the kst run's
decided table, and `sweep` over the README's grid and `diag` on its
candidate table, each into its own directory. `CHAIN_SHA256` pins every
file the chain writes but the manifests, which record paths.

The check needs only the standard library and drstd, so it runs under
any interpreter that can import drstd:

    PYTHONPATH=src python3 tests/chain_pins.py

It prints each file that is missing, unpinned or different, and exits 1
if there is one, else 0. `tests/test_chain.py` runs the same check.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

from drstd.cli import main

# The fixed synthetic experiment of the acceptance criteria.
ACCEPTANCE_SYNTH_ARGS = [
    "--docs", "200", "--slots", "100", "--keywords", "50", "--vocab", "500",
    "--topic-affinity", "0.9", "--noise", "0.5", "--docs-per-topic", "5",
    "--seed", "7"]
SWEEP_GRID = "0,0.05,0.1,0.15,0.2,0.3,0.4,0.6,0.8,1.0"
TRIAL_SECONDS = "7000"

CHAIN_SHA256 = {
    "diag/diagnostics.json":
        "fa808b51014eead6bd68c452215798967db8863d383bf5ca9bb1bcb4e7e723fb",
    "diag/rank_curve.csv":
        "95fae3b184a405d9ad9b5cf4f4323cb4a7f58047bcba3884646f1d86fb75b120",
    "pipeline_global/candidates.tsv":
        "9ca169385bd56c14601e9ea853c10be54911fd551788cf826cf1b74f77ef6b4d",
    "pipeline_global/decided.tsv":
        "d6128e75205891bd0f49cddd12330ecd27c1de8ed3a93675a530feb7fe2ecd73",
    "pipeline_global/keyword_scores.tsv":
        "c07a336371ee8a76273f566eeaac65ba8473e9ec9ade9c1b3c96d6a1d205ab47",
    "pipeline_global/report.json":
        "77983d5aa8abd7b95fd64334c11fdf083b001ef722720711a289f44fa6704344",
    "pipeline_global/rescored.tsv":
        "6f8a84a8c8ca1c7b69bbc8b9565745effd22142de3b0ba709f5c5a8ba3438597",
    "pipeline_global/weights.tsv":
        "b0f6eaa588c16ecd7f65e3b95129675238c03a0a102dfbc89f822ff51672ce4a",
    "pipeline_kst/candidates.tsv":
        "9ca169385bd56c14601e9ea853c10be54911fd551788cf826cf1b74f77ef6b4d",
    "pipeline_kst/decided.tsv":
        "c222a3b9853af6f2b248a4277ccfb7fb3da3207b52aa27c0e8629799905e8e94",
    "pipeline_kst/keyword_scores.tsv":
        "e4024859afbb0f5b8e27ea679156ce04c7688047c008abdfc3abe4f24283e8b0",
    "pipeline_kst/report.json":
        "8cb4ff3a79c49ab0941420702d83665211ba4d87881c01186149742b3d28550e",
    "pipeline_kst/rescored.tsv":
        "6f8a84a8c8ca1c7b69bbc8b9565745effd22142de3b0ba709f5c5a8ba3438597",
    "pipeline_kst/weights.tsv":
        "b0f6eaa588c16ecd7f65e3b95129675238c03a0a102dfbc89f822ff51672ce4a",
    "score_mtwv/keyword_scores.tsv":
        "e4024859afbb0f5b8e27ea679156ce04c7688047c008abdfc3abe4f24283e8b0",
    "score_mtwv/report.json":
        "39d7cc52a7ee6b986d3ab5bdd5d1856840ffbf4ad9938d47f58f9e911430d98d",
    "sweep/sweep.csv":
        "9182028c765e26dc79598f185ac8e27999db39176b8811f0e92c50cdb657bff2",
    "synth/corpus.jsonl":
        "e9923d89abb541fe5111fb31a8faf2dfbf4dc30b00bd9fb744aeeccec2a0201e",
    "synth/keywords.tsv":
        "7495c79b0a7ec1d0a3b28db78b0b37c2b7f73d6033a963644969a89ae4844ba5",
    "synth/refs.tsv":
        "46fdff9612306ae294ba4c28e1140c83ab2790c94fe4d042118864a29a1b6e32",
}


def _run(*argv: str) -> None:
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["--quiet", *argv])
    if code != 0:
        raise RuntimeError(f"drstd {' '.join(argv)}: exit {code}: "
                           f"{err.getvalue()}")


def run_chain(out: Path) -> dict[str, str]:
    """Run the chain into `out`; return the sha256 of each file it wrote but
    the manifests, by its path relative to `out`."""
    data = out / "synth"
    _run("synth", *ACCEPTANCE_SYNTH_ARGS, "--out", str(data))
    inputs = ["--corpus", str(data / "corpus.jsonl"),
              "--keywords", str(data / "keywords.tsv"), "--ref", str(data / "refs.tsv")]
    kst = out / "pipeline_kst"
    _run("pipeline", *inputs, "--alpha", "0.1", "--out", str(kst))
    _run("pipeline", *inputs, "--alpha", "0.1", "--decision", "global",
         "--out", str(out / "pipeline_global"))
    scored = ["--ref", str(data / "refs.tsv"), "--trial-seconds", TRIAL_SECONDS]
    _run("score", "--hyp", str(kst / "decided.tsv"), *scored, "--mtwv",
         "--out", str(out / "score_mtwv" / "report.json"))
    _run("sweep", "--in", str(kst / "candidates.tsv"), *scored,
         "--alpha-grid", SWEEP_GRID, "--out", str(out / "sweep" / "sweep.csv"))
    _run("diag", "--in", str(kst / "candidates.tsv"), *scored,
         "--out", str(out / "diag"))
    return {path.relative_to(out).as_posix():
            hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(out.rglob("*"))
            if path.is_file() and not path.name.endswith(".manifest.json")}


def mismatches(hashes: dict[str, str]) -> list[str]:
    """One line for each file of `hashes` or `CHAIN_SHA256` whose pin fails."""
    return [f"{name}: {hashes.get(name, 'missing')}, "
            f"pinned {CHAIN_SHA256.get(name, 'none')}"
            for name in sorted(hashes.keys() | CHAIN_SHA256.keys())
            if hashes.get(name) != CHAIN_SHA256.get(name)]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        failed = mismatches(run_chain(Path(tmp)))
    print("\n".join(failed) or f"{len(CHAIN_SHA256)} artifacts match their pins "
          f"under Python {sys.version.split()[0]}")
    sys.exit(1 if failed else 0)
