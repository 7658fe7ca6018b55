"""drstd benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload ingest --seed 7 --seconds 24 --trace 0

Run from the root of a source checkout; the program under test is the
``drstd`` package in ``src/``, driven as ``drstd`` CLI subprocesses one
at a time. With ``--trace 0`` the run sets the workload up three times
(``setup_s`` is the median) and, after each set-up, repeats the
workload's measured commands with tracing off for a third of
``--seconds``; times are calibrated CPU seconds (see calibrate.py), and
it reports the end-to-end metrics. With ``--trace 1`` it sets up once in
process under the tracer, repeats the untraced commands for half of
``--seconds``, then the same commands in process under the tracer for
the other half, and reports the per-layer metrics. Every pass checks the
command outputs; see perfbench/README.md for the workloads and metrics.

Scratch data lives in ``.perfbench_work/`` under the checkout and is
removed at the end; the run record (environment, input sizes, every pass)
and the span trace stay in ``.perfbench_work/runs`` and
``.perfbench_work/traces``.
"""

from __future__ import annotations

import argparse
import csv
import gc
import hashlib
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path

from calibrate import Calibrator, pin_to_one_cpu

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"

# The installed console script `drstd` is `drstd.cli:main`; call that entry
# point directly so that the checkout's own sources are what runs.
ENTRY = "import sys; from drstd.cli import main; sys.exit(main())"

SETUP_REPEATS = 3
STARTUP_REPEATS = 5
RUN_DEADLINE_S = 170.0
SWEEP_GRID = "0,0.05,0.1,0.15,0.2,0.3,0.4,0.6,0.8,1.0"
SYNTH_QUALITY = ["--topic-affinity", "0.9", "--noise", "0.5"]


class CheckFailed(Exception):
    """A command failed or one of its outputs is wrong."""


@dataclass
class Command:
    label: str
    argv: list[str]


@dataclass
class Inputs:
    """One set-up copy of a workload's inputs."""

    dir: Path
    trial_seconds: str
    docs: int
    arcs: int
    keywords: Path


# ---------------------------------------------------------------- inputs

def corpus_facts(path: Path) -> tuple[int, int, list[str], float]:
    """Documents, non-null arcs, sorted vocabulary and speech seconds."""
    docs = arcs = 0
    vocab: set[str] = set()
    seconds = 0.0
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            doc = json.loads(line)
            docs += 1
            slots = doc["slots"]
            for slot in slots:
                for token, _ in slot["arcs"]:
                    if token != "<eps>":
                        arcs += 1
                        vocab.add(token)
            if slots:
                seconds += slots[-1]["start"] + slots[-1]["dur"] - slots[0]["start"]
    return docs, arcs, sorted(vocab), seconds


def write_kwlist(path: Path, vocab: list[str], synth_keywords: Path,
                 seed: int, phrases: int) -> None:
    """Every vocabulary word as a keyword, plus `phrases` phrases of 2-3
    tokens drawn uniformly from the vocabulary.

    A vocabulary word that synth chose as a keyword keeps synth's kw_id, so
    the synth references still score it.
    """
    kw_ids = {}
    for line in synth_keywords.read_text(encoding="utf-8").splitlines():
        if line and not line.startswith("#"):
            kw_id, text = line.split("\t")
            kw_ids[text] = kw_id
    rng = random.Random(seed)
    lines = ["# kw_id\ttokens"]
    lines += [f"{kw_ids.get(tok, f'V{i:04d}')}\t{tok}" for i, tok in enumerate(vocab)]
    for i in range(phrases):
        tokens = [rng.choice(vocab) for _ in range(rng.choice((2, 3)))]
        lines.append(f"P{i:04d}\t{' '.join(tokens)}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


# ---------------------------------------------------------------- workloads

@dataclass
class Workload:
    name: str
    synth: list[str]
    commands: object          # (Inputs, out dir) -> list[Command]
    check: object             # (Inputs, out dir) -> quality dict
    # Runs `pipeline` into <inputs>/setup_run as part of the set-up, and
    # measures commands on its candidates.
    setup_pipeline: bool = False
    # None: synth's keyword list; else every vocabulary word plus this
    # many phrases.
    phrases: int | None = None
    # None: the corpus duration, as `pipeline` derives it.
    trial_seconds: str | None = None


def _pipeline_argv(inp: Inputs, out: Path) -> list[str]:
    return ["pipeline", "--corpus", str(inp.dir / "corpus.jsonl"),
            "--keywords", str(inp.keywords), "--ref", str(inp.dir / "refs.tsv"),
            "--alpha", "0.1", "--decision", "kst",
            "--trial-seconds", inp.trial_seconds, "--out", str(out)]


def ingest_commands(inp: Inputs, out: Path) -> list[Command]:
    return [Command("pipeline", _pipeline_argv(inp, out))]


def kwlist_commands(inp: Inputs, out: Path) -> list[Command]:
    ref = str(inp.dir / "refs.tsv")
    return [
        Command("search", ["search", "--corpus", str(inp.dir / "corpus.jsonl"),
                           "--keywords", str(inp.keywords),
                           "--out", str(out / "candidates.tsv")]),
        Command("rescore", ["rescore", "--in", str(out / "candidates.tsv"),
                            "--alpha", "0.1",
                            "--weights-out", str(out / "weights.tsv"),
                            "--out", str(out / "rescored.tsv")]),
        Command("decide", ["decide", "--in", str(out / "rescored.tsv"),
                           "--decision", "kst",
                           "--trial-seconds", inp.trial_seconds,
                           "--out", str(out / "decided.tsv")]),
        Command("score", ["score", "--hyp", str(out / "decided.tsv"), "--ref", ref,
                          "--trial-seconds", inp.trial_seconds,
                          "--out", str(out / "report.json")]),
    ]


def scoring_commands(inp: Inputs, out: Path) -> list[Command]:
    ref = str(inp.dir / "refs.tsv")
    cands = str(inp.dir / "setup_run" / "candidates.tsv")
    return [
        Command("score_mtwv", ["score", "--hyp",
                               str(inp.dir / "setup_run" / "decided.tsv"),
                               "--ref", ref, "--trial-seconds", inp.trial_seconds,
                               "--mtwv", "--out", str(out / "report.json")]),
        Command("sweep", ["sweep", "--in", cands, "--ref", ref,
                          "--alpha-grid", SWEEP_GRID,
                          "--trial-seconds", inp.trial_seconds,
                          "--out", str(out / "sweep.csv")]),
        Command("diag", ["diag", "--in", cands, "--ref", ref,
                         "--trial-seconds", inp.trial_seconds,
                         "--out", str(out / "diag")]),
    ]


def read_table(path: Path, columns: int, numeric: tuple[int, ...],
               delimiter: str = "\t", header: bool = False) -> list[list[str]]:
    """Rows of a TSV/CSV artifact; every row must have `columns` fields and
    finite floats in the `numeric` columns."""
    if not path.is_file():
        raise CheckFailed(f"missing artifact {path.name}")
    with open(path, encoding="utf-8", newline="") as fh:
        lines = [ln for ln in fh.read().splitlines()
                 if ln and not ln.startswith("#")]
    rows = list(csv.reader(lines, delimiter=delimiter))[1 if header else 0:]
    for n, row in enumerate(rows, start=1):
        if len(row) != columns:
            raise CheckFailed(f"{path.name} row {n}: {len(row)} fields, "
                              f"expected {columns}")
        try:
            values = [float(row[i]) for i in numeric]
        except ValueError as exc:
            raise CheckFailed(f"{path.name} row {n}: {exc}") from exc
        if not all(map(math.isfinite, values)):
            raise CheckFailed(f"{path.name} row {n}: non-finite value")
    return rows


def read_report(path: Path, keys: tuple[str, ...]) -> dict:
    if not path.is_file():
        raise CheckFailed(f"missing artifact {path.name}")
    try:
        aggregate = json.loads(path.read_text(encoding="utf-8"))["aggregate"]
        values = {k: float(aggregate[k]) for k in keys}
    except (ValueError, KeyError, TypeError) as exc:
        raise CheckFailed(f"{path.name} does not parse: {exc!r}") from exc
    for key, value in values.items():
        if not math.isfinite(value) or value > 1.0:
            raise CheckFailed(f"{path.name}: {key} = {value}")
    return values


def check_chain(inp: Inputs, out: Path) -> dict:
    """Outputs of search -> rescore -> decide -> score, chained or piped."""
    cands = read_table(out / "candidates.tsv", 5, (2, 3, 4))
    rescored = read_table(out / "rescored.tsv", 5, (2, 3, 4))
    decided = read_table(out / "decided.tsv", 6, (2, 3, 4))
    if not cands:
        raise CheckFailed("search produced no candidates")
    if not len(cands) == len(rescored) == len(decided):
        raise CheckFailed(f"row counts differ: {len(cands)} candidates, "
                          f"{len(rescored)} rescored, {len(decided)} decided")
    if any(row[5] not in ("YES", "NO") for row in decided):
        raise CheckFailed("decided.tsv has a row without YES/NO")
    if [r[:4] for r in cands] != [r[:4] for r in decided]:
        raise CheckFailed("decided.tsv rows do not match candidates.tsv rows")
    read_table(out / "weights.tsv", 4, (2, 3))
    read_table(out / "keyword_scores.tsv", 7, (1, 2, 3, 4, 5, 6))
    return read_report(out / "report.json", ("atwv",))


def check_scoring(inp: Inputs, out: Path) -> dict:
    quality = read_report(out / "report.json", ("atwv", "mtwv"))
    read_table(out / "keyword_scores.tsv", 7, (1, 2, 3, 4, 5, 6))
    sweep = read_table(out / "sweep.csv", 4, (0, 1, 2, 3), ",", header=True)
    if [float(r[0]) for r in sweep] != [float(a) for a in SWEEP_GRID.split(",")]:
        raise CheckFailed("sweep.csv does not cover the alpha grid")
    read_table(out / "diag" / "rank_curve.csv", 3, (0, 1, 2), ",", header=True)
    try:
        json.loads((out / "diag" / "diagnostics.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise CheckFailed(f"diagnostics.json: {exc!r}") from exc
    return quality


WORKLOADS = {
    # Corpus-sized work (parse, index, fingerprint) with few candidates.
    "ingest": Workload(
        "ingest",
        ["--docs", "300", "--slots", "100", "--keywords", "50",
         "--vocab", "2000", *SYNTH_QUALITY],
        ingest_commands, check_chain),
    # The same search layer driven by many (and multi-token) keywords.
    "kwlist": Workload(
        "kwlist",
        ["--docs", "200", "--slots", "100", "--keywords", "50", "--vocab", "500",
         "--docs-per-topic", "5", *SYNTH_QUALITY],
        kwlist_commands, check_chain, phrases=1500),
    # No corpus read: MTWV scan, alpha sweep and diagnostics on candidates.
    "scoring": Workload(
        "scoring",
        ["--docs", "20", "--slots", "20", "--keywords", "20", "--vocab", "500",
         "--docs-per-topic", "5", *SYNTH_QUALITY],
        scoring_commands, check_scoring,
        setup_pipeline=True, phrases=0, trial_seconds="7000"),
}


# ---------------------------------------------------------------- running

@dataclass
class CmdResult:
    wall_s: float
    cpu_s: float
    rss_mb: float


class Runner:
    """Runs drstd commands and workload passes; counts attempts and failures."""

    def __init__(self, workload: Workload, seed: int, work: Path):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.deadline = time.perf_counter() + RUN_DEADLINE_S
        self.env = dict(os.environ, PYTHONPATH=str(SRC), TMPDIR=str(work))
        self.attempted = 0
        self.failures: list[str] = []
        self.hashes: dict[str, dict[str, str]] = {}
        self.child_cpu_s = 0.0
        self.calibrator = None

    def cli(self, argv: list[str]) -> CmdResult:
        """One drstd subprocess; wall time and its own peak RSS via wait4."""
        remaining = self.deadline - time.perf_counter()
        if remaining <= 0:
            raise CheckFailed("run deadline reached")
        with open(self.work / "stderr.txt", "w+b") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, "-c", ENTRY, "--quiet", *argv],
                                    cwd=self.work, env=self.env,
                                    stdin=subprocess.DEVNULL,
                                    stdout=subprocess.DEVNULL, stderr=err)
            killer = threading.Timer(remaining, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
            err.seek(0)
            stderr = err.read().decode("utf-8", "replace")
        check_exit(argv[0], proc.returncode, stderr)
        cpu = usage.ru_utime + usage.ru_stime
        self.child_cpu_s += cpu
        return CmdResult(wall, cpu, usage.ru_maxrss / 1024.0)

    def attempt(self, what: str, fn):
        """Run one pass; a failure is counted and recorded, not raised."""
        self.attempted += 1
        try:
            return fn()
        except CheckFailed as exc:
            self.failures.append(f"{what}: {exc}")
            print(f"perfbench: FAILED {what}: {exc}", file=sys.stderr)
            return None

    def same_as_first(self, key: str, files: dict[str, Path]) -> None:
        """Deterministic artifacts must hash alike on every pass of a run."""
        digests = {name: sha256(path) for name, path in sorted(files.items())}
        first = self.hashes.setdefault(key, digests)
        changed = [name for name in digests if first.get(name) != digests[name]]
        if changed or first.keys() != digests.keys():
            raise CheckFailed(f"output differs from the first pass: {changed}")

    # -- set-up

    def setup(self, index: int, traced=None) -> Inputs:
        """Generate one copy of the inputs; `traced` runs synth in process."""
        wl = self.workload
        d = self.work / f"inputs{index}"
        synth = ["synth", *wl.synth, "--seed", str(self.seed), "--out", str(d)]
        if traced is None:
            self.cli(synth)
        else:
            code, stderr, _ = traced.run_cli(synth, "setup")
            check_exit("synth", code, stderr)
        docs, arcs, vocab, seconds = corpus_facts(d / "corpus.jsonl")
        inp = Inputs(d, wl.trial_seconds or repr(seconds), docs, arcs,
                     d / "keywords.tsv")
        if wl.phrases is not None:
            inp.keywords = d / "kwlist.tsv"
            write_kwlist(inp.keywords, vocab, d / "keywords.tsv", self.seed,
                         wl.phrases)
        if wl.setup_pipeline:
            self.cli(_pipeline_argv(inp, d / "setup_run"))
        self.same_as_first("setup", artifacts(d))
        return inp

    # -- measured passes

    def measured_pass(self, inp: Inputs, out: Path) -> dict:
        reset_dir(out)
        walls, cpu, peak = {}, 0.0, 0.0
        mark = self.calibrator.mark() if self.calibrator else None
        for cmd in self.workload.commands(inp, out):
            result = self.cli(cmd.argv)
            walls[cmd.label] = result.wall_s
            cpu += result.cpu_s
            peak = max(peak, result.rss_mb)
        cal_cpu = cpu * self.calibrator.scale(mark, self.calibrator.mark()) \
            if mark else None
        quality = self.workload.check(inp, out)
        self.same_as_first("measure", artifacts(out))
        return {"walls": walls, "wall_s": sum(walls.values()), "cpu_s": cpu,
                "cal_cpu_s": cal_cpu, "peak_rss_mb": peak, "quality": quality}

    def traced_pass(self, tracer, inp: Inputs, out: Path, group: str
                    ) -> tuple[str, float]:
        reset_dir(out)
        gc.collect()
        wall = 0.0
        for cmd in self.workload.commands(inp, out):
            code, stderr, seconds = tracer.run_cli(cmd.argv, group)
            check_exit(cmd.argv[0], code, stderr)
            wall += seconds
        self.workload.check(inp, out)
        self.same_as_first("measure", artifacts(out))
        return group, wall

    def repeat(self, seconds: float, what: str, fn) -> list:
        """Call fn() until `seconds` have passed (at least once) and return
        the results of the passes that succeeded."""
        results, start, longest = [], time.perf_counter(), 0.0
        while True:
            t0 = time.perf_counter()
            result = self.attempt(f"{what} {len(results) + 1}", fn)
            if result is not None:
                results.append(result)
            now = time.perf_counter()
            longest = max(longest, now - t0)
            if now - start >= seconds or now + longest >= self.deadline:
                return results


def check_exit(subcommand: str, code: int, stderr: str) -> None:
    if "Traceback (most recent call last)" in stderr:
        raise CheckFailed(f"{subcommand}: traceback on stderr:\n{stderr}")
    if code != 0:
        raise CheckFailed(f"{subcommand}: exit {code}: {stderr.strip()}")


def artifacts(directory: Path) -> dict[str, Path]:
    """Every output file except manifests, whose contents we do not read."""
    return {str(p.relative_to(directory)): p for p in directory.rglob("*")
            if p.is_file() and not p.name.endswith(".manifest.json")}


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def reset_dir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)


def count_rows(path: Path) -> int:
    with open(path, encoding="utf-8") as fh:
        return sum(1 for line in fh if line.strip() and not line.startswith("#"))


def distinct_scores(path: Path) -> int:
    with open(path, encoding="utf-8") as fh:
        return len({line.split("\t")[4] for line in fh
                    if line.strip() and not line.startswith("#")})


def input_sizes(runner: Runner, inp: Inputs, out: Path) -> dict:
    """Documents, arcs, keywords, candidates and MTWV thresholds (distinct
    decided scores plus the empty-set sentinel)."""
    run = inp.dir / "setup_run" if runner.workload.setup_pipeline else out
    return {"docs": inp.docs, "arcs": inp.arcs,
            "keywords": count_rows(inp.keywords),
            "candidates": count_rows(run / "candidates.tsv"),
            "thresholds": distinct_scores(run / "decided.tsv") + 1}


def environment() -> dict:
    import drstd
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip() or commit
        except (OSError, subprocess.SubprocessError):
            pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(),
            "numpy": metadata.version("numpy"), "drstd": drstd.__version__,
            "commit": commit}


# ---------------------------------------------------------------- modes

def measure_untraced(runner: Runner, seconds: float) -> tuple[dict, dict, Inputs, Path]:
    # Every process of the run shares one CPU with the calibration loop,
    # and times are calibrated CPU seconds (see calibrate.py). Set-ups and
    # measured passes alternate, so that the passes sample the whole run.
    setups, setup_walls, passes, inputs = [], [], [], None
    out = runner.work / "out"
    pin_to_one_cpu()
    with Calibrator() as cal:
        runner.calibrator = cal
        for i in range(SETUP_REPEATS):
            mark, own, child = cal.mark(), time.process_time(), runner.child_cpu_s
            t0 = time.perf_counter()
            inp = runner.attempt(f"setup {i + 1}", lambda i=i: runner.setup(i))
            if inp is not None:
                cpu = runner.child_cpu_s - child + time.process_time() - own
                setups.append(cpu * cal.scale(mark, cal.mark()))
                setup_walls.append(time.perf_counter() - t0)
                if inputs is None:
                    inputs = inp
                else:
                    shutil.rmtree(inp.dir)
            if inputs is not None:
                passes += runner.repeat(seconds / SETUP_REPEATS, "pass",
                                        lambda: runner.measured_pass(inputs, out))
        runner.calibrator = None
    if inputs is None:
        raise CheckFailed("no set-up succeeded")
    if not passes:
        raise CheckFailed("no measured pass succeeded")
    metrics = {
        "cal_cpu_s": (statistics.median(p["cal_cpu_s"] for p in passes), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
        "atwv": (passes[0]["quality"]["atwv"], "twv"),
    }
    record = {"setup_s": setups, "setup_wall_s": setup_walls, "passes": passes}
    return metrics, record, inputs, out


COMMAND_LABELS = ("pipeline", "search", "rescore", "decide", "score",
                  "score_mtwv", "sweep", "diag")


def measure_traced(runner: Runner, seconds: float) -> tuple[dict, dict, Inputs, Path]:
    import tracer as tr

    with tr.Tracer() as tracer:
        inputs = runner.attempt("traced setup",
                                lambda: runner.setup(0, traced=tracer))
        if inputs is None:
            raise CheckFailed("set-up failed")
        out = runner.work / "out"
        passes = runner.repeat(seconds / 2, "pass",
                               lambda: runner.measured_pass(inputs, out))
        groups = (f"pass{i}" for i in range(1, 1 << 30))
        traced = runner.repeat(
            seconds / 2, "traced pass",
            lambda: runner.traced_pass(tracer, inputs, out, next(groups)))
    if not passes or not traced:
        raise CheckFailed("no untraced or no traced pass succeeded")
    startup = [runner.cli(["--version"]).wall_s for _ in range(STARTUP_REPEATS)]

    summaries = [tr.group_summary(tracer, group) for group, _ in traced]
    values = tr.layer_metrics(summaries)
    setup_values = tr.layer_metrics([tr.group_summary(tracer, "setup")])
    for name in ("synth.generate.s", "corpus_io.write_cn_corpus.s"):
        values[name] = setup_values[name]
    untraced_wall = statistics.median(p["wall_s"] for p in passes)
    traced_wall = statistics.median(wall for _, wall in traced)
    values["cli.startup_s"] = statistics.median(startup)
    values["trace.wall_s"] = traced_wall
    # In-process commands skip the interpreter start-up every subprocess pays.
    commands = len(runner.workload.commands(inputs, out))
    values["trace.overhead_s"] = traced_wall - (
        untraced_wall - commands * values["cli.startup_s"])
    for label in COMMAND_LABELS:
        values[f"cmd.{label}_s"] = statistics.median(
            p["walls"].get(label, 0.0) for p in passes)

    metrics = {name: (value, unit_of(name)) for name, value in values.items()}
    record = {"passes": passes, "traced_walls": [w for _, w in traced],
              "startup_s": startup, "summaries": summaries}
    trace_path = WORK_ROOT / "traces" / f"{runner.workload.name}-s{runner.seed}.json"
    trace_path.parent.mkdir(parents=True, exist_ok=True)
    trace_path.write_text(json.dumps(
        {"workload": runner.workload.name, "seed": runner.seed,
         "untraced_wall_s": untraced_wall, "traced_wall_s": traced_wall,
         "groups": {g: s for (g, _), s in zip(traced, summaries)},
         **tracer.to_json()}, indent=1) + "\n", encoding="utf-8")
    if tracer.missing:
        print(f"perfbench: not in this drstd, reported as 0: "
              f"{', '.join(tracer.missing)}", file=sys.stderr)
    return metrics, record, inputs, out


def unit_of(name: str) -> str:
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name == "scoring.mtwv.value":
        return "twv"
    return "count"


# ---------------------------------------------------------------- main

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "drstd" / "cli.py").is_file():
        print(f"perfbench: no drstd sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import drstd
    if Path(drstd.__file__).resolve().parent != SRC / "drstd":
        print(f"perfbench: imported drstd from {drstd.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    work = WORK_ROOT / f"{args.workload}-s{args.seed}-{os.getpid()}"
    reset_dir(work)
    runner = Runner(WORKLOADS[args.workload], args.seed, work)
    measure = measure_traced if args.trace else measure_untraced
    try:
        metrics, record, inputs, out = measure(runner, args.seconds)
        sizes = input_sizes(runner, inputs, out)
        if args.trace:
            metrics.update({f"input.{k}": (v, "count") for k, v in sizes.items()})
    except CheckFailed as exc:
        runner.failures.append(str(exc))
        print(f"perfbench: {args.workload} seed {args.seed}: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    failed = len(runner.failures)
    env = environment()
    run_path = (WORK_ROOT / "runs"
                / f"{args.workload}-s{args.seed}-trace{args.trace}.json")
    run_path.parent.mkdir(parents=True, exist_ok=True)
    run_path.write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
         "trace": args.trace, "environment": env, "inputs": sizes,
         "attempted": runner.attempted, "failed": failed,
         "failures": runner.failures,
         "metrics": {k: v for k, (v, _) in metrics.items()}, **record},
        indent=1) + "\n", encoding="utf-8")

    print(f"# {args.workload} seed {args.seed}  env {json.dumps(env)}", file=sys.stderr)
    print(f"# inputs {json.dumps(sizes)}", file=sys.stderr)
    print(f"# error_rate {failed / runner.attempted:.4f} "
          f"({failed} of {runner.attempted} passes failed)", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:8s} {name:44s} {value:14.6f} {unit}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0, "attempted": runner.attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
