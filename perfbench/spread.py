"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads kwlist,scoring --seeds 1-10

For every workload and seed it runs ``perfbench/run.py`` once (one at a
time), prints each run's metrics, then for each metric the median, the
first and third quartiles (``statistics.quantiles(values, n=4)``) and
their distance as a share of the median, next to the bound in
BENCHMARK.json. It also prints the error rate, failed over attempted
passes, per workload. Results are kept in ``.perfbench_work/spread/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads",
                        default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 7,11")
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    metrics_spec = spec["per_layer" if args.trace else "end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in metrics_spec}
    results = {}
    for workload in args.workloads.split(","):
        runs = results[workload] = []
        for seed in parse_seeds(args.seeds):
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(ROOT / "perfbench" / "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True)
            elapsed = time.perf_counter() - start
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n"
                      f"{proc.stderr[-2000:]}", file=sys.stderr)
                runs.append({"seed": seed, "exit": proc.returncode,
                             "elapsed_s": elapsed})
                continue
            result = json.loads(lines[-1])
            runs.append({"seed": seed, "exit": 0, "elapsed_s": elapsed, **result})
            values = " ".join(f"{k}={v['value']:.6g}{v['unit']}"
                              for k, v in result["metrics"].items())
            print(f"{workload:8s} seed {seed:3d} {elapsed:6.1f}s "
                  f"correct={result['correct']} failed={result['failed']}/"
                  f"{result['attempted']} {values}", flush=True)

    print()
    worst = 0.0
    for workload, runs in results.items():
        ok = [r for r in runs if r["exit"] == 0]
        attempted = sum(r.get("attempted", 1) for r in runs)
        failed = sum(r.get("failed", 1) for r in runs)
        print(f"{workload}: {len(ok)}/{len(runs)} runs ok, error_rate "
              f"{failed / max(attempted, 1):.4f} ({failed}/{attempted} passes), "
              f"longest run {max(r['elapsed_s'] for r in runs):.1f}s")
        for name in (ok[0]["metrics"] if ok else {}):
            values = [r["metrics"][name]["value"] for r in ok]
            unit = ok[0]["metrics"][name]["unit"]
            median = statistics.median(values)
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
            else:
                q1 = q3 = median
            share = (q3 - q1) / abs(median) if median else float("nan")
            bound = bounds.get(name)
            flag = ""
            if bound is not None:
                flag = f"bound {bound}  {'OK' if share < bound / 3 else 'WIDE'}"
                if name != "setup_s":
                    worst = max(worst, share / bound)
            print(f"  {name:42s} median {median:12.6g} {unit:6s} "
                  f"q1 {q1:12.6g} q3 {q3:12.6g} spread {share:7.4f}  {flag}")
    print(f"\nlargest spread / bound (setup_s excluded): {worst:.3f}")

    out = ROOT / ".perfbench_work" / "spread"
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{time.strftime('%Y%m%d-%H%M%S')}-trace{args.trace}.json"
    path.write_text(json.dumps(results, indent=1) + "\n", encoding="utf-8")
    print(f"results: {path.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
