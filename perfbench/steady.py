"""Run every workload several times and show how steady the benchmark is.

    python3 perfbench/steady.py --runs 10 --sets 2 --trace-runs 2

For each set, each workload runs --runs times through perfbench/run.py, each
time with another --seed. For every workload and end-to-end metric this
prints the median, the quartiles and the spread (q3 - q1) / median next to the
metric's bound from BENCHMARK.json, and failed_share, the runs that failed
over the runs attempted. With two sets it also prints how far the second
set's median moved from the first. With --trace-runs k it then makes k traced
runs per workload and names every exact-count per-layer metric that did not
repeat. The summary is also written to .perfbench_results/steady.json.

A spread below a third of the bound reads "ok", one up to the bound "over a
third of the bound", and a wider one "WIDE"; setup_s is judged like the
others. Set 2's median must lie within the bound of set 1's, either way.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SEED_BASE = 100  # set s, run k uses --seed SEED_BASE + s * runs + k

# Per-layer counts that must repeat exactly across runs of one commit.
EXACT_COUNTS = ("autodiff.nodes_per_step", "masks.units", "pipeline.stage2_steps",
                "certify.forward_calls_per_sample", "certify.grid_evals_per_sample",
                "certify.minor_faults_per_sample")


def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run([sys.executable, str(ROOT / "perfbench" / "run.py"),
                           "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-1])


def spread(values: list[float]) -> tuple[float, float, float, float]:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3, (q3 - q1) / med


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--trace-runs", type=int, default=0)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]

    summary = {}
    for workload in (w["name"] for w in spec["workloads"]):
        medians_by_set, attempted, failed = [], 0, 0
        for s in range(args.sets):
            results = [bench(workload, SEED_BASE + s * args.runs + k, seconds, 0)
                       for k in range(1, args.runs + 1)]
            attempted += sum(r["attempted"] for r in results)
            failed += sum(r["failed"] for r in results)
            medians = {}
            for metric in spec["end_to_end"]:
                name, unit = metric["name"], metric["unit"]
                values = [r["metrics"][name]["value"] for r in results]
                q1, med, q3, share = spread(values)
                medians[name] = med
                verdict = ("ok" if share < bounds[name] / 3 else
                           "WIDE" if share > bounds[name] else "over a third of the bound")
                print(f"{workload} set {s + 1} {name}: median {med:.6g} {unit} "
                      f"(q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)}); spread "
                      f"{share:.4f} vs bound {bounds[name]} -> {verdict}", flush=True)
            medians_by_set.append(medians)
        for name, first in medians_by_set[0].items():
            for s, later in enumerate(medians_by_set[1:], start=2):
                drift = later[name] / first - 1
                flag = "ok" if abs(drift) <= bounds[name] else "OUTSIDE THE BOUND"
                print(f"{workload} {name}: set {s} median moved {drift:+.4f} from set 1 -> {flag}")
        print(f"{workload} failed_share: {failed / attempted!r} ({failed} of {attempted} runs)")

        repeats = {}
        traced = [bench(workload, SEED_BASE + k, seconds, 1)["metrics"]
                  for k in range(1, args.trace_runs + 1)]
        for name in EXACT_COUNTS:
            seen = sorted({t[name]["value"] for t in traced})
            repeats[name] = seen
            if len(seen) > 1:
                print(f"{workload} {name} did not repeat exactly: {seen}")
        summary[workload] = {"medians": medians_by_set, "attempted": attempted,
                             "failed": failed, "exact_counts": repeats}
    out = ROOT / ".perfbench_results"
    out.mkdir(exist_ok=True)
    (out / "steady.json").write_text(json.dumps(summary, indent=1), encoding="utf-8")


if __name__ == "__main__":
    main()
