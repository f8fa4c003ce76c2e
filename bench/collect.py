"""Run the benchmark over several seeds and summarise each metric.

    python3 bench/collect.py --seeds 1-10 --out FILE [workload ...]

For every workload (default: all three) it runs ``run.py --trace 0`` once
per seed, then reports each end-to-end metric's median, quartiles and
spread (interquartile distance over the median), the figure the bounds in
BENCHMARK.json are set against.  With ``--traced`` it also adds one
``--trace 1`` run per workload.  The JSON written to FILE holds the
machine, every run's result and the summaries.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    lines = proc.stdout.splitlines()
    return {"seed": seed, "machine": lines[0], "report": lines[2:-1],
            "result": json.loads(lines[-1])}


def summary(runs: list) -> dict:
    out = {}
    for name in runs[0]["result"]["metrics"]:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        out[name] = {"median": med, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / med if med else None}
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", default="1-10", help="range, e.g. 1-10")
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("workloads", nargs="*",
                        default=["catalog", "certify", "oracle"])
    args = parser.parse_args()
    lo, hi = map(int, args.seeds.split("-"))
    seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    report = {}
    for workload in args.workloads:
        runs = [run(workload, seed, seconds, 0) for seed in range(lo, hi + 1)]
        entry = {"runs": runs, "summary": summary(runs)}
        if args.traced:
            entry["traced"] = run(workload, lo, seconds, 1)
        report[workload] = entry
        for name, s in entry["summary"].items():
            print(f"{workload:8s} {name:12s} median {s['median']:.6g} "
                  f"spread {s['spread']:.4f}", flush=True)
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
