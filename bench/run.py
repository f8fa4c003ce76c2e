"""identity-lab benchmark: one workload per run, one JSON result line.

    python3 bench/run.py --workload catalog|certify|oracle --seed N \\
        --seconds S --trace 0|1

Run it from the repository root.  With ``--trace 0`` the run repeats
passes of the workload, each on a fresh set-up, while another pass still
fits in S seconds (at least one), and reports the end-to-end metrics.
With ``--trace 1`` it runs one pass untraced and one pass traced, reports
the per-layer metrics of the traced pass plus the tracing overhead, and
writes the spans under ``bench/out/``.  Every answer is checked; the last
line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"
SETUP_REPS = 5


def machine() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version()}


def fresh_import_seconds() -> float:
    """Wall time of ``import identity_lab`` in a new interpreter, which
    every CLI invocation pays; work moved to import time shows here."""
    path = os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH"))))
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import identity_lab"],
                   env=dict(os.environ, PYTHONPATH=path), check=True)
    return time.perf_counter() - start


def timed_setup(workload):
    """One set-up: its state, and its time plus a fresh import's."""
    t0 = time.perf_counter()
    state = workload.setup()
    return state, time.perf_counter() - t0 + fresh_import_seconds()


def measure(workload, seconds: float):
    """Timed passes while another one fits in ``seconds``; set-up times."""
    from workloads import checked_pass

    passes, setups = [], []
    started = time.perf_counter()
    while True:
        state, setup_s = timed_setup(workload)
        setups.append(setup_s)
        t0 = time.perf_counter()
        runs = workload.run_pass(state)
        wall = time.perf_counter() - t0
        passes.append(checked_pass(workload, state, runs))
        del runs, state
        if time.perf_counter() - started + wall > seconds:
            break
    while len(setups) < SETUP_REPS:
        setups.append(timed_setup(workload)[1])
    return passes, statistics.median(setups)


def measure_traced(workload, trace_path: Path):
    """One untraced and one traced pass, set-up included in both."""
    from tracing import Tracer
    from workloads import checked_pass

    t0 = time.perf_counter()
    state = workload.setup()
    runs = workload.run_pass(state)
    untraced = time.perf_counter() - t0
    plain = checked_pass(workload, state, runs)
    del runs, state
    tracer = Tracer()
    t0 = time.perf_counter()
    with tracer:
        state = workload.setup()
        runs = workload.run_pass(state)
    traced = time.perf_counter() - t0
    spanned = checked_pass(workload, state, runs)
    del runs, state
    metrics = tracer.layer_metrics()
    metrics["trace.overhead_s"] = (traced - untraced, "s")
    tracer.write(trace_path)
    return [plain, spanned], metrics


def answers_digest(p) -> str:
    return hashlib.sha256(
        json.dumps([op.answer for op in p.ops], sort_keys=True).encode()
    ).hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["catalog", "certify", "oracle"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    if not (SRC / "identity_lab" / "__init__.py").is_file():
        print(f"error: no identity_lab sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    OUT.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        workload = WORKLOADS[args.workload](args.seed, Path(workdir))
        if args.trace:
            trace_path = OUT / f"trace-{args.workload}-{args.seed}.jsonl.gz"
            passes, metrics = measure_traced(workload, trace_path)
        else:
            passes, setup_s = measure(workload, args.seconds)

    ops = [op for p in passes for op in p.ops]
    problems = [op.problem for op in ops if op.problem]
    digests = {answers_digest(p) for p in passes}
    for problem in problems[:20]:
        print(f"wrong: {problem}", file=sys.stderr)
    if len(digests) > 1:
        print("wrong: answers differ between passes", file=sys.stderr)

    m = machine()
    print(f"machine: nproc={m['nproc']} cpu={m['cpu']!r} python={m['python']}")
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} passes={len(passes)}")
    if not args.trace:
        report = workload.report(passes)
        for name, (value, unit) in report.items():
            print(f"{name} = {value:.6g} {unit}")
        metrics = {
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
            "pass_s": (statistics.median(p.seconds for p in passes), "s"),
            **{k: (v, "s") for k, v in workload.headline(report).items()},
        }
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"ops = {len(ops)}, errors = {len(problems)}, "
          f"error_rate = {len(problems) / len(ops):.6g}")
    print(f"answers sha256 = {min(digests)}")
    print(json.dumps({
        "correct": not problems and len(digests) == 1,
        "attempted": len(ops),
        "failed": len(problems),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
