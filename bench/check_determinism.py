"""Two traced runs with the same seed must agree on every count and answer.

    python3 bench/check_determinism.py [--seed N] [workload ...]

Runs ``run.py --trace 1`` twice per workload (default: all three) and
compares every per-layer metric that is not a time (``*.calls``,
``*.identities``, ``*.found``, ``*.accepted`` and the ratios built from
them) and the answers digest.  Exits 1 on any difference.
"""

import argparse
import sys

from collect import run


def traced_run(workload: str, seed: int):
    out = run(workload, seed, 1, 1)
    result = out["result"]
    digest = next(l for l in out["report"] if l.startswith("answers sha256 = "))
    counts = {name: m["value"] for name, m in result["metrics"].items()
              if m["unit"] != "s"}
    return result["correct"], digest, counts


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("workloads", nargs="*",
                        default=["catalog", "certify", "oracle"])
    args = parser.parse_args()
    ok = True
    for workload in args.workloads:
        first, second = (traced_run(workload, args.seed) for _ in range(2))
        same = first == second and first[0]
        ok &= same
        print(f"{workload}: {'same' if same else 'DIFFERENT'} "
              f"({len(first[2])} counts, correct={first[0]}/{second[0]})")
        for name in sorted(first[2]):
            if first[2][name] != second[2].get(name):
                print(f"  {name}: {first[2][name]} != {second[2].get(name)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
