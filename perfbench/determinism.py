"""Check that two traced runs of one seed give the same inputs and exact counts.

    python3 perfbench/determinism.py --seed 7 [--seconds 5] [--workload NAME ...]

Runs `run.py --trace 1` twice per workload, one after the other, and
compares the input digest and every per-layer metric whose unit is `count`
(work counters, engine counts and failure counts). Exits 1 on a mismatch.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("catalogue", "auto-mix", "branch-heavy", "cold-cli")


def traced(workload: str, seed: int, seconds: float) -> tuple[str, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "1"],
        capture_output=True, text=True, check=True,
    )
    lines = proc.stdout.splitlines()
    inputs = next(line for line in lines if line.startswith("workload "))
    metrics = json.loads(lines[-1])["metrics"]
    counts = {k: m["value"] for k, m in metrics.items() if m["unit"] == "count"}
    return inputs.split(", ")[1], counts


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=5)
    p.add_argument("--workload", action="append", choices=WORKLOADS)
    args = p.parse_args()
    ok = True
    for workload in args.workload or WORKLOADS:
        first, second = (traced(workload, args.seed, args.seconds) for _ in range(2))
        same = first == second
        ok &= same
        print(f"{workload}: {first[0]}, {len(first[1])} counts "
              f"{'identical' if same else 'DIFFER'}")
        if not same:
            for key in sorted(set(first[1]) | set(second[1])):
                if first[1].get(key) != second[1].get(key):
                    print(f"  {key}: {first[1].get(key)} != {second[1].get(key)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
