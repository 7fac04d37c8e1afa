"""Reproduce the two branch-kx figures that the performance baseline starts from.

    python3 perfbench/baseline.py

1. Forced branch-kx on random_graph(40, 60, Random(0)) with k=6, x=8: the
   recorded run answered NO after 533,247 search nodes.
2. `--algo auto` on random_graph(30, 90, Random(3)) with k=8, x=12 (the
   branch-heavy workload's hang instance): auto picks branch-kx, and the run
   should overrun the branch-heavy time limit.

Prints what this checkout does next to the recorded figures; exits 1 when a
figure differs.
"""

from __future__ import annotations

import random
import signal
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BASELINE_SEED = 0
BASELINE_NODES = 533_247
HANG_LIMIT_S = 1.5  # the branch-heavy workload's per-decision limit


class TimeLimit(Exception):
    pass


def _alarm(signum, frame):
    raise TimeLimit()


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from cncut.families import random_graph
    from cncut.harness import HarnessConfig, run_instance
    from cncut.instance_io import CncInstance

    ok = True
    g = random_graph(40, 60, random.Random(BASELINE_SEED))
    t0 = time.perf_counter()
    report = run_instance(CncInstance(g, 6, x=8), algo="branch-kx", config=HarnessConfig())
    nodes = report.stats["nodes_visited"]
    print(f"branch-kx n=40 m=60 seed={BASELINE_SEED} k=6 x=8: {report.answer}, "
          f"{nodes:,} nodes in {time.perf_counter() - t0:.1f} s "
          f"(recorded: NO, {BASELINE_NODES:,} nodes)")
    ok &= report.answer == "NO" and nodes == BASELINE_NODES

    g = random_graph(30, 90, random.Random(3))
    signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, HANG_LIMIT_S)
    t0 = time.perf_counter()
    try:
        report = run_instance(CncInstance(g, 8, x=12), config=HarnessConfig())
        outcome = f"{report.answer} by {report.algorithm}"
    except TimeLimit:
        outcome = "timeout"
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    print(f"auto n=30 m=90 seed=3 k=8 x=12: {outcome} after "
          f"{time.perf_counter() - t0:.1f} s (recorded: timeout at {HANG_LIMIT_S} s)")
    ok &= outcome == "timeout"
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
