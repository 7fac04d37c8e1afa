"""Seeded end-to-end and per-layer benchmark for the cncut package.

    python3 perfbench/run.py --workload auto-mix --seed 1 --seconds 20 --trace 0

One closed-loop client: a single process, no threads, and the next decision
starts when the previous one has finished (cold-cli runs one `cnc solve`
child at a time). Every answer is checked: a YES cut is re-verified with
`verify_solution` and with the benchmark's own pair count, and every answer
is compared with a reference made when the workload is generated.

Times are reported at a reference machine speed. The speed of a shared
host like the 2-core sandbox this was tuned on shifts by up to 1.5x from one
second to the next, so a fixed probe runs between decisions and each
decision's time is scaled by the probes around it; see `Speed`. The
unscaled figures are printed as well.

With --trace 0 the last line of stdout holds the end-to-end metrics; with
--trace 1 it holds the per-layer metrics of a traced run. The lines before it
print the same figures for people, with the failure causes and the tail's
percentile and sample counts. Exit code 1 means an answer check failed,
2 that the package or an argument is missing.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from array import array
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_REPEATS = 5
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
CAUSES = ("wrong", "unverified", "refused", "timeout", "crash")
# Causes that mean the program gave a bad answer or broke, not that it
# declined or ran out of time; any of them makes the run incorrect.
BAD = ("wrong", "unverified", "crash")


@dataclass(frozen=True)
class Workload:
    name: str
    limit_s: float  # per-decision time limit
    tail_pct: float  # highest tail percentile reported


WORKLOADS = {
    w.name: w for w in (
        Workload("catalogue", 2.0, 95.0),
        Workload("auto-mix", 2.0, 95.0),
        Workload("branch-heavy", 1.5, 90.0),
        Workload("cold-cli", 5.0, 75.0),
    )
}

clock = time.perf_counter


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# ------------------------------------------------------------------ decisions

class TimeLimit(Exception):
    """The per-decision time limit expired."""


class _Abort(Exception):
    """Stops a run_bench call after a decision that broke or failed verification."""


def _alarm(signum, frame):
    raise TimeLimit()


@contextmanager
def time_limit(seconds: float):
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def _crash(exc: BaseException) -> str:
    traceback.print_exception(exc, file=sys.stderr)
    return "crash"


def call(fn, *args, limit: float, **kwargs):
    """Run one decision; returns (start, elapsed ms, result or failure cause)."""
    t0 = clock()
    try:
        with time_limit(limit):
            outcome = fn(*args, **kwargs)
    except TimeLimit:
        outcome = "timeout"
    except graph.Refusal:
        outcome = "refused"
    except AssertionError as exc:  # the harness's own re-verification failed
        print(f"unverified: {exc}", file=sys.stderr)
        outcome = "unverified"
    except Exception as exc:
        outcome = _crash(exc)
    return t0, (clock() - t0) * 1e3, outcome


def check_answer(item, expect: bool, answer: str, cut) -> str | None:
    """None when the answer is right, else the failure cause."""
    x_eff = item.x_bound()
    if answer == "YES":
        if not all(0 <= v < item.n for v in cut):
            return "unverified"
        report = graph.verify_solution(
            graph.Graph.from_edges(item.n, item.edges), cut, item.k, x_eff
        )
        own = workloads.residual_pairs(item.n, item.edges, cut)
        if not report.ok or len(set(cut)) > item.k or own > x_eff or own != report.residual_pairs:
            return "unverified"
        return None if expect else "wrong"
    if answer == "NO":
        return "wrong" if expect else None
    return "crash"


def check_report(item, expect, outcome) -> str | None:
    if isinstance(outcome, str):
        return outcome
    return check_answer(item, expect, outcome.answer, outcome.cut or ())


class Tally:
    """Decisions and public calls as (start, ms), and failure causes.

    Decision times live in arrays, so that the benchmark's own bookkeeping
    adds little to peak_rss_mb however many decisions a run makes.
    """

    def __init__(self):
        self.starts = array("d")
        self.ms = array("d")
        self.calls: list[tuple[float, float]] = []
        self.causes: Counter = Counter()

    def add(self, start: float, ms: float, cause: str | None) -> None:
        self.starts.append(start)
        self.ms.append(ms)
        if cause is not None:
            self.causes[cause] += 1

    def merge(self, other: Tally) -> None:
        self.starts += other.starts
        self.ms += other.ms
        self.calls += other.calls
        self.causes.update(other.causes)

    def decisions(self):
        return zip(self.starts, self.ms)

    @property
    def attempted(self) -> int:
        return len(self.ms)

    @property
    def failed(self) -> int:
        return sum(self.causes.values())


class Speed:
    """How fast the machine ran around each moment of the run.

    In-process workloads time a fixed piece of pure-Python graph work that
    does not touch cncut, every 0.1 s between decisions. cold-cli times a
    fresh `python -c pass` before every decision, because process start-up
    follows the host's state more closely than a loop does. `scale` turns a
    measured time into the time it would have taken at the reference speed,
    using the median probe from `window_s` before the span's start to
    `window_s` after its end. The reference is the probe's typical time on a
    2-core x86-64 sandbox with Python 3.11.
    """

    def __init__(self, spawn_env=None):
        self.spawn_env = spawn_env
        if spawn_env is None:
            self.every_s, self.window_s, self.reference_ms = 0.1, 0.3, 2.0
            rng = random.Random(0)
            self.edges = sorted({tuple(sorted(rng.sample(range(200), 2))) for _ in range(300)})
        else:
            self.every_s, self.window_s, self.reference_ms = 0.0, 0.2, 75.0
        self.at: list[float] = []
        self.ms: list[float] = []

    def probe(self) -> None:
        t0 = clock()
        if self.spawn_env is None:
            for _ in range(16):
                workloads.residual_pairs(200, self.edges, (0, 1))
        else:
            subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, env=self.spawn_env,
                           timeout=60, check=True)
        self.ms.append((clock() - t0) * 1e3)
        self.at.append(t0)

    def maybe_probe(self) -> None:
        if not self.at or clock() - self.at[-1] >= self.every_s:
            self.probe()

    def factor(self, start: float | None = None, ms: float = 0.0) -> float:
        """Probe time over the reference around a span, or over the whole run."""
        if start is None:
            return statistics.median(self.ms) / self.reference_ms
        lo = bisect.bisect_left(self.at, start - self.window_s)
        hi = bisect.bisect_right(self.at, start + ms / 1e3 + self.window_s)
        if lo == hi:  # no probe in the window: take the nearest one
            i = min(bisect.bisect_left(self.at, start), len(self.at) - 1)
            lo, hi = i, i + 1
        return statistics.median(self.ms[lo:hi]) / self.reference_ms

    def recent(self) -> float:
        """Speed factor of the last few probes."""
        return statistics.median(self.ms[-5:]) / self.reference_ms

    def scale(self, spans) -> list[float]:
        return [ms / self.factor(start, ms) for start, ms in spans]


# ------------------------------------------------------------------- runners

def single(start: float, ms: float, cause: str | None) -> Tally:
    tally = Tally()
    tally.calls.append((start, ms))
    tally.add(start, ms, cause)
    return tally


def passes(pool, seconds: float, speed: Speed):
    """Yield (pass number, item) over whole passes of the pool, until a pass
    ends after `seconds`.

    A run covers whole passes, so every metric weighs the classes as the pool
    does, and counts over the first pass are exact. The speed probe runs
    between items, and once more at the end.
    """
    start = clock()
    p = 0
    while p == 0 or clock() - start < seconds:
        for item in pool:
            speed.maybe_probe()
            yield p, item
        p += 1
    speed.probe()


class Runner:
    def __init__(self, wl: Workload, pool: list, cfg, speed: Speed):
        self.wl, self.pool, self.cfg, self.speed = wl, pool, cfg, speed
        self.refs = None  # set once the pool is final

    @property
    def limit(self) -> float:
        """The time limit in seconds now: the workload's limit at reference speed."""
        return self.wl.limit_s * self.speed.recent()


class InProcess(Runner):
    """auto-mix and branch-heavy: `run_instance(algo="auto")` per item."""

    def run(self, i) -> Tally:
        item = self.pool[i]
        t0, ms, outcome = call(harness.run_instance, item.instance(), "auto", self.cfg,
                               limit=self.limit)
        return single(t0, ms, check_report(item, self.refs[i], outcome))

    def warm(self):
        seen = set()
        for i, item in enumerate(self.pool):
            if item.cls not in seen and item.cls != "hang":
                seen.add(item.cls)
                call(harness.run_instance, item.instance(), "auto", self.cfg,
                     limit=self.limit)


class Catalogue(Runner):
    """`run_bench` per chunk; a hook on its `run_instance` times each decision."""

    def __init__(self, *args):
        super().__init__(*args)
        self.records: list = []
        # Probe between the decisions of a chunk too; a traced run turns this
        # off, since the probe time would land in run_bench's self time.
        self.probing = True
        self.probe_ms = 0.0
        self.chunk_limit = self.limit
        bench.run_instance = self._timed

    def _timed(self, inst, algo="auto", config=None, ntd=None):
        if self.probing:
            probes = len(self.speed.ms)
            self.speed.maybe_probe()
            self.probe_ms += sum(self.speed.ms[probes:])
        t0, ms, outcome = call(harness.run_instance, inst, algo=algo, config=config, ntd=ntd,
                               limit=self.chunk_limit)
        self.records.append((inst, t0, ms, outcome))
        if outcome in ("refused", "timeout"):
            raise graph.Refusal(outcome)  # run_bench records it as REFUSED
        if isinstance(outcome, str):
            raise _Abort(outcome)
        return outcome

    def run(self, i) -> Tally:
        """One run_bench call; its time excludes the speed probes made inside it."""
        tally = Tally()
        self.records = []
        self.probe_ms = 0.0
        self.chunk_limit = self.limit
        t0 = clock()
        rows = None
        try:
            rows = bench.run_bench(self.pool[i], engines=harness.ENGINES, config=self.cfg)
        except _Abort:
            pass  # the decision that failed is in self.records
        except bench.BenchDiscrepancy as exc:
            print(f"wrong: {exc}", file=sys.stderr)
            tally.causes["wrong"] += 1
        except Exception as exc:
            tally.causes[_crash(exc)] += 1
        tally.calls.append((t0, (clock() - t0) * 1e3 - self.probe_ms))
        for inst, start, ms, outcome in self.records:
            tally.add(start, ms, self._check(inst, outcome))
        answers = [o if isinstance(o, str) else o.answer for *_, o in self.records]
        if rows is not None and [r["answer"] for r in rows] != [
            "REFUSED" if a in CAUSES else a for a in answers
        ]:
            print("wrong: run_bench rows differ from the decisions made", file=sys.stderr)
            tally.causes["wrong"] += 1
        return tally

    def _check(self, inst, outcome) -> str | None:
        if isinstance(outcome, str):
            return outcome
        g = inst.graph
        item = workloads.Item("catalogue", g.n, tuple(sorted(g.edges)), inst.k, inst.x, inst.y)
        expect = self.refs[g.n, g.edges, inst.k] <= item.x_bound()
        return check_answer(item, expect, outcome.answer, outcome.cut or ())

    def warm(self):
        bench.run_bench("all:n=4:k=0-1:x=0-2", config=self.cfg)


def child_env() -> dict:
    """The environment of a `cnc solve` child: package on the path, no config file."""
    env = {k: v for k, v in os.environ.items() if k != "CNC_CONFIG"}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


class ColdCli(Runner):
    """`python -m cncut.cli solve FILE` per item, one child at a time."""

    def __init__(self, *args):
        super().__init__(*args)
        self.dir = WORK / f"cli-{os.getpid()}"
        self.env = child_env()

    def write_files(self):
        self.dir.mkdir(parents=True, exist_ok=True)
        for i, item in enumerate(self.pool):
            (self.dir / f"{i:03d}.cnc").write_text(item.text(), encoding="utf-8")

    def remove_files(self):
        for i in range(len(self.pool)):
            (self.dir / f"{i:03d}.cnc").unlink(missing_ok=True)
        self.dir.rmdir()

    def spawn(self, i):
        cmd = [sys.executable, "-m", "cncut.cli", "solve", str(self.dir / f"{i:03d}.cnc")]
        t0 = clock()
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=self.env, capture_output=True,
                                  text=True, timeout=self.limit)
        except subprocess.TimeoutExpired:
            return t0, (clock() - t0) * 1e3, "timeout"
        return t0, (clock() - t0) * 1e3, proc

    def run(self, i) -> Tally:
        t0, ms, proc = self.spawn(i)
        return single(t0, ms, self._check(i, proc))

    def _check(self, i, proc) -> str | None:
        if isinstance(proc, str):
            return proc
        if proc.returncode == 3:
            return "refused"
        fields = dict(
            line.split(": ", 1) for line in proc.stdout.splitlines() if ": " in line
        )
        answer = fields.get("answer")
        if (proc.returncode, answer) not in ((0, "YES"), (1, "NO")):
            print(f"crash: exit {proc.returncode}: {proc.stderr.strip()[-500:]}", file=sys.stderr)
            return "crash"
        cut = ()
        if answer == "YES":
            text = fields.get("cut", "")
            try:
                cut = () if text == "(empty)" else tuple(int(v) - 1 for v in text.split())
            except ValueError:
                return "unverified"
        return check_answer(self.pool[i], self.refs[i], answer, cut)

    def replay(self, i) -> Tally:
        """The same decision in-process: parse plus `run_instance`."""
        text = self.pool[i].text()

        def parse_and_solve():
            return harness.run_instance(instance_io.parse_instance(text), "auto", self.cfg)

        t0, ms, outcome = call(parse_and_solve, limit=self.limit)
        return single(t0, ms, check_report(self.pool[i], self.refs[i], outcome))

    def warm(self):
        self.write_files()
        self.spawn(0)


# ------------------------------------------------------------------- metrics

def percentile(sorted_values, pct: float) -> float:
    pos = pct / 100 * (len(sorted_values) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def tail(times, cap: float):
    """Highest ladder percentile (at most cap) with >= 10 samples beyond it."""
    values = sorted(times)
    for pct in TAIL_LADDER:
        if pct <= cap and len(values) * (1 - pct / 100) >= 10:
            return pct, percentile(values, pct)
    return 50.0, percentile(values, 50.0)


def peak_rss_mb(children: bool) -> float:
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(wl, tally: Tally, speed: Speed, setup_s: float) -> dict:
    times = speed.scale(tally.decisions())
    call_s = sum(speed.scale(tally.calls)) / 1e3
    pct, tail_ms = tail(times, wl.tail_pct)
    beyond = sum(1 for t in times if t > tail_ms)
    print(f"solve_ms.tail is p{pct:g} over {tally.attempted} decisions, {beyond} beyond it")
    raw = list(tally.ms)
    print(f"unscaled: decisions_per_s {tally.attempted / sum(ms for _, ms in tally.calls) * 1e3:.6g}"
          f" solve_ms.p50 {statistics.median(raw):.6g} solve_ms.tail {tail(raw, pct)[1]:.6g};"
          f" speed factor median {speed.factor():.3f}"
          f" (min {min(speed.ms) / speed.reference_ms:.3f},"
          f" max {max(speed.ms) / speed.reference_ms:.3f}, {len(speed.ms)} probes)")
    return {
        "decisions_per_s": metric(tally.attempted / call_s, "1/s"),
        "solve_ms.p50": metric(statistics.median(times), "ms"),
        "solve_ms.tail": metric(tail_ms, "ms"),
        "ok_share": metric(1 - tally.failed / tally.attempted, "share"),
        "peak_rss_mb": metric(peak_rss_mb(wl.name == "cold-cli"), "MB"),
        "setup_s": metric(setup_s, "s"),
    }


def per_layer(tracer_, speed: Speed, traced: Tally, first: Tally, overhead: float,
              cli: dict) -> dict:
    c = tracer_.counters
    per_ms = 1 / (max(traced.attempted, 1) * speed.factor())
    out = {name: metric(ms * per_ms, "ms") for name, ms in tracer_.layer_ms().items()}
    out["cli.import_ms"] = metric(cli.get("import_ms", 0.0), "ms")
    out["cli.overhead_ms"] = metric(cli.get("overhead_ms", 0.0), "ms")
    for engine in harness.ENGINES + ("trivial",):
        out[f"harness.ran.{engine}"] = metric(c[f"harness.ran.{engine}"], "count")
    out["harness.ran.refused"] = metric(first.causes["refused"], "count")
    out["decomposition.heuristic_calls"] = metric(
        c["decomposition.heuristic_calls"] / max(first.attempted, 1), "1/decision")
    for name in ("treewidth_dp.structs", "branching.nodes", "branching.extensions",
                 "kernel.calls", "oracle.candidates", "component_dp.subsets"):
        out[name] = metric(c[name], "count")
    out["branching.extend_hit_ratio"] = metric(
        c["branching.extend_hits"] / max(c["branching.extensions"], 1), "ratio")
    out["component_dp.shortcut_ratio"] = metric(
        c["component_dp.shortcuts"] / max(c["component_dp.calls"], 1), "ratio")
    out["trace.overhead_share"] = metric(overhead, "share")
    out["pass.decisions"] = metric(first.attempted, "count")
    out["fail_share"] = metric(first.failed / max(first.attempted, 1), "share")
    for cause in CAUSES:
        out[f"fail.{cause}"] = metric(first.causes[cause], "count")
    return out


# ---------------------------------------------------------------------- main

def untraced_run(runner, seconds, speed) -> Tally:
    tally = Tally()
    for _, i in passes(range(len(runner.pool)), seconds, speed):
        tally.merge(runner.run(i))
    return tally


def traced_run(runner, seconds, speed, tracer_):
    """Each pool entry runs untraced and traced, in alternating order.

    cold-cli runs each file cold first, then replays it in-process untraced
    and traced. Returns the traced tally, the first traced pass's tally, the
    other tallies (untraced, cold), the tracing overhead share and the cli.*
    metrics.
    """
    traced, first, plain, cold = Tally(), Tally(), Tally(), Tally()
    cli_gap: list[tuple[float, float]] = []
    runner.probing = False
    in_process = runner.replay if isinstance(runner, ColdCli) else runner.run
    for p, i in passes(range(len(runner.pool)), seconds, speed):
        tracer_.counting = p == 0
        if isinstance(runner, ColdCli):
            cold.merge(runner.run(i))
        for on in ((False, True) if p % 2 == 0 else (True, False)):
            if on:
                tracer_.install()
            try:
                tally = in_process(i)
            finally:
                if on:
                    tracer_.uninstall()
                    tracer_.repair()
            (traced if on else plain).merge(tally)
            if on and p == 0:
                first.merge(tally)
            if not on and isinstance(runner, ColdCli):
                cli_gap.append((cold.starts[-1], cold.ms[-1] - tally.ms[-1]))
    cli = {}
    if isinstance(runner, ColdCli):
        cli["overhead_ms"] = statistics.fmean(speed.scale(cli_gap))
        probes = []
        for _ in range(5):
            speed.probe()
            probes.append(import_probe(runner.env, "cncut.cli"))
        cli["import_ms"] = statistics.median(speed.scale(probes))
    overhead = sum(speed.scale(traced.calls)) / sum(speed.scale(plain.calls)) - 1
    return traced, first, (plain, cold), overhead, cli


def import_probe(env, module: str) -> tuple[float, float]:
    """(start, ms) of importing `module` in a fresh interpreter."""
    code = (f"import time; t = time.perf_counter(); import {module}; "
            "print((time.perf_counter() - t) * 1e3)")
    t0 = clock()
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    return t0, float(proc.stdout)


RUNNERS = {"catalogue": Catalogue, "auto-mix": InProcess,
           "branch-heavy": InProcess, "cold-cli": ColdCli}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "cncut" / "__init__.py").is_file():
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload]

    sys.path.insert(0, str(SRC))
    global bench, graph, harness, instance_io, workloads
    from cncut import bench, graph, harness, instance_io
    import tracer
    import workloads

    signal.signal(signal.SIGALRM, _alarm)
    cfg = harness.HarnessConfig()
    WORK.mkdir(exist_ok=True)
    env = child_env()
    speed = Speed(env if wl.name == "cold-cli" else None)
    # Each set-up imports in a fresh interpreter (this process has imported
    # once already), generates the pool and warms up. The import is scaled
    # by a `python -c pass` spawned just before it, which tracks the cost of
    # starting a process far better than the in-process probe does.
    starter = speed if wl.name == "cold-cli" else Speed(env)
    imports, rests, digests = [], [], []
    runner = None
    for _ in range(SETUP_REPEATS):
        speed.probe()
        if starter is not speed:
            starter.probe()
        _, import_ms = import_probe(env, "cncut.cli" if wl.name == "cold-cli" else "cncut.bench")
        imports.append(import_ms * starter.reference_ms / starter.ms[-1])
        t = clock()
        pool = workloads.make_pool(wl.name, args.seed)
        digests.append(workloads.digest(pool))
        runner = RUNNERS[wl.name](wl, pool, cfg, speed)
        runner.warm()
        rests.append((t, (clock() - t) * 1e3))
    speed.probe()
    if len(set(digests)) != 1:
        print(f"error: the same seed gave different inputs: {digests}", file=sys.stderr)
        return 1
    setup_s = statistics.median(map(sum, zip(imports, speed.scale(rests)))) / 1e3

    t = clock()
    if wl.name == "catalogue":
        runner.refs = workloads.catalogue_references(runner.pool)
    else:
        runner.refs = [workloads.reference(item) for item in runner.pool]
    print(f"workload {wl.name} seed {args.seed}: {len(runner.pool)} pool entries, "
          f"inputs {digests[0]}, references in {clock() - t:.2f} s")

    try:
        if args.trace:
            tracer_ = tracer.Tracer()
            traced, first, rest, overhead, cli = traced_run(runner, args.seconds, speed, tracer_)
            tracer_.write(WORK / f"spans-{wl.name}.tsv")
            metrics = per_layer(tracer_, speed, traced, first, overhead, cli)
            tallies = (traced, *rest)
        else:
            tally = untraced_run(runner, args.seconds, speed)
            metrics = end_to_end(wl, tally, speed, setup_s)
            tallies = (tally,)
    finally:
        if isinstance(runner, ColdCli):
            runner.remove_files()

    causes = sum((t.causes for t in tallies), Counter())
    attempted = sum(t.attempted for t in tallies)
    failed = sum(causes[c] for c in BAD)
    correct = failed == 0
    share = sum(causes.values()) / max(attempted, 1)
    print(f"fail_share {share:.4f} share of {attempted} decisions: "
          + " ".join(f"{c}={causes[c]}" for c in CAUSES))
    for name, m in metrics.items():
        print(f"{name} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
