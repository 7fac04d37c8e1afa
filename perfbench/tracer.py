"""Spans around the public functions of each cncut layer, installed from outside.

`Tracer.install` replaces every traced function in every loaded `cncut.*`
module namespace, matching functions by identity, so a call is seen whichever
module it goes through; `uninstall` puts the originals back. Spans (name,
start, end, parent) are kept in flat arrays and turned into per-layer self
times when the run ends. Work counters are read from the values the public
calls already return.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter

# Traced function -> the per-layer metric its self time is charged to.
# verify_solution is charged to the span that called it, except under
# run_instance, where it is the harness's own re-verification.
BUCKETS = {
    "bench.run_bench": "bench.self_ms",
    "harness.run_instance": "harness.self_ms",
    "harness.select_algorithm": "harness.select_ms",
    "instance_io.parse_instance": "instance_io.parse_ms",
    "decomposition.heuristic_decomposition": "decomposition.heuristic_ms",
    "decomposition.make_nice": "decomposition.nice_ms",
    "decomposition.validate_nice": "decomposition.validate_ms",
    "decomposition.validate_decomposition": "decomposition.validate_ms",
    "treewidth_dp.compute_tables": "treewidth_dp.tables_ms",
    "treewidth_dp.join_table": "treewidth_dp.join_ms",
    "treewidth_dp.extract_cut": "treewidth_dp.extract_ms",
    "treewidth_dp.solve_wx": "treewidth_dp.extract_ms",
    "branching.enumerate_minimal_covers": "branching.search_ms",
    "branching.extend_minimal_cover": "branching.extend_ms",
    "branching.solve_branch_kx": "branching.extend_ms",
    "kernel.kernelize_kx": "kernel.ms",
    "oracle.oracle_min_pairs": "oracle.ms",
    "oracle.oracle_decides": "oracle.ms",
    "oracle.oracle_max_removed_exact": "oracle.ms",
    "component_dp.solve_y": "component_dp.ms",
    "graph.verify_solution": None,
}
HARNESS_VERIFY = "harness.verify_ms"
TIME_METRICS = sorted({b for b in BUCKETS.values() if b} | {HARNESS_VERIFY})


def _counters(c: Counter, name: str, result) -> None:
    """Harvest work counts from a traced call's return value."""
    if name == "branching.solve_branch_kx":
        c["branching.nodes"] += result.stats.nodes_visited
        c["branching.extensions"] += result.stats.extensions_tested
    elif name == "branching.extend_minimal_cover":
        c["branching.extend_hits"] += result is not None
    elif name == "treewidth_dp.solve_wx":
        c["treewidth_dp.structs"] += result.stats.total_structs
    elif name in ("oracle.oracle_min_pairs", "oracle.oracle_max_removed_exact"):
        c["oracle.candidates"] += result.explored
    elif name == "component_dp.solve_y":
        c["component_dp.calls"] += 1
        c["component_dp.subsets"] += sum(result.stats.subsets_examined)
        c["component_dp.shortcuts"] += result.stats.shortcut is not None
    elif name == "decomposition.heuristic_decomposition":
        c["decomposition.heuristic_calls"] += 1
    elif name == "kernel.kernelize_kx":
        c["kernel.calls"] += 1
    elif name == "harness.run_instance":
        c["harness.ran." + result.algorithm] += 1


class Tracer:
    def __init__(self) -> None:
        self.quals: list[str] = []  # span name table
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[int] = []
        self.counters: Counter = Counter()
        self.counting = True  # counters cover the first pass only
        self._patches: list[tuple[object, str, object]] = []
        self._wrappers: dict[int, object] = {}
        self._originals: dict[int, tuple[str, object]] = {}
        for qual in BUCKETS:
            mod_name, _, attr = qual.partition(".")
            fn = getattr(sys.modules["cncut." + mod_name], attr)
            self._originals[id(fn)] = (qual, fn)

    def _wrap(self, qual: str, fn):
        name_id = len(self.quals)
        self.quals.append(qual)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self.stack
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if tracer.counting:
                _counters(tracer.counters, qual, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        self.stack.clear()
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "cncut" or mod_name.startswith("cncut.")):
                continue
            for attr, value in list(vars(mod).items()):
                key = id(value)
                if key not in self._originals:
                    continue
                qual, fn = self._originals[key]
                if key not in self._wrappers:
                    self._wrappers[key] = self._wrap(qual, fn)
                setattr(mod, attr, self._wrappers[key])
                self._patches.append((mod, attr, value))

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._patches):
            setattr(mod, attr, value)
        self._patches.clear()

    def repair(self) -> None:
        """Drop a span whose bookkeeping a time-limit signal cut short."""
        arrays = (self.span_name, self.span_parent, self.span_start, self.span_end)
        keep = min(len(a) for a in arrays)
        for a in arrays:
            del a[keep:]
        self.stack.clear()

    def layer_ms(self) -> dict[str, float]:
        """Total self time per layer metric, in milliseconds."""
        count = len(self.span_name)
        child = [0.0] * count
        dur = [self.span_end[i] - self.span_start[i] for i in range(count)]
        for i in range(count):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += dur[i]
        totals = dict.fromkeys(TIME_METRICS, 0.0)
        for i in range(count):
            bucket = self._bucket(i)
            if bucket is not None:
                totals[bucket] += (dur[i] - child[i]) * 1e3
        return totals

    def _bucket(self, i: int) -> str | None:
        qual = self.quals[self.span_name[i]]
        bucket = BUCKETS[qual]
        if bucket is not None:
            return bucket
        parent = self.span_parent[i]
        if parent < 0:
            return None
        if self.quals[self.span_name[parent]] == "harness.run_instance":
            return HARNESS_VERIFY
        return self._bucket(parent)

    def write(self, path) -> None:
        """Dump every span as tab-separated name, start, end, parent index."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\n")
            for i in range(len(self.span_name)):
                fh.write(
                    f"{self.quals[self.span_name[i]]}\t{self.span_start[i]:.9f}\t"
                    f"{self.span_end[i]:.9f}\t{self.span_parent[i]}\n"
                )
