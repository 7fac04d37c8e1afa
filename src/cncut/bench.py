"""Benchmark driver: instance families, per-engine rows, agreement enforcement.

A family spec is a colon-separated string, e.g.
    all:n=6:k=0-3:x=0-8
    random:n=10:m=18:count=25:seed=7:k=2:y=0-10
`all` sweeps every isomorphism class on n vertices; `random` draws count
graphs with exactly m edges. Ranges are inclusive `a-b` or a single value.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import Iterator

from .families import enumerate_graphs, random_graph
from .graph import InputError, Refusal
from .harness import ENGINES, HarnessConfig, run_instance
from .instance_io import CncInstance, serialize_instance

CSV_COLUMNS = (
    "instance", "engine", "algorithm", "rep", "n", "m", "k", "x", "y", "answer",
    "wall_ms", "stats",
)


class BenchDiscrepancy(RuntimeError):
    """Two engines disagreed on a decision; carries the instance for triage."""

    def __init__(self, name: str, answers: dict[str, str], instance_text: str):
        self.name = name
        self.answers = answers
        self.instance_text = instance_text
        detail = ", ".join(f"{e}={a}" for e, a in sorted(answers.items()))
        super().__init__(f"engines disagree on {name}: {detail}")


@dataclass(frozen=True)
class FamilySpec:
    kind: str  # all | random
    n: int
    m: int | None
    count: int | None
    seed: int
    k_range: tuple[int, int]
    target: str  # x | y
    target_range: tuple[int, int]


def _parse_range(text: str, key: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("-")
    try:
        a = int(lo)
        b = int(hi) if sep else a
    except ValueError:
        raise InputError(f"bad range for {key}: {text!r}") from None
    if b < a:
        raise InputError(f"empty range for {key}: {text!r}")
    return a, b


def parse_family(spec: str) -> FamilySpec:
    parts = spec.split(":")
    kind = parts[0]
    if kind not in ("all", "random"):
        raise InputError(f"unknown family kind {kind!r}")
    fields: dict[str, str] = {}
    for part in parts[1:]:
        if "=" not in part:
            raise InputError(f"expected key=value in family spec, got {part!r}")
        key, _, value = part.partition("=")
        if key in fields:
            raise InputError(f"duplicate family key {key!r}")
        fields[key] = value

    def need(key: str) -> str:
        if key not in fields:
            raise InputError(f"family spec is missing {key}")
        return fields.pop(key)

    def integer(key: str, text: str) -> int:
        try:
            return int(text)
        except ValueError:
            raise InputError(f"bad integer for {key}: {text!r}") from None

    n = integer("n", need("n"))
    m = count = None
    seed = 0
    if kind == "random":
        m = integer("m", need("m"))
        count = integer("count", need("count"))
        if count < 0:
            raise InputError(f"count must be nonnegative, got {count}")
        seed = integer("seed", fields.pop("seed", "0"))
    k_range = _parse_range(need("k"), "k")
    if ("x" in fields) == ("y" in fields):
        raise InputError("family spec needs exactly one of x and y")
    target = "x" if "x" in fields else "y"
    target_range = _parse_range(fields.pop(target), target)
    if fields:
        raise InputError(f"unrecognized family keys: {sorted(fields)}")
    return FamilySpec(kind, n, m, count, seed, k_range, target, target_range)


def iterate_instances(spec: FamilySpec) -> Iterator[tuple[str, CncInstance]]:
    if spec.kind == "all":
        graphs = [(f"all-n{spec.n}-g{i}", g) for i, g in enumerate(enumerate_graphs(spec.n))]
    else:
        rng = random.Random(spec.seed)
        graphs = [
            (f"random-n{spec.n}-m{spec.m}-s{spec.seed}-i{i}", random_graph(spec.n, spec.m, rng))
            for i in range(spec.count)
        ]
    klo, khi = spec.k_range
    tlo, thi = spec.target_range
    for name, g in graphs:
        for k in range(klo, khi + 1):
            for t in range(tlo, thi + 1):
                kwargs = {spec.target: t}
                yield f"{name}-k{k}-{spec.target}{t}", CncInstance(g, k, **kwargs)


def _run_one(
    name: str,
    inst: CncInstance,
    engines: tuple[str, ...],
    reps: int,
    config: HarnessConfig,
) -> list[dict]:
    rows: list[dict] = []
    answers: dict[str, str] = {}
    for engine in engines:
        for rep in range(reps):
            start = time.perf_counter()
            try:
                report = run_instance(inst, algo=engine, config=config)
                answer = report.answer
                algorithm = report.algorithm
                wall = round(report.wall_ms, 3)
                stats = ";".join(f"{k}={v}" for k, v in sorted(report.stats.items()))
            except Refusal as exc:
                answer = "REFUSED"
                algorithm = ""
                wall = round((time.perf_counter() - start) * 1e3, 3)
                stats = f"reason={exc}"
            rows.append({
                "instance": name,
                "engine": engine,
                "algorithm": algorithm,
                "rep": rep,
                "n": inst.graph.n,
                "m": inst.graph.m,
                "k": inst.k,
                "x": "" if inst.x is None else inst.x,
                "y": "" if inst.y is None else inst.y,
                "answer": answer,
                "wall_ms": wall,
                "stats": stats,
            })
            if rep == 0 and answer != "REFUSED":
                answers[engine] = answer
    if len(set(answers.values())) > 1:
        raise BenchDiscrepancy(name, answers, serialize_instance(inst))
    return rows


def run_bench(
    spec: FamilySpec | str,
    engines: tuple[str, ...] = ENGINES,
    reps: int = 1,
    config: HarnessConfig = HarnessConfig(),
) -> list[dict]:
    """One row per (instance, engine, rep); aborts on cross-engine disagreement."""
    if isinstance(spec, str):
        spec = parse_family(spec)
    for engine in engines:
        if engine not in ENGINES:
            raise InputError(f"unknown engine {engine!r}")
    rows: list[dict] = []
    for name, inst in iterate_instances(spec):
        rows.extend(_run_one(name, inst, tuple(engines), reps, config))
    return rows
