"""Solver for the removed-pairs target: delete <= k vertices, remove >= y pairs.

Works with pairs_removed directly; the surviving-pairs bound x is never
materialized, so this route stays usable when x would be enormous. After the
shortcut screens fire, every component has at most y vertices, each component
gets an exact max-removal table by brute force, and a knapsack over components
allocates the budget.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import (
    Cut,
    Graph,
    InputError,
    connected_components,
    connected_pairs,
    induced_subgraph,
    remove_vertices,
)
from .oracle import DEFAULT_CAP, oracle_max_removed_exact

NEG = -1  # removal values are nonnegative, so -1 marks unreachable budgets


@dataclass
class SolveYStats:
    component_count: int = 0
    subsets_examined: tuple[int, ...] = ()
    shortcut: str | None = None


@dataclass(frozen=True)
class RemovalTable:
    """Per component: vertices (original ids) and max pairs removable per budget.

    values[i][j] is the most pairs exactly j deletions can remove from
    component i; witnesses[i][j] is a cut (original ids) achieving it.
    """

    components: tuple[tuple[int, ...], ...]
    values: tuple[tuple[int, ...], ...]
    witnesses: tuple[tuple[frozenset[int], ...], ...]
    subsets_examined: tuple[int, ...]


@dataclass(frozen=True)
class YDecision:
    answer: bool
    cut: Cut | None
    stats: SolveYStats


def shortcut_checks(g: Graph, k: int, y: int) -> YDecision | None:
    """Cheap screens that settle easy instances; None means fall through."""
    if k < 0:
        raise InputError(f"budget must be nonnegative, got {k}")
    if y <= 0:
        stats = SolveYStats(shortcut="trivial")
        return YDecision(True, Cut(frozenset(), connected_pairs(g)), stats)

    labeling = connected_components(g)
    if k >= 1 and any(s > y for s in labeling.sizes):
        big = min(
            v for v in range(g.n) if labeling.sizes[labeling.labels[v]] > y
        )
        removed, residual = _removed_and_residual(g, [big])
        if removed >= y:
            stats = SolveYStats(shortcut="large-component")
            return YDecision(True, Cut(frozenset([big]), residual), stats)
        # A single deletion from a (>y)-vertex component always removes at
        # least 2*(size-1) >= 2y pairs, so this branch is unreachable; kept as
        # a guard so a bad pairs computation can never smuggle out a YES.

    if 2 * k >= y:
        cut = _greedy_accumulate(g, k, y)
        if cut is not None:
            stats = SolveYStats(shortcut="greedy-2k")
            return YDecision(True, cut, stats)
    return None


def _removed_and_residual(g: Graph, cut) -> tuple[int, int]:
    """Pairs that deleting `cut` removes from g, and pairs g - cut keeps."""
    h, _ = remove_vertices(g, cut)
    residual = connected_pairs(h)
    return connected_pairs(g) - residual, residual


def _greedy_accumulate(g: Graph, k: int, y: int) -> Cut | None:
    # Delete the smallest-id non-isolated vertex up to k times; each such
    # deletion removes at least 2 pairs, so 2k >= y usually lands. Only an
    # actually accumulated >= y is reported.
    current = g
    remap = tuple(range(g.n))
    chosen: list[int] = []
    removed_total = 0
    for _ in range(k):
        live = [v for v in range(current.n) if current.adjacency[v]]
        if not live:
            break
        v = min(live)
        nxt, nxt_remap = remove_vertices(current, [v])
        removed_total += connected_pairs(current) - connected_pairs(nxt)
        chosen.append(remap[v])
        remap = tuple(remap[i] for i in nxt_remap)
        current = nxt
        if removed_total >= y:
            return Cut(frozenset(chosen), connected_pairs(current))
    return None


def build_removal_table(g: Graph, k: int, cap: int = DEFAULT_CAP) -> RemovalTable:
    """Exact per-component max-removal tables via the brute-force oracle."""
    labeling = connected_components(g)
    comp_vertices: list[list[int]] = [[] for _ in range(labeling.count)]
    for v in range(g.n):
        comp_vertices[labeling.labels[v]].append(v)

    components: list[tuple[int, ...]] = []
    values: list[tuple[int, ...]] = []
    witnesses: list[tuple[frozenset[int], ...]] = []
    examined: list[int] = []
    for verts in comp_vertices:
        sub, remap = induced_subgraph(g, verts)
        row_vals: list[int] = []
        row_wits: list[frozenset[int]] = []
        count = 0
        for j in range(min(k, sub.n) + 1):
            res = oracle_max_removed_exact(sub, j, cap=cap)
            count += res.explored
            row_vals.append(res.max_removed)
            row_wits.append(frozenset(remap[v] for v in res.best_cut.vertices))
        components.append(tuple(verts))
        values.append(tuple(row_vals))
        witnesses.append(tuple(row_wits))
        examined.append(count)
    return RemovalTable(
        tuple(components), tuple(values), tuple(witnesses), tuple(examined)
    )


def solve_y(g: Graph, k: int, y: int, cap: int = DEFAULT_CAP) -> YDecision:
    """YES/NO plus a certificate for: delete <= k vertices, remove >= y pairs."""
    early = shortcut_checks(g, k, y)
    if early is not None:
        return early
    if k == 0:
        # y > 0 here; no deletions remove no pairs.
        return YDecision(False, None, SolveYStats())

    table = build_removal_table(g, k, cap=cap)
    t = len(table.components)
    stats = SolveYStats(
        component_count=t, subsets_examined=table.subsets_examined
    )

    # Knapsack over components; row i maps used budget -> best removal.
    # choices[i][b] records the budget given to component i at total b.
    prev: list[int] = [0] + [NEG] * k
    choices: list[list[int]] = []
    for i in range(t):
        vals = table.values[i]
        row: list[int] = [NEG] * (k + 1)
        pick: list[int] = [-1] * (k + 1)
        for b in range(k + 1):
            best = NEG
            best_j = -1
            for j in range(min(b, len(vals) - 1) + 1):
                if prev[b - j] == NEG:
                    continue
                cand = prev[b - j] + vals[j]
                if cand > best:
                    best = cand
                    best_j = j
            row[b] = best
            pick[b] = best_j
        prev = row
        choices.append(pick)

    best_total = max(prev)
    if best_total < y:
        return YDecision(False, None, stats)

    b = max(range(k + 1), key=lambda i: (prev[i], -i))
    cut_set: set[int] = set()
    for i in range(t - 1, -1, -1):
        j = choices[i][b]
        cut_set |= set(table.witnesses[i][j])
        b -= j
    removed, residual = _removed_and_residual(g, cut_set)
    if removed < y:
        raise AssertionError("reconstructed cut lost removal value")
    return YDecision(True, Cut(frozenset(cut_set), residual), stats)
