"""Solver for the removed-pairs target: delete <= k vertices, remove >= y pairs.

Works with pairs removed directly; the surviving-pairs bound x is never
materialized, so this route stays usable when x would be enormous. After the
shortcut screens fire, every component has at most y vertices. Each component
gets its max-removal profile from one run of the oracle's subset scan over the
input graph's bitmasks, and a knapsack over components allocates the budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .graph import Cut, Graph, InputError, bits, connected_pairs, pairs_of_alive, verify_solution
from .oracle import DEFAULT_CAP, CapExceeded, _scan


@dataclass
class SolveYStats:
    component_count: int = 0
    subsets_examined: tuple[int, ...] = ()
    shortcut: str | None = None


@dataclass(frozen=True)
class RemovalTable:
    """Per component: vertices (original ids) and max pairs removable per budget.

    values[i][j] is the most pairs at most j deletions can remove from
    component i, which is also the most exactly j can remove, since deleting
    more never adds pairs. witnesses[i][j] is a cut of at most j vertices
    (original ids) achieving it.
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
    masks, alive = g.adjacency_masks, (1 << g.n) - 1
    total = connected_pairs(g)
    if y <= 0:
        return YDecision(True, Cut(frozenset(), total), SolveYStats(shortcut="trivial"))

    large = next((c for c in g.components if c.bit_count() > y), 0)
    if k >= 1 and large:
        big = next(bits(large))
        residual = pairs_of_alive(masks, alive & ~(1 << big))
        if total - residual >= y:
            stats = SolveYStats(shortcut="large-component")
            return YDecision(True, Cut(frozenset([big]), residual), stats)
        # A single deletion from a (>y)-vertex component always removes at
        # least 2*(size-1) >= 2y pairs, so this branch is unreachable; kept as
        # a guard so a bad pairs computation can never smuggle out a YES.

    if 2 * k >= y:
        # Delete the smallest vertex that still has an edge, up to k times;
        # each such deletion removes at least 2 pairs, so 2k >= y usually
        # lands. Only an actually accumulated >= y is reported.
        chosen: list[int] = []
        for _ in range(k):
            v = next((u for u in bits(alive) if masks[u] & alive), None)
            if v is None:
                break
            alive &= ~(1 << v)
            chosen.append(v)
            residual = pairs_of_alive(masks, alive)
            if total - residual >= y:
                stats = SolveYStats(shortcut="greedy-2k")
                return YDecision(True, Cut(frozenset(chosen), residual), stats)
    return None


def build_removal_table(g: Graph, k: int, cap: int = DEFAULT_CAP) -> RemovalTable:
    """Per-component max-removal profiles, one oracle scan per component.

    The scan runs over sizes 0..min(k, s) and yields strict improvements
    only, so the last yield of size <= j is the best cut of at most j
    vertices. Each size is refused on its own above cap, as the oracle does.
    """
    components = tuple(tuple(bits(comp)) for comp in g.components)
    values: list[tuple[int, ...]] = []
    witnesses: list[tuple[frozenset[int], ...]] = []
    examined: list[int] = []
    for comp, verts in zip(g.components, components):
        s = len(verts)
        counts = [comb(s, j) for j in range(min(k, s) + 1)]
        for j, count in enumerate(counts):
            if count > cap:
                raise CapExceeded(count, cap, s, j)
        cuts: list[tuple[int, ...]] = [()] * len(counts)
        left = [0] * len(counts)
        for subset, pairs, _ in _scan(g.adjacency_masks, comp, verts, range(len(counts)), None):
            for j in range(len(subset), len(counts)):
                cuts[j], left[j] = subset, pairs
        values.append(tuple(s * (s - 1) - pairs for pairs in left))
        witnesses.append(tuple(frozenset(cut) for cut in cuts))
        examined.append(sum(counts))
    return RemovalTable(components, tuple(values), tuple(witnesses), tuple(examined))


def solve_y(g: Graph, k: int, y: int, cap: int = DEFAULT_CAP) -> YDecision:
    """YES/NO plus a certificate for: delete <= k vertices, remove >= y pairs."""
    early = shortcut_checks(g, k, y)
    if early is not None:
        return early
    if k == 0:
        # y > 0 here; no deletions remove no pairs.
        return YDecision(False, None, SolveYStats())

    table = build_removal_table(g, k, cap=cap)
    stats = SolveYStats(
        component_count=len(table.components), subsets_examined=table.subsets_examined
    )

    # Knapsack over components: best[b] is the most pairs removable with at
    # most b deletions so far; choices[i][b] is the smallest budget giving
    # component i that best at total b.
    best = [0] * (k + 1)
    choices: list[list[int]] = []
    for vals in table.values:
        pick = [
            max(range(min(b, len(vals) - 1) + 1), key=lambda j: best[b - j] + vals[j])
            for b in range(k + 1)
        ]
        best = [best[b - j] + vals[j] for b, j in enumerate(pick)]
        choices.append(pick)
    if best[k] < y:
        return YDecision(False, None, stats)

    b = best.index(best[k])
    cut: set[int] = set()
    for i in reversed(range(len(choices))):
        cut |= table.witnesses[i][choices[i][b]]
        b -= choices[i][b]
    report = verify_solution(g, cut, k, connected_pairs(g) - y)
    if not report.ok:
        raise AssertionError(f"dp-y produced an invalid cut: {report}")
    return YDecision(True, Cut(frozenset(cut), report.residual_pairs), stats)
