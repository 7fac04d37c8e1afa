"""Solver for the removed-pairs target: delete <= k vertices, remove >= y pairs.

Works with pairs removed directly. After the shortcut screens fire, every
component has at most y vertices. Each component gets its max-removal profile
from one run of the oracle's subset scan over the input graph's bitmasks, and
a knapsack over components allocates the budget.
"""

from __future__ import annotations

from operator import itemgetter
from typing import NamedTuple

from .graph import (
    Cut, Decision, Graph, bits, certify, check_parameters, connected_pairs, pairs_of_alive,
)
from .oracle import DEFAULT_CAP, _Scan


class SolveYStats(NamedTuple):
    component_count: int = 0
    subsets_examined: tuple[int, ...] = ()
    shortcut: str | None = None


class RemovalTable(NamedTuple):
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


def shortcut_checks(g: Graph, k: int, y: int) -> Decision | None:
    """Cheap screens that settle easy instances; None means fall through."""
    check_parameters(k)
    masks, alive = g.adjacency_masks, (1 << g.n) - 1
    total = connected_pairs(g)

    def yes(cut: Cut, shortcut: str) -> Decision:
        stats = SolveYStats(shortcut=shortcut)
        return Decision(True, certify(g, cut, k, total - y, "dp-y"), stats)

    if y <= 0:
        return yes(Cut(frozenset(), total), "trivial")

    large = next((c for c in g.components if c.bit_count() > y), 0)
    if k >= 1 and large:
        # One deletion from a (>y)-vertex component removes at least
        # 2*(size-1) >= 2y pairs.
        big = next(bits(large))
        return yes(Cut(frozenset([big]), pairs_of_alive(masks, alive & ~(1 << big))),
                   "large-component")

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
                return yes(Cut(frozenset(chosen), residual), "greedy-2k")
    return None


def build_removal_table(g: Graph, k: int, cap: int = DEFAULT_CAP) -> RemovalTable:
    """Per-component max-removal profiles, one oracle scan per component.

    The scan runs over sizes 0..min(k, s) and yields strict improvements
    only, so the last yield of size <= j is the best cut of at most j
    vertices: every size has a best cut closed under domination, the only
    kind the scan visits (see `oracle`). `subsets_examined` counts the
    closed subsets scanned per component. A component is refused when its
    sizes hold more than cap subsets, by the oracle's one cap rule.
    """
    components = tuple(tuple(bits(comp)) for comp in g.components)
    values: list[tuple[int, ...]] = []
    witnesses: list[tuple[frozenset[int], ...]] = []
    examined: list[int] = []
    for comp, verts in zip(g.components, components):
        s = len(verts)
        sizes = min(k, s) + 1
        cuts: list[tuple[int, ...]] = [()] * sizes
        left = [0] * sizes
        scan = _Scan(g, comp, verts, k, range(sizes), cap, None)
        for subset, pairs in scan:
            for j in range(len(subset), sizes):
                cuts[j], left[j] = subset, pairs
        values.append(tuple(s * (s - 1) - pairs for pairs in left))
        witnesses.append(tuple(frozenset(cut) for cut in cuts))
        examined.append(scan.evaluated)
    return RemovalTable(components, tuple(values), tuple(witnesses), tuple(examined))


def solve_y(g: Graph, k: int, y: int, cap: int = DEFAULT_CAP) -> Decision:
    """YES/NO plus a certificate for: delete <= k vertices, remove >= y pairs."""
    early = shortcut_checks(g, k, y)
    if early is not None:
        return early
    if k == 0:
        # y > 0 here; no deletions remove no pairs.
        return Decision(False, None, SolveYStats())

    table = build_removal_table(g, k, cap=cap)
    stats = SolveYStats(
        component_count=len(table.components), subsets_examined=table.subsets_examined
    )

    # Knapsack over components: best[b] is the most pairs removable with at
    # most b deletions so far, and a cut that removes them. Each component
    # takes the smallest budget j that gives the most at total b.
    best = [(0, frozenset())] * (k + 1)
    for vals, cuts in zip(table.values, table.witnesses):
        pick = [
            max(range(min(b, len(vals) - 1) + 1), key=lambda j: best[b - j][0] + vals[j])
            for b in range(k + 1)
        ]
        best = [(best[b - j][0] + vals[j], best[b - j][1] | cuts[j]) for b, j in enumerate(pick)]
    # best never falls as b grows, so max takes the smallest b reaching best[k].
    removed, cut = max(best, key=itemgetter(0))
    if removed < y:
        return Decision(False, None, stats)
    total = connected_pairs(g)
    return Decision(True, certify(g, Cut(cut, total - removed), k, total - y, "dp-y"), stats)
