"""Bounded search tree solver for the k + x parameterization.

Works through an auxiliary target first: delete at most k vertices so that at
most a budget of *edges* remains. Pairs are ordered, so a surviving component
with s vertices has at most s*(s-1)/2 edges and exactly s*(s-1) pairs: every
solution that leaves at most x pairs leaves at most x // 2 edges. Searching
with an edge budget of x // 2 instead of x therefore loses no solution, and
the search tree shrinks from 3^(k+x) to 3^(k + x//2) nodes.

The search branches on the smallest remaining edge {u, v}: delete u, delete v,
or let the edge survive and charge it to the budget. Every inclusion-minimal
cover is a leaf (follow the branches its vertices choose; the leaf reached is
a cover inside it, hence the cover itself). Every solution contains such a
cover, and the rest of that solution can be taken among the vertices that
still have an edge after the cover: deleting an isolated vertex removes no
pair. So extending every leaf over its non-isolated vertices finds a solution
whenever one exists. Extending a leaf that is not minimal is sound too, since
each extension is checked, which is why `solve_branch_kx` may stop at the
first YES without waiting for the minimal covers to be known.

The adjacency is held as one int bitmask per vertex, so a branch copies a
list of ints.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb
from typing import Iterator

from .graph import Cut, Graph, InputError, bits, verify_solution
from .oracle import _scan


@dataclass
class BranchStats:
    nodes_visited: int = 0
    # enumerate_minimal_covers: the minimal covers returned.
    # solve_branch_kx: the distinct covers extended before the answer.
    minimal_solutions_found: int = 0
    extensions_tested: int = 0


@dataclass(frozen=True)
class BranchDecision:
    answer: bool
    cut: Cut | None
    stats: BranchStats


def _check_parameters(k: int, x: int) -> None:
    if k < 0 or x < 0:
        raise InputError(f"parameters must be nonnegative, got k={k}, x={x}")


def _without(adj: list[int], w: int) -> list[int]:
    sub = adj[:]
    nbrs = sub[w]
    sub[w] = 0
    keep = ~(1 << w)
    while nbrs:
        low = nbrs & -nbrs
        nbrs ^= low
        sub[low.bit_length() - 1] &= keep
    return sub


def _covers(masks: tuple[int, ...], k: int, budget: int, stats: BranchStats) -> Iterator[int]:
    """Yield, as vertex bitmasks, the search leaves: <= k vertices leaving <= budget edges.

    Depth first, each node trying delete u, delete v, keep {u, v} in that
    order. Vertices below u stay edgeless in every descendant, so the next
    smallest edge is searched from u on. A cover may be yielded more than once.
    """
    n = len(masks)
    stack = [(list(masks), 0, 0, k, budget)]
    while stack:
        adj, u, chosen, k_rem, x_rem = stack.pop()
        stats.nodes_visited += 1
        while u < n and not adj[u]:
            u += 1
        if u == n:
            yield chosen
            continue
        low = adj[u] & -adj[u]
        v = low.bit_length() - 1
        if x_rem > 0:
            kept = adj[:]
            kept[u] ^= low
            kept[v] ^= 1 << u
            stack.append((kept, u, chosen, k_rem, x_rem - 1))
        if k_rem > 0:
            stack.append((_without(adj, v), u, chosen | low, k_rem - 1, x_rem))
            stack.append((_without(adj, u), u, chosen | 1 << u, k_rem - 1, x_rem))


def enumerate_minimal_covers(
    g: Graph, k: int, x: int
) -> tuple[list[frozenset[int]], BranchStats]:
    """All inclusion-minimal sets of <= k vertices whose removal leaves <= x edges.

    Here x is an edge budget, not a pair bound. The search tree has at most
    3^(x+k) nodes, counted in stats.nodes_visited. Covers come sorted by size,
    then lexicographically.
    """
    _check_parameters(k, x)
    stats = BranchStats()
    found = {frozenset(bits(c)) for c in _covers(g.adjacency_masks, k, x, stats)}
    minimal = _inclusion_minimal(found)
    stats.minimal_solutions_found = len(minimal)
    return minimal, stats


def _inclusion_minimal(sets: set[frozenset[int]]) -> list[frozenset[int]]:
    ordered = sorted(sets, key=lambda s: (len(s), sorted(s)))
    kept: list[frozenset[int]] = []
    for cand in ordered:
        if not any(prev <= cand for prev in kept):
            kept.append(cand)
    return kept


def extend_minimal_cover(
    g: Graph,
    c_prime: frozenset[int],
    k: int,
    x: int,
    stats: BranchStats | None = None,
) -> Cut | None:
    """Grow an edge cover into a full solution, or report that it cannot be.

    Only vertices that keep an edge after c_prime are candidates: deleting an
    isolated vertex removes no pair. With at most e edges left there are at
    most 2e of them. They are searched by increasing subset size,
    lexicographically within a size, so the first hit is the smallest
    extension.
    """
    if len(c_prime) > k:
        raise InputError(f"cover of size {len(c_prime)} exceeds budget {k}")
    k2 = k - len(c_prime)
    cover = g._check_vertex_set(c_prime)
    masks = g.adjacency_masks
    alive = (1 << g.n) - 1
    for v in cover:
        alive &= ~(1 << v)
    live = [v for v in range(g.n) if alive >> v & 1 and masks[v] & alive]

    # With budget to spare, deleting every live vertex leaves 0 pairs: one set to try.
    sizes = (len(live),) if k2 > len(live) else range(k2 + 1)
    for extra, pairs, evaluated in _scan(masks, alive, live, sizes, x):
        if stats is not None:
            stats.extensions_tested += evaluated
        return Cut(cover.union(extra), pairs)
    if stats is not None:  # without a hit the scan tried every subset
        stats.extensions_tested += sum(comb(len(live), size) for size in sizes)
    return None


def solve_branch_kx(g: Graph, k: int, x: int) -> BranchDecision:
    """YES/NO plus a certificate cut for: delete <= k vertices, <= x pairs remain.

    Searches covers with an edge budget of x // 2 (a solution leaves at most
    that many edges) and extends each distinct cover as soon as the search
    reaches it. Every minimal cover is reached and every solution extends one,
    so the first YES settles the instance and exhausting the search means NO.
    """
    _check_parameters(k, x)
    stats = BranchStats()
    extended: set[int] = set()
    for cover in _covers(g.adjacency_masks, k, x // 2, stats):
        if cover in extended:
            continue
        extended.add(cover)
        stats.minimal_solutions_found += 1
        cut = extend_minimal_cover(g, frozenset(bits(cover)), k, x, stats)
        if cut is not None:
            report = verify_solution(g, cut.vertices, k, x)
            if not report.ok or report.residual_pairs != cut.residual_pairs:
                raise AssertionError(f"branch-kx produced an invalid cut: {report}")
            return BranchDecision(True, cut, stats)
    return BranchDecision(False, None, stats)
