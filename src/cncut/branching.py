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

No adjacency is copied: a search node is the tuple (alive, u, kept, chosen,
k_rem, x_rem). alive masks the undeleted vertices, u is the smallest vertex
that can still have a live edge, and kept masks the neighbours v of u whose
edge {u, v} the search chose to keep. An edge is live when both ends are
alive and it was not kept. The smallest live edge is the low bit of
up[u] & alive & ~kept, where up[u] holds u's neighbours above u and is built
once per search. This is sound because no vertex below u has a live edge:
u moves past a vertex only once that vertex has none, and later branches
only remove live edges. A live neighbour of u below u would be such a
vertex, so neighbours below u can be ignored. A kept edge {u, v} has u as
its lower end, so it is never looked at again once u moves on, and kept
starts empty at each new u. Deleting u moves to u + 1, deleting v clears
v's bit in alive, and keeping {u, v} sets v's bit in kept and spends one
unit of the edge budget.
"""

from __future__ import annotations

from math import comb
from typing import Iterator

from .graph import Counters, Cut, Decision, Graph, InputError, bits, certify, check_parameters
from .oracle import _scan


class BranchStats(Counters):
    nodes_visited: int = 0
    # enumerate_minimal_covers: the minimal covers returned.
    # solve_branch_kx: the distinct covers extended before the answer.
    minimal_solutions_found: int = 0
    extensions_tested: int = 0


def _covers(masks: tuple[int, ...], k: int, budget: int, stats: BranchStats) -> Iterator[int]:
    """Yield, as vertex bitmasks, the search leaves: <= k vertices leaving <= budget edges.

    Depth first, each node trying delete u, delete v, keep {u, v} in that
    order. A cover may be yielded more than once. Nodes are counted in a
    local and added to stats.nodes_visited before each yield and at the end,
    so a caller that stops at a leaf reads the count up to that leaf.
    """
    n = len(masks)
    # up[n] = 0 ends the scan for u when the graph has no vertices.
    up = [m >> u + 1 << u + 1 for u, m in enumerate(masks)] + [0]
    nodes = 0
    stack = [((1 << n) - 1, 0, 0, 0, k, budget)]
    pop, push = stack.pop, stack.append
    while stack:
        alive, u, kept, chosen, k_rem, x_rem = pop()
        nodes += 1
        live = up[u] & alive & ~kept
        if not (live and alive >> u & 1):
            u += 1
            while u < n and not (alive >> u & 1 and up[u] & alive):
                u += 1
            if u >= n:
                stats.nodes_visited += nodes
                nodes = 0
                yield chosen
                continue
            kept = 0
            live = up[u] & alive
        low = live & -live
        if x_rem:
            push((alive, u, kept | low, chosen, k_rem, x_rem - 1))
        if k_rem:
            k_rem -= 1
            push((alive ^ low, u, kept, chosen | low, k_rem, x_rem))
            bit = 1 << u
            push((alive ^ bit, u + 1, 0, chosen | bit, k_rem, x_rem))
    stats.nodes_visited += nodes


def enumerate_minimal_covers(
    g: Graph, k: int, x: int
) -> tuple[list[frozenset[int]], BranchStats]:
    """All inclusion-minimal sets of <= k vertices whose removal leaves <= x edges.

    Here x is an edge budget, not a pair bound. The search tree has at most
    3^(x+k) nodes, counted in stats.nodes_visited. Covers come sorted by size,
    then lexicographically.
    """
    check_parameters(k, x)
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


def solve_branch_kx(g: Graph, k: int, x: int) -> Decision:
    """YES/NO plus a certificate cut for: delete <= k vertices, <= x pairs remain.

    Searches covers with an edge budget of x // 2 (a solution leaves at most
    that many edges) and extends each distinct cover as soon as the search
    reaches it. Every minimal cover is reached and every solution extends one,
    so the first YES settles the instance and exhausting the search means NO.
    """
    check_parameters(k, x)
    stats = BranchStats()
    extended: set[int] = set()
    for cover in _covers(g.adjacency_masks, k, x // 2, stats):
        if cover in extended:
            continue
        extended.add(cover)
        stats.minimal_solutions_found += 1
        cut = extend_minimal_cover(g, frozenset(bits(cover)), k, x, stats)
        if cut is not None:
            return Decision(True, certify(g, cut, k, x, "branch-kx"), stats)
    return Decision(False, None, stats)
