"""Bounded search tree solver for the k + x parameterization.

Works through an auxiliary target first: delete at most k vertices so that at
most a budget of *edges* remains. Pairs are ordered, so a surviving component
with s vertices has at most s*(s-1)/2 edges and exactly s*(s-1) pairs: every
solution that leaves at most x pairs leaves at most x // 2 edges. Searching
with an edge budget of x // 2 instead of x therefore loses no solution, and
the search tree shrinks from 3^(k+x) to 3^(k + x//2) nodes.

The search branches on the smallest remaining edge {u, v}: delete u, delete v,
or let the edge survive and charge it to the budget. `solve_branch_kx`
answers YES at the first leaf C whose graph G - C leaves at most x pairs, a
solution by itself. Conversely, follow any solution S from the root: delete
u if u is in S, else delete v if v is in S, else keep the edge. That path
spends at most |S| <= k deletions and keeps only edges of G - S, at most
x // 2 of them. It ends at a leaf whose graph is G - S plus isolated
vertices, so that leaf leaves at most x pairs by itself, and exhausting the
search means NO. With S an inclusion-minimal cover, the leaf its path
reaches is a cover inside S, hence S: every minimal cover is a leaf, which
`enumerate_minimal_covers` relies on.

At every node the search also applies the high-degree rule of the k + x
kernel. Let d be the number of live edges at u, those to alive neighbours
above u that were not kept (u has no live edge below it, see below). If
d > k_rem + x_rem, the node pushes only "delete u", and nothing when k_rem
is 0. This is sound because keeping u means each of those d edges is later
either kept, spending one unit of x_rem, or loses its other end, spending
one unit of k_rem; so no leaf below the node keeps u, and every cover that
reaches the node contains u. S's path survives the rule: with u in S it
takes "delete u", and with u not in S each live edge {u, w} costs k_rem if
w is in S and x_rem otherwise. The leaves yielded are therefore a
subsequence of the unpruned search's, with the same minimal covers.

`solve_branch_kx` searches the graph relabelled in max-degree peel order
(`Graph.peel_order`, cached per graph with its relabelled masks
`Graph.peel_masks`): the vertex with the most neighbours not yet taken gets
the next label, the smallest id on ties. So u, the smallest vertex with a
live edge, is a dense one, and the high-degree rule fires near the root. A
relabelling is an isomorphism, and nothing above depends on which order
labels the vertices, so the search of the relabelled graph reaches the
image of every solution's leaf and the answers stay the same. Only the YES
leaf's cover is mapped back to input ids and certified; a YES may come from
another first leaf than in id order.

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

from typing import Iterator, NamedTuple

from .graph import (
    DEFAULT_CAP, Cut, Decision, Graph, InputError, bits, certify, check_parameters,
    pairs_of_alive,
)


class BranchStats(NamedTuple):
    nodes_visited: int = 0
    # The leaves whose pairs solve_branch_kx counted; 0 from enumerate_minimal_covers.
    extensions_tested: int = 0


class _Covers:
    """The search leaves, as vertex bitmasks: <= k vertices leaving <= budget edges.

    Depth first, each node trying delete u, delete v, keep {u, v} in that
    order; a node whose u has more than k_rem + x_rem live edges tries only
    delete u. A leaf may be yielded more than once, and a leaf that is not
    minimal may be skipped. `nodes` counts the nodes visited: at a yield, up
    to and including the yielded leaf; after the search, all of them.
    """

    def __init__(self, masks: tuple[int, ...], k: int, budget: int) -> None:
        self.masks, self.k, self.budget = masks, k, budget
        self.nodes = 0

    def __iter__(self) -> Iterator[int]:
        masks = self.masks
        n = len(masks)
        # up[n] = 0 ends the scan for u when the graph has no vertices.
        up = [m >> u + 1 << u + 1 for u, m in enumerate(masks)] + [0]
        nodes = 0
        stack = [((1 << n) - 1, 0, 0, 0, self.k, self.budget)]
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
                    self.nodes = nodes
                    yield chosen
                    continue
                kept = 0
                live = up[u] & alive
            if live.bit_count() <= k_rem + x_rem:
                low = live & -live
                if x_rem:
                    push((alive, u, kept | low, chosen, k_rem, x_rem - 1))
                if k_rem:
                    push((alive ^ low, u, kept, chosen | low, k_rem - 1, x_rem))
            if k_rem:
                bit = 1 << u
                push((alive ^ bit, u + 1, 0, chosen | bit, k_rem - 1, x_rem))
        self.nodes = nodes


def enumerate_minimal_covers(
    g: Graph, k: int, x: int
) -> tuple[list[frozenset[int]], BranchStats]:
    """All inclusion-minimal sets of <= k vertices whose removal leaves <= x edges.

    Here x is an edge budget, not a pair bound. The search tree has at most
    3^(x+k) nodes, counted in stats.nodes_visited. Covers come sorted by size,
    then lexicographically.
    """
    check_parameters(k, x)
    search = _Covers(g.adjacency_masks, k, x)
    found = {frozenset(bits(c)) for c in search}
    return _inclusion_minimal(found), BranchStats(search.nodes)


def _inclusion_minimal(sets: set[frozenset[int]]) -> list[frozenset[int]]:
    ordered = sorted(sets, key=lambda s: (len(s), sorted(s)))
    kept: list[frozenset[int]] = []
    for cand in ordered:
        if not any(prev <= cand for prev in kept):
            kept.append(cand)
    return kept


def extend_minimal_cover(g: Graph, c_prime: frozenset[int], k: int, x: int) -> Cut | None:
    """Grow an edge cover into a full solution, or report that it cannot be.

    Only vertices that keep an edge after c_prime are candidates: deleting an
    isolated vertex removes no pair. With at most e edges left there are at
    most 2e of them. Their subsets closed under domination are searched by
    increasing size, lexicographically within a size, so the first hit is a
    smallest extension (see `oracle`). The scan is refused by the oracle's
    one cap rule, with DEFAULT_CAP and the budget k - |c_prime| left to it.
    """
    from .oracle import _Scan

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
    scan = _Scan(g, alive, live, k2, sizes, DEFAULT_CAP, x)
    return next((Cut(cover.union(extra), pairs) for extra, pairs in scan), None)


def solve_branch_kx(g: Graph, k: int, x: int) -> Decision:
    """YES/NO plus a certificate cut for: delete <= k vertices, <= x pairs remain.

    Searches covers of the graph in peel order with an edge budget of x // 2
    and answers YES at the first leaf that leaves at most x pairs by itself,
    mapped back to input ids; exhausting the search means NO (see the module
    docstring).
    """
    check_parameters(k, x)
    masks, full = g.peel_masks, (1 << g.n) - 1
    search = _Covers(masks, k, x // 2)
    leaves = 0
    for cover in search:
        leaves += 1
        pairs = pairs_of_alive(masks, full & ~cover, x)
        if pairs <= x:
            cut = Cut(frozenset(g.peel_order[i] for i in bits(cover)), pairs)
            return Decision(True, certify(g, cut, k, x, "branch-kx"),
                            BranchStats(search.nodes, leaves))
    return Decision(False, None, BranchStats(search.nodes, leaves))
