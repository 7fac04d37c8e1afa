"""Graph suites for cross-validation: exhaustive small graphs and seeded random ones.

enumerate_graphs returns one representative per isomorphism class, built by
vertex augmentation with a dedup on the least code over all relabellings,
found by a pure-Python search. The per-order class counts are pinned to the
known values as a self-check.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from functools import lru_cache
from itertools import combinations

from .graph import Graph, InputError

# Number of isomorphism classes of simple graphs on n vertices.
CLASS_COUNTS = {0: 1, 1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044}

MAX_EXHAUSTIVE = 7


def _pair_order(t: int) -> list[tuple[int, int]]:
    # Bit i of a graph's code is the i-th pair here, so pair (a, b) with
    # a < b is bit a(2t-a-1)/2 + b-a-1.
    return list(combinations(range(t), 2))


def _least_code(adj: list[int]) -> int:
    """Least code over all relabellings of the graph with adjacency masks `adj`.

    The code of a labelling sets bit a(2n-a-1)/2 + b-a-1 for each edge on
    positions a < b. Pairs with a larger a are more significant, and within
    one a, pairs with a larger b are. The search fills positions n-1, n-2,
    ..., 0. Filling position a fixes the bits of its pairs (a, b), b > a: one
    block, all below the blocks fixed before. So codes compare block by block
    in fill order, and keeping after each position only the partial
    labellings whose block is least loses no least code.

    Twins are pruned. If two unplaced vertices u < v have N(u) - {v} =
    N(v) - {u}, swapping them is an automorphism that fixes every placed
    vertex, so placing v next reaches the same codes as placing u; v is
    skipped.

    `vals` packs one n-bit field per vertex w: the block w fixes if it is
    placed next, at position a, where bit i is its adjacency to the vertex at
    position a+1+i. Placing v shifts every field one bit up and sets bit 0 of
    each neighbour of v. v's own field is cleared first, so no field outgrows
    its n bits.
    """
    n = len(adj)
    field = (1 << n) - 1
    twins = [
        sum(1 << u for u in range(v) if adj[u] & ~(1 << v) == adj[v] & ~(1 << u))
        for v in range(n)
    ]
    spread = [sum(1 << w * n for w in range(n) if adj[v] >> w & 1) for v in range(n)]
    code = 0
    level = [(field, 0)]  # (unplaced mask, vals) per kept partial labelling
    for a in range(n - 1, -1, -1):
        best = field  # above every block, which has at most n-1 bits
        kept = []
        for free, vals in level:
            for v in range(n):
                if free >> v & 1 and not twins[v] & free:
                    block = vals >> v * n & field
                    if block < best:
                        best = block
                        kept = []
                    if block == best:
                        kept.append(
                            (free & ~(1 << v), (vals & ~(field << v * n)) << 1 | spread[v])
                        )
        code = code << (n - 1 - a) | best
        level = kept
    return code


def _augment(codes: list[int], t: int) -> list[int]:
    """Least codes of all classes on t+1 vertices from those on t.

    Only neighbourhoods that give the new vertex t the largest degree are
    tried. That still reaches every class: deleting a vertex of largest
    degree from a graph on t+1 vertices leaves a graph isomorphic to one of
    the given classes, and adding the vertex back with its neighbourhood
    carried over is one of the tried augmentations.
    """
    pairs = _pair_order(t)
    out = set()
    for code in codes:
        base = [0] * t
        for i, (a, b) in enumerate(pairs):
            if code >> i & 1:
                base[a] |= 1 << b
                base[b] |= 1 << a
        degrees = [m.bit_count() for m in base]
        for mask in range(1 << t):
            top = mask.bit_count()
            if all(d + (mask >> i & 1) <= top for i, d in enumerate(degrees)):
                adj = [m | (mask >> i & 1) << t for i, m in enumerate(base)]
                out.add(_least_code(adj + [mask]))
    return sorted(out)


@lru_cache(maxsize=None)
def _codes(n: int) -> tuple[int, ...]:
    if n <= 1:
        out = (0,)
    else:
        out = tuple(_augment(list(_codes(n - 1)), n - 1))
    if len(out) != CLASS_COUNTS[n]:
        raise AssertionError(
            f"enumeration produced {len(out)} classes on {n} vertices, "
            f"expected {CLASS_COUNTS[n]}"
        )
    return out


def enumerate_graphs(n: int) -> list[Graph]:
    """One graph per isomorphism class on n vertices, in canonical-code order."""
    if n < 0:
        raise InputError("vertex count must be nonnegative")
    if n > MAX_EXHAUSTIVE:
        raise InputError(f"exhaustive enumeration is capped at {MAX_EXHAUSTIVE} vertices")
    if n == 0:
        return [Graph(0, frozenset())]
    pairs = _pair_order(n)
    out = []
    for code in _codes(n):
        edges = [pairs[i] for i in range(len(pairs)) if code >> i & 1]
        out.append(Graph.from_edges(n, edges))
    return out


def random_graph(n: int, m: int, rng: random.Random) -> Graph:
    """Uniform simple graph with exactly m edges.

    Samples m indices into the C(n, 2) pairs in `combinations` order and maps
    each to its pair, so memory is O(n + m). `rng.sample` draws alike from any
    sequence of the same length, so the graphs and the rng state afterwards
    are those of sampling the materialized pair list.
    """
    total = n * (n - 1) // 2 if n > 1 else 0
    if m < 0:
        raise InputError(f"edge count must be nonnegative, got {m}")
    if m > total:
        raise InputError(f"cannot place {m} edges on {n} vertices")
    # Row u holds the pairs (u, u+1..n-1) and starts at index u*(2n-u-1)/2.
    starts = [u * (2 * n - u - 1) // 2 for u in range(n)]
    edges = []
    for i in rng.sample(range(total), m):
        u = bisect_right(starts, i) - 1
        edges.append((u, u + 1 + i - starts[u]))
    return Graph.from_edges(n, edges)
