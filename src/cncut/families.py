"""Graph suites for cross-validation: exhaustive small graphs and seeded random ones.

enumerate_graphs returns one representative per isomorphism class, built by
vertex augmentation with a canonical-form dedup. The per-order class counts
are pinned to the known values as a self-check.
"""

from __future__ import annotations

import random
from bisect import bisect_right
from functools import lru_cache
from itertools import combinations, permutations

from .graph import Graph, InputError

# Number of isomorphism classes of simple graphs on n vertices.
CLASS_COUNTS = {0: 1, 1: 1, 2: 2, 3: 4, 4: 11, 5: 34, 6: 156, 7: 1044}

MAX_EXHAUSTIVE = 7


def _pair_order(t: int) -> list[tuple[int, int]]:
    # Must match np.triu_indices(t, 1) row-major order.
    return list(combinations(range(t), 2))


def _augment(codes: list[int], t: int) -> list[int]:
    """Canonical codes of all classes on t+1 vertices from those on t."""
    import numpy as np  # only here, so importing the package skips numpy

    tn = t + 1
    count = len(codes) * (1 << t)
    mats = np.zeros((count, tn, tn), dtype=bool)
    idx = 0
    for code in codes:
        base = np.zeros((t, t), dtype=bool)
        for i, (a, b) in enumerate(_pair_order(t)):
            if code >> i & 1:
                base[a, b] = base[b, a] = True
        for mask in range(1 << t):
            mats[idx, :t, :t] = base
            for i in range(t):
                if mask >> i & 1:
                    mats[idx, t, i] = mats[idx, i, t] = True
            idx += 1

    iu0, iu1 = np.triu_indices(tn, 1)
    pows = np.int64(1) << np.arange(len(iu0), dtype=np.int64)
    best = None
    for p in permutations(range(tn)):
        pa = np.asarray(p)
        pm = mats[:, pa[:, None], pa[None, :]]
        vals = pm[:, iu0, iu1] @ pows
        best = vals if best is None else np.minimum(best, vals)
    return sorted({int(v) for v in best})


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
