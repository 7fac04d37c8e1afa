"""Brute-force subset enumeration, by one scan that prunes by domination.

Every form runs one scan, `_Scan(g, alive, candidates, k, sizes, cap, bound)`.
It deletes subsets of `candidates` from the vertex mask `alive`, by increasing
size over `sizes` and lexicographically within a size, and visits only the
subsets S closed under domination within alive: every v in S has
dom(v) & alive inside S (`Graph.dominators`). For each size s it drops the
candidates with |dom(v) & alive| >= s before forming subsets, since a closed
subset holding v holds at least |dom(v) & alive| + 1 vertices. It yields
`(subset, pairs)` for each closed subset leaving at most `bound` pairs
(`None` accepts the first one), then lowers `bound` to `pairs - 1`: each
yield strictly improves on the last, so the first closed optimum found is
the canonical witness. `evaluated` counts the subsets whose pairs were
counted: at a yield, up to and including the yielded one; after the scan,
all of them. `oracle_min_pairs` keeps the last yield and stops at 0 pairs;
`oracle_decides` stops at the first yield under bound x;
`oracle_max_removed_exact` keeps the last yield over the one size k;
`branching.extend_minimal_cover` stops at the first yield under bound x,
over the vertices that still have an edge;
`component_dp.build_removal_table` keeps, for each budget j, the last yield
of size at most j over one component's vertices.

Skipping the subsets that are not closed loses no answer. Let S be a subset
of the candidates, v in S and u in dom(v) & alive outside S. Swapping v for
u keeps |S| and adds no pair: exchanging u and v carries alive - (S - v + u)
onto a subgraph of alive - S, since N(v) - {u} lies inside N(u). It raises
S's rank sum, so repeated swaps end at a closed subset of the same size
that leaves at most as many pairs. So every size has a closed best subset,
and a closed subset leaves at most `bound` pairs wherever any subset of its
size does. The swap needs u among the candidates, and every caller's
candidates hold dom(v) & alive for each of their v: over all of g and over
one component they are alive itself, and for a cover's extension they are
the vertices that keep an edge, which a dominator u of such a v keeps too,
to v or to v's neighbour. A dominator outside alive, in the cover or in
another component, is ignored: it cannot be swapped in. Answers are those
of a scan of every subset; only which of equally good witnesses comes first
can differ.

One rule caps every scan: `_Scan` refuses, before it forms any subset, a
scan whose sizes hold more than `cap` subsets of its candidates, closed or
not, and the refusal names the caller's budget k and the number of
candidates. `extend_minimal_cover` passes DEFAULT_CAP and the budget left
after its cover.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterator, NamedTuple, Sequence

from .graph import (
    DEFAULT_CAP, Cut, Graph, InputError, Refusal, check_parameters, connected_pairs,
    pairs_of_alive, subset_count,
)


class CapExceeded(Refusal):
    """The sizes to enumerate hold more candidate sets than the configured cap."""

    def __init__(self, candidates: int, cap: int, n: int, k: int):
        self.candidates = candidates
        self.cap = cap
        self.n = n
        self.k = k
        super().__init__(
            f"refusing brute force: {candidates} candidate sets for n={n}, k={k} "
            f"exceeds cap {cap}"
        )


class OracleResult(NamedTuple):
    min_residual_pairs: int
    best_cut: Cut
    explored: int


class MaxRemovedResult(NamedTuple):
    max_removed: int
    best_cut: Cut
    explored: int


class _Scan:
    """One subset scan; iterating it yields each strict improvement as (subset, pairs).

    See the module docstring for the order, the closed subsets, the cap and
    `evaluated`.
    """

    def __init__(
        self, g: Graph, alive: int, candidates: Sequence[int], k: int, sizes: Sequence[int],
        cap: int, bound: int | None,
    ) -> None:
        count = subset_count(len(candidates), sizes)
        if count > cap:
            raise CapExceeded(count, cap, len(candidates), k)
        self.g, self.alive, self.candidates, self.sizes = g, alive, candidates, sizes
        self.bound = bound
        self.evaluated = 0

    def __iter__(self) -> Iterator[tuple[tuple[int, ...], int]]:
        masks, alive, bound = self.g.adjacency_masks, self.alive, self.bound
        # need[v]: the vertices a closed subset holding v holds too.
        need = [dom & alive for dom in self.g.dominators]
        evaluated = 0
        for size in self.sizes:
            pool = [v for v in self.candidates if need[v].bit_count() < size]
            for subset in combinations(pool, size):
                cut = held = 0
                for v in subset:
                    cut |= 1 << v
                    held |= need[v]
                if held & ~cut:
                    continue
                evaluated += 1
                pairs = pairs_of_alive(masks, alive & ~cut, bound)
                if bound is None or pairs <= bound:
                    self.evaluated = evaluated
                    yield subset, pairs
                    bound = pairs - 1
        self.evaluated = evaluated


def oracle_min_pairs(g: Graph, k: int, cap: int = DEFAULT_CAP) -> OracleResult:
    """Minimum connected pairs left after deleting at most k vertices."""
    check_parameters(k)
    scan = _Scan(g, (1 << g.n) - 1, range(g.n), k, range(min(k, g.n) + 1), cap, None)
    # With no bound the empty set always yields, so the loop binds subset and best.
    for subset, best in scan:
        if best == 0:
            break
    return OracleResult(best, Cut(frozenset(subset), best), scan.evaluated)


def oracle_decides(g: Graph, k: int, x: int, cap: int = DEFAULT_CAP) -> bool:
    """Decision form: can deleting at most k vertices leave at most x pairs?"""
    check_parameters(k)
    if x < 0:
        return False
    scan = _Scan(g, (1 << g.n) - 1, range(g.n), k, range(min(k, g.n) + 1), cap, x)
    return next(iter(scan), None) is not None


def oracle_max_removed_exact(g: Graph, k: int, cap: int = DEFAULT_CAP) -> MaxRemovedResult:
    """Maximum pairs removable by deleting exactly k vertices."""
    if not (0 <= k <= g.n):
        raise InputError(f"exact budget {k} out of range for n={g.n}")
    scan = _Scan(g, (1 << g.n) - 1, range(g.n), k, (k,), cap, None)
    # Maximizing the gain is minimizing the residual; ties keep the first witness.
    # With no bound the first closed subset yields, and the k top-ranked
    # vertices are one, so the loop binds subset and best.
    for subset, best in scan:
        pass
    return MaxRemovedResult(connected_pairs(g) - best, Cut(frozenset(subset), best), scan.evaluated)
