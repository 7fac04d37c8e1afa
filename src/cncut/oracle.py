"""Brute-force subset enumeration, the ground truth every solver is checked against.

Every form runs one generator, `_scan(masks, alive, candidates, sizes, bound)`.
It deletes subsets of `candidates` from the vertex mask `alive`, by increasing
size over `sizes` and lexicographically within a size. It yields `(subset,
pairs, evaluated)` for each subset leaving at most `bound` pairs (`None`
accepts the first subset), then lowers `bound` to `pairs - 1`: each yield
strictly improves on the last, so the first optimum found is the canonical
witness. `evaluated` counts the subsets tried so far, the yielded one included.
`oracle_min_pairs` keeps the last yield and stops at 0 pairs; `oracle_decides`
stops at the first yield under bound x; `oracle_max_removed_exact` keeps the
last yield over the one size k; `branching.extend_minimal_cover` stops at the
first yield under bound x, over the vertices that still have an edge;
`component_dp.build_removal_table` keeps, for each budget j, the last yield of
size at most j over one component's vertices.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Iterator, Sequence

from .graph import (
    DEFAULT_CAP, Cut, Graph, InputError, Refusal, check_parameters, connected_pairs,
    pairs_of_alive,
)

_Scan = Iterator[tuple[tuple[int, ...], int, int]]


class CapExceeded(Refusal):
    """The enumeration would visit more candidate sets than the configured cap."""

    def __init__(self, candidates: int, cap: int, n: int, k: int):
        self.candidates = candidates
        self.cap = cap
        self.n = n
        self.k = k
        super().__init__(
            f"refusing brute force: {candidates} candidate sets for n={n}, k={k} "
            f"exceeds cap {cap}"
        )


@dataclass(frozen=True)
class OracleResult:
    min_residual_pairs: int
    best_cut: Cut
    explored: int


@dataclass(frozen=True)
class MaxRemovedResult:
    max_removed: int
    best_cut: Cut
    explored: int


def _scan(
    masks: tuple[int, ...], alive: int, candidates: Sequence[int], sizes: Sequence[int],
    bound: int | None,
) -> _Scan:
    """Yield each strict improvement as (subset, pairs, evaluated); see the module docstring."""
    evaluated = 0
    for size in sizes:
        for subset in combinations(candidates, size):
            evaluated += 1
            rest = alive
            for v in subset:
                rest &= ~(1 << v)
            pairs = pairs_of_alive(masks, rest, bound)
            if bound is None or pairs <= bound:
                yield subset, pairs, evaluated
                bound = pairs - 1


def _graph_scan(
    g: Graph, k: int, sizes: Sequence[int], cap: int, bound: int | None
) -> tuple[int, _Scan]:
    """The candidate-set count and the scan over all of g, refused above cap."""
    count = sum(comb(g.n, size) for size in sizes)
    if count > cap:
        raise CapExceeded(count, cap, g.n, k)
    return count, _scan(g.adjacency_masks, (1 << g.n) - 1, range(g.n), sizes, bound)


def oracle_min_pairs(g: Graph, k: int, cap: int = DEFAULT_CAP) -> OracleResult:
    """Minimum connected pairs left after deleting at most k vertices."""
    check_parameters(k)
    explored, scan = _graph_scan(g, k, range(min(k, g.n) + 1), cap, None)
    # With no bound the empty set always yields, so the loop binds subset and best.
    for subset, best, evaluated in scan:
        if best == 0:
            explored = evaluated
            break
    return OracleResult(best, Cut(frozenset(subset), best), explored)


def oracle_decides(g: Graph, k: int, x: int, cap: int = DEFAULT_CAP) -> bool:
    """Decision form: can deleting at most k vertices leave at most x pairs?"""
    check_parameters(k)
    if x < 0:
        return False
    _, scan = _graph_scan(g, k, range(min(k, g.n) + 1), cap, x)
    return next(scan, None) is not None


def oracle_max_removed_exact(g: Graph, k: int, cap: int = DEFAULT_CAP) -> MaxRemovedResult:
    """Maximum pairs removable by deleting exactly k vertices."""
    if not (0 <= k <= g.n):
        raise InputError(f"exact budget {k} out of range for n={g.n}")
    explored, scan = _graph_scan(g, k, (k,), cap, None)
    # Maximizing the gain is minimizing the residual; ties keep the first witness.
    # With no bound the first subset always yields, so the loop binds subset and best.
    for subset, best, _ in scan:
        pass
    return MaxRemovedResult(connected_pairs(g) - best, Cut(frozenset(subset), best), explored)
