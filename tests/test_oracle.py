from itertools import combinations
from math import comb

import pytest
from hypothesis import assume, given, strategies as st

from cncut.graph import (
    InputError,
    complete_graph,
    connected_pairs,
    path_graph,
    remove_vertices,
    verify_solution,
)
from cncut.oracle import (
    CapExceeded,
    oracle_decides,
    oracle_max_removed_exact,
    oracle_min_pairs,
)

from .reference import empty_graph
from .strategies import graphs


def test_min_pairs_triangle():
    res = oracle_min_pairs(complete_graph(3), 1)
    assert res.min_residual_pairs == 2
    assert res.best_cut.vertices == {0}
    assert res.best_cut.residual_pairs == 2


def test_min_pairs_path_five():
    res = oracle_min_pairs(path_graph(5), 1)
    assert res.min_residual_pairs == 4
    assert res.best_cut.vertices == {2}
    assert res.explored == 6


def test_min_pairs_zero_budget():
    res = oracle_min_pairs(path_graph(4), 0)
    assert res.min_residual_pairs == 12
    assert res.best_cut.vertices == frozenset()
    assert res.explored == 1


def test_min_pairs_budget_above_n():
    res = oracle_min_pairs(complete_graph(3), 10)
    assert res.min_residual_pairs == 0


def test_min_pairs_empty_graph():
    res = oracle_min_pairs(empty_graph(0), 0)
    assert res.min_residual_pairs == 0
    assert res.explored == 1


def test_min_pairs_rejects_negative_budget():
    with pytest.raises(InputError):
        oracle_min_pairs(complete_graph(3), -1)


@pytest.mark.parametrize(
    "k,removed",
    [(0, 0), (1, 4), (2, 6), (3, 6)],
)
def test_max_removed_triangle(k, removed):
    res = oracle_max_removed_exact(complete_graph(3), k)
    assert res.max_removed == removed
    assert res.explored == comb(3, k)


def test_max_removed_edgeless():
    res = oracle_max_removed_exact(empty_graph(3), 2)
    assert res.max_removed == 0


def test_max_removed_rejects_out_of_range():
    with pytest.raises(InputError):
        oracle_max_removed_exact(complete_graph(3), 4)
    with pytest.raises(InputError):
        oracle_max_removed_exact(complete_graph(3), -1)


def test_cap_counts_all_cardinalities():
    with pytest.raises(CapExceeded) as exc:
        oracle_min_pairs(complete_graph(8), 3, cap=10)
    assert exc.value.candidates == sum(comb(8, i) for i in range(4)) == 93
    assert exc.value.cap == 10
    assert exc.value.n == 8
    assert exc.value.k == 3


def test_cap_exact_budget_counts_one_cardinality():
    with pytest.raises(CapExceeded) as exc:
        oracle_max_removed_exact(complete_graph(10), 5, cap=100)
    assert exc.value.candidates == comb(10, 5) == 252


def test_cap_boundary_is_inclusive():
    res = oracle_min_pairs(complete_graph(3), 1, cap=4)
    assert res.min_residual_pairs == 2
    assert oracle_decides(complete_graph(3), 1, 2, cap=4)


def test_decides_edge_cases():
    assert oracle_decides(complete_graph(3), 0, 6)
    assert not oracle_decides(complete_graph(3), 0, 5)
    assert not oracle_decides(complete_graph(3), 1, -1)
    with pytest.raises(InputError):
        oracle_decides(complete_graph(3), -1, 0)


@given(graphs(max_n=6), st.integers(0, 3))
def test_min_pairs_matches_naive_scan(g, k):
    res = oracle_min_pairs(g, k)
    best = connected_pairs(g)
    best_set: frozenset[int] = frozenset()
    for size in range(1, min(k, g.n) + 1):
        for subset in combinations(range(g.n), size):
            h, _ = remove_vertices(g, subset)
            p = connected_pairs(h)
            if p < best:
                best, best_set = p, frozenset(subset)
    assert res.min_residual_pairs == best
    assert res.best_cut.vertices == best_set


@given(graphs(max_n=6), st.integers(0, 6))
def test_max_removed_matches_naive_scan(g, k):
    assume(k <= g.n)
    res = oracle_max_removed_exact(g, k)
    base = connected_pairs(g)
    best = None
    best_set: frozenset[int] = frozenset()
    for subset in combinations(range(g.n), k):
        h, _ = remove_vertices(g, subset)
        p = connected_pairs(h)
        if best is None or p < best:
            best, best_set = p, frozenset(subset)
    if best is None:
        best = base
    assert res.max_removed == base - best
    assert res.best_cut.vertices == best_set


@given(graphs(max_n=6), st.integers(0, 3), st.integers(-1, 12))
def test_decides_agrees_with_min_pairs(g, k, x):
    want = x >= 0 and oracle_min_pairs(g, k).min_residual_pairs <= x
    assert oracle_decides(g, k, x) == want


@given(graphs(max_n=7), st.integers(0, 3))
def test_witness_verifies(g, k):
    res = oracle_min_pairs(g, k)
    assert len(res.best_cut.vertices) <= k
    assert verify_solution(g, res.best_cut.vertices, k, res.min_residual_pairs)


@given(graphs(max_n=7), st.integers(0, 3))
def test_consistency_between_forms(g, k):
    # Removal is monotone under supersets, so the exact-k maximum covers <= k.
    kk = min(k, g.n)
    res_min = oracle_min_pairs(g, k)
    res_max = oracle_max_removed_exact(g, kk)
    assert res_min.min_residual_pairs == connected_pairs(g) - res_max.max_removed


@given(graphs(max_n=7), st.integers(0, 3))
def test_explored_counts(g, k):
    kk = min(k, g.n)
    res = oracle_min_pairs(g, k)
    if res.min_residual_pairs > 0:
        assert res.explored == sum(comb(g.n, i) for i in range(kk + 1))
    else:
        assert res.explored <= sum(comb(g.n, i) for i in range(kk + 1))
    assert oracle_max_removed_exact(g, kk).explored == comb(g.n, kk)
