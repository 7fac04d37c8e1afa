from itertools import combinations
from math import comb
from random import Random

import pytest
from hypothesis import assume, given, strategies as st

from cncut import oracle
from cncut.component_dp import build_removal_table
from cncut.families import enumerate_graphs, random_graph
from cncut.graph import (
    DEFAULT_CAP,
    Cut,
    InputError,
    bits,
    complete_graph,
    connected_pairs,
    path_graph,
    star_graph,
    verify_solution,
)
from cncut.oracle import (
    CapExceeded,
    oracle_decides,
    oracle_max_removed_exact,
    oracle_min_pairs,
)

from .reference import empty_graph, full_scan
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
    # Each leaf is dominated by its neighbour: {}, {1}, {2} and {3} are closed.
    assert res.explored == 4


def test_min_pairs_twins_reach_zero():
    # The ends of K2 dominate each other; the rank tie-break lets vertex 0 go alone.
    res = oracle_min_pairs(complete_graph(2), 1)
    assert res == (0, Cut(frozenset({0}), 0), 2)


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
    # K3's vertices are twins: the k smallest ids are the one closed k-set.
    assert res.best_cut.vertices == set(range(k))
    assert res.explored == 1


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
    rows = full_scan(g, range(g.n), range(min(k, g.n) + 1))
    best = min(r.pairs for r in rows)
    assert res.min_residual_pairs == best
    # The witness is the first closed optimum in the scan order.
    assert res.best_cut.vertices == next(r.subset for r in rows if r.closed and r.pairs == best)


@given(graphs(max_n=6), st.integers(0, 6))
def test_max_removed_matches_naive_scan(g, k):
    assume(k <= g.n)
    res = oracle_max_removed_exact(g, k)
    rows = full_scan(g, range(g.n), (k,))
    best = min(r.pairs for r in rows)
    assert res.max_removed == connected_pairs(g) - best
    assert res.best_cut.vertices == next(r.subset for r in rows if r.closed and r.pairs == best)


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
    # Every closed subset is counted, up to the first that leaves 0 pairs.
    kk = min(k, g.n)
    closed = [r for r in full_scan(g, range(g.n), range(kk + 1)) if r.closed]
    last = next((i for i, r in enumerate(closed) if r.pairs == 0), len(closed) - 1)
    assert oracle_min_pairs(g, k).explored == last + 1
    assert oracle_max_removed_exact(g, kk).explored == sum(len(r.subset) == kk for r in closed)


def test_scan_pools_hold_only_vertices_with_fewer_dominators_than_the_size(monkeypatch):
    # A closed subset of s vertices holding v holds dom(v) & alive too, so
    # v reaches `combinations` only for s > |dom(v) & alive|.
    pools = []

    def recorded(pool, size):
        pools.append((pool, size))
        return combinations(pool, size)

    monkeypatch.setattr(oracle, "combinations", recorded)
    g = star_graph(3)  # |dom(v)| = 0, 1, 2, 3
    list(oracle._Scan(g, 0b1111, range(4), 3, range(4), DEFAULT_CAP, None))
    assert pools == [([], 0), ([0], 1), ([0, 1], 2), ([0, 1, 2], 3)]
    # With the centre deleted, only the leaves' twin order is left.
    pools.clear()
    list(oracle._Scan(g, 0b1110, [1, 2, 3], 3, range(4), DEFAULT_CAP, None))
    assert pools == [([], 0), ([1], 1), ([1, 2], 2), ([1, 2, 3], 3)]


def test_scans_match_the_full_scan():
    # Ground truth stays brute force: the closed-subset scans give the
    # values of a scan of every subset, on every graph with n <= 6 and on
    # seeded graphs with n = 8-12.
    rng = Random(2024)
    seeded = [random_graph(n, rng.randrange(comb(n, 2) + 1), rng)
              for n in range(8, 13) for _ in range(2)]
    for g in [g for n in range(7) for g in enumerate_graphs(n)] + seeded:
        rows = full_scan(g, range(g.n), range(min(3, g.n) + 1))
        for k in range(4):
            want = min(r.pairs for r in rows if len(r.subset) <= k)
            assert oracle_min_pairs(g, k).min_residual_pairs == want, (g, k)
        table = build_removal_table(g, 3)
        for comp, values in zip(g.components, table.values):
            verts = list(bits(comp))
            s = len(verts)
            left = full_scan(g, verts, range(len(values)), frozenset(range(g.n)) - set(verts))
            assert values == tuple(
                s * (s - 1) - min(r.pairs for r in left if len(r.subset) <= j)
                for j in range(len(values))
            ), g
