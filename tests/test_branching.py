from itertools import combinations
from random import Random

import pytest
from hypothesis import given, strategies as st

from cncut.families import random_graph
from cncut.graph import (
    InputError,
    complete_graph,
    connected_pairs,
    empty_graph,
    path_graph,
    remove_vertices,
    star_graph,
    verify_solution,
)
from cncut.branching import (
    BranchStats,
    enumerate_minimal_covers,
    extend_minimal_cover,
    solve_branch_kx,
)
from cncut.oracle import oracle_decides

from .strategies import graphs, graphs_with_subset


def edges_left(g, cut):
    return sum(1 for u, v in g.edges if u not in cut and v not in cut)


def test_covers_single_edge():
    covers, _ = enumerate_minimal_covers(path_graph(2), 1, 0)
    assert covers == [frozenset({0}), frozenset({1})]


def test_covers_empty_when_budget_of_edges_suffices():
    covers, _ = enumerate_minimal_covers(path_graph(2), 1, 1)
    assert covers == [frozenset()]


def test_covers_triangle_singletons():
    covers, _ = enumerate_minimal_covers(complete_graph(3), 1, 2)
    assert covers == [frozenset({0}), frozenset({1}), frozenset({2})]


def test_covers_reject_negative_parameters():
    with pytest.raises(InputError):
        enumerate_minimal_covers(path_graph(2), -1, 0)
    with pytest.raises(InputError):
        enumerate_minimal_covers(path_graph(2), 0, -1)


def test_extend_picks_smallest_extension():
    cut = extend_minimal_cover(path_graph(5), frozenset(), 1, 4)
    assert cut is not None
    assert cut.vertices == {2}
    assert cut.residual_pairs == 4


def test_extend_keeps_given_cover():
    cut = extend_minimal_cover(complete_graph(3), frozenset({0}), 1, 2)
    assert cut is not None
    assert cut.vertices == {0}
    assert cut.residual_pairs == 2


def test_extend_reports_failure():
    assert extend_minimal_cover(path_graph(5), frozenset({0}), 1, 3) is None


def test_extend_rejects_oversized_cover():
    with pytest.raises(InputError):
        extend_minimal_cover(path_graph(3), frozenset({0, 1}), 1, 0)


def test_extend_surplus_budget_takes_all_live_vertices():
    cut = extend_minimal_cover(path_graph(2), frozenset(), 5, 0)
    assert cut is not None
    assert cut.vertices == {0, 1}
    assert cut.residual_pairs == 0


@given(graphs_with_subset(max_n=7), st.integers(0, 4), st.integers(0, 12))
def test_extend_matches_naive_scan(g_cover, extra, x):
    g, cover = g_cover
    k = len(cover) + extra
    stats = BranchStats()
    cut = extend_minimal_cover(g, cover, k, x, stats)

    live = [
        v for v in range(g.n)
        if v not in cover and any(w not in cover for w in g.adjacency[v])
    ]
    sizes = [len(live)] if extra > len(live) else range(extra + 1)
    tried, expected = 0, None
    for size in sizes:
        for subset in combinations(live, size):
            tried += 1
            pairs = connected_pairs(remove_vertices(g, cover.union(subset))[0])
            if pairs <= x:
                expected = (cover.union(subset), pairs)
                break
        if expected is not None:
            break
    assert (None if cut is None else (cut.vertices, cut.residual_pairs)) == expected
    assert stats.extensions_tested == tried


def test_solve_star():
    dec = solve_branch_kx(star_graph(3), 1, 0)
    assert dec.answer
    assert dec.cut.vertices == {0}
    assert dec.cut.residual_pairs == 0


def test_solve_path_five_tight():
    yes = solve_branch_kx(path_graph(5), 1, 4)
    assert yes.answer and yes.cut.vertices == {2}
    no = solve_branch_kx(path_graph(5), 1, 3)
    assert not no.answer and no.cut is None


def test_solve_odd_x_at_the_boundary():
    # A triangle has 6 ordered pairs; x // 2 rounds the edge budget down.
    assert solve_branch_kx(complete_graph(3), 0, 6).answer
    assert not solve_branch_kx(complete_graph(3), 0, 5).answer
    # Two edges fit the budget 5 // 2, but their 6 pairs fail the extension.
    assert not solve_branch_kx(path_graph(3), 0, 5).answer


def test_solve_baseline_graph_node_count():
    dec = solve_branch_kx(random_graph(40, 60, Random(0)), 6, 8)
    assert not dec.answer
    assert dec.stats.nodes_visited <= 30_591


def test_solve_stops_at_first_yes():
    # The triangle has three minimal covers; the first one extended settles it.
    dec = solve_branch_kx(complete_graph(3), 1, 2)
    assert dec.answer and dec.stats.minimal_solutions_found == 1


def test_solve_trivial_graph():
    dec = solve_branch_kx(empty_graph(0), 0, 0)
    assert dec.answer
    assert dec.cut.vertices == frozenset()


@given(graphs(max_n=6), st.integers(0, 3), st.integers(0, 4))
def test_covers_are_exactly_the_minimal_ones(g, k, x):
    covers, _ = enumerate_minimal_covers(g, k, x)
    naive = set()
    for size in range(min(k, g.n) + 1):
        for subset in combinations(range(g.n), size):
            if edges_left(g, set(subset)) <= x:
                naive.add(frozenset(subset))
    minimal = {c for c in naive if not any(o < c for o in naive)}
    assert set(covers) == minimal
    assert covers == sorted(covers, key=lambda s: (len(s), sorted(s)))


@given(graphs(max_n=7), st.integers(0, 3), st.integers(0, 4))
def test_each_cover_is_minimal(g, k, x):
    covers, _ = enumerate_minimal_covers(g, k, x)
    for cover in covers:
        assert len(cover) <= k
        assert edges_left(g, cover) <= x
        for v in cover:
            assert edges_left(g, cover - {v}) > x


@given(graphs(max_n=7), st.integers(0, 3), st.integers(0, 5))
def test_node_envelope(g, k, x):
    _, stats = enumerate_minimal_covers(g, k, x)
    assert stats.nodes_visited <= 3 ** (x + k)


@given(graphs(max_n=7), st.integers(0, 3), st.integers(0, 8))
def test_solve_node_envelope(g, k, x):
    assert solve_branch_kx(g, k, x).stats.nodes_visited <= 3 ** (k + x // 2)


@given(graphs(max_n=6), st.integers(0, 3), st.integers(0, 8))
def test_solver_agrees_with_oracle(g, k, x):
    dec = solve_branch_kx(g, k, x)
    assert dec.answer == oracle_decides(g, k, x)
    if dec.answer:
        assert verify_solution(g, dec.cut.vertices, k, x)
        assert dec.cut.residual_pairs <= x
