from math import comb

import pytest
from hypothesis import given, strategies as st

from cncut.graph import (
    Graph,
    InputError,
    complete_graph,
    connected_pairs,
    disjoint_union,
    empty_graph,
    pairs_removed,
    path_graph,
    remove_vertices,
)
from cncut.component_dp import (
    build_removal_table,
    shortcut_checks,
    solve_y,
)
from cncut.oracle import CapExceeded, oracle_max_removed_exact, oracle_min_pairs

from .strategies import graphs

TWO_TRIANGLES = disjoint_union([complete_graph(3), complete_graph(3)])[0]
TWO_EDGES = disjoint_union([path_graph(2), path_graph(2)])[0]


def test_trivial_shortcut():
    dec = shortcut_checks(complete_graph(3), 0, 0)
    assert dec is not None and dec.answer
    assert dec.stats.shortcut == "trivial"
    assert dec.cut.vertices == frozenset()
    assert dec.cut.residual_pairs == 6


def test_negative_target_is_trivially_yes():
    dec = solve_y(path_graph(3), 0, -3)
    assert dec.answer and dec.stats.shortcut == "trivial"


def test_large_component_shortcut():
    dec = shortcut_checks(path_graph(6), 1, 5)
    assert dec is not None and dec.answer
    assert dec.stats.shortcut == "large-component"
    assert dec.cut.vertices == {0}
    assert dec.cut.residual_pairs == 20


def test_greedy_shortcut():
    dec = solve_y(TWO_EDGES, 2, 4)
    assert dec.answer
    assert dec.stats.shortcut == "greedy-2k"
    assert dec.cut.vertices == {0, 2}
    assert dec.cut.residual_pairs == 0


def test_fall_through_cases():
    # Component sizes and 2k both well under y: no screen fires.
    assert shortcut_checks(TWO_EDGES, 3, 100) is None
    # Greedy finds nothing to delete on an edgeless graph.
    assert shortcut_checks(empty_graph(5), 5, 2) is None


def test_shortcut_rejects_negative_budget():
    with pytest.raises(InputError):
        shortcut_checks(path_graph(3), -1, 2)


def test_zero_budget_positive_target():
    dec = solve_y(complete_graph(3), 0, 1)
    assert not dec.answer and dec.cut is None


def test_removal_table_two_triangles():
    table = build_removal_table(TWO_TRIANGLES, 2)
    assert table.components == ((0, 1, 2), (3, 4, 5))
    assert table.values == ((0, 4, 6), (0, 4, 6))
    assert table.witnesses[0][0] == frozenset()
    assert table.witnesses[0][1] <= {0, 1, 2} and len(table.witnesses[0][1]) == 1
    assert table.witnesses[1][2] <= {3, 4, 5} and len(table.witnesses[1][2]) == 2
    assert table.subsets_examined == (7, 7)


def test_removal_table_budget_clamped_to_component_size():
    table = build_removal_table(TWO_EDGES, 3)
    assert table.values == ((0, 2, 2), (0, 2, 2))


def test_removal_table_refuses_above_cap():
    with pytest.raises(CapExceeded) as exc:
        build_removal_table(complete_graph(6), 3, cap=10)
    assert (exc.value.candidates, exc.value.cap, exc.value.n, exc.value.k) == (15, 10, 6, 2)


@given(graphs(max_n=7), st.integers(0, 3))
def test_removal_table_matches_oracle_per_component(g, k):
    table = build_removal_table(g, k)
    for i, verts in enumerate(table.components):
        comp, _ = remove_vertices(g, set(range(g.n)) - set(verts))
        s = len(verts)
        assert len(table.values[i]) == min(k, s) + 1
        for j, value in enumerate(table.values[i]):
            assert value == oracle_max_removed_exact(comp, j).max_removed
            witness = table.witnesses[i][j]
            assert len(witness) <= j and witness <= set(verts)
            assert pairs_removed(g, witness) == value
        assert table.subsets_examined[i] == sum(comb(s, j) for j in range(min(k, s) + 1))


def test_solve_two_triangles_split_budget():
    dec = solve_y(TWO_TRIANGLES, 2, 8)
    assert dec.answer
    assert dec.stats.shortcut is None
    assert dec.stats.component_count == 2
    assert len(dec.cut.vertices) == 2
    assert pairs_removed(TWO_TRIANGLES, dec.cut.vertices) == 8
    assert dec.cut.residual_pairs == 4

    assert not solve_y(TWO_TRIANGLES, 2, 9).answer


def test_solve_edgeless_is_no():
    dec = solve_y(empty_graph(5), 5, 2)
    assert not dec.answer
    assert dec.stats.shortcut is None


@st.composite
def graph_and_permutation(draw):
    g = draw(graphs(max_n=7))
    perm = draw(st.permutations(list(range(g.n)))) if g.n else ()
    return g, tuple(perm)


@given(graph_and_permutation(), st.integers(0, 3), st.integers(0, 12))
def test_answer_is_permutation_invariant(gp, k, y):
    g, perm = gp
    relabeled = Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges])
    assert solve_y(g, k, y).answer == solve_y(relabeled, k, y).answer


@given(graphs(max_n=6), st.integers(0, 4), st.integers(0, 20))
def test_agrees_with_oracle(g, k, y):
    dec = solve_y(g, k, y)
    total = connected_pairs(g)
    want = total - oracle_min_pairs(g, k).min_residual_pairs >= y
    assert dec.answer == want
    if dec.answer:
        cut = dec.cut
        assert len(cut.vertices) <= k
        assert pairs_removed(g, cut.vertices) >= y
        assert cut.residual_pairs == total - pairs_removed(g, cut.vertices)
    if dec.stats.shortcut is None and dec.stats.component_count:
        assert all(c <= 2 ** max(y, 1) for c in dec.stats.subsets_examined)
