import pytest
from hypothesis import given, settings, strategies as st

from cncut.graph import (
    Cut,
    Graph,
    InputError,
    certify,
    complete_graph,
    connected_pairs,
    cycle_graph,
    disjoint_union,
    pairs_removed,
    path_graph,
    remove_isolated,
    remove_vertices,
    star_graph,
    verify_solution,
)

from .reference import (
    component_size_census,
    connected_components,
    degeneracy,
    dominator_counts,
    dominators,
    empty_graph,
    is_bipartite,
    peeled,
)
from .strategies import child_peak_rss_mb, graphs, graphs_with_subset

K3 = complete_graph(3)
P4 = path_graph(4)
TWO_TRIANGLES = disjoint_union([complete_graph(3), complete_graph(3)])[0]


def test_construction_rejects_bad_edges():
    with pytest.raises(InputError):
        Graph(3, [(0, 3)])
    with pytest.raises(InputError):
        Graph(3, [(1, 1)])
    with pytest.raises(InputError):
        Graph(3, [(0, 1), (1, 0)])
    with pytest.raises(InputError):
        Graph(-1, [])


def test_edges_are_normalized():
    g = Graph.from_edges(3, [(2, 0)])
    assert g.has_edge(0, 2) and g.has_edge(2, 0)
    assert sorted(g.edges) == [(0, 2)]
    with pytest.raises(InputError):
        Graph(3, [(2, 0)])


def test_graph_freezes_the_edges_it_is_given():
    # Repeats collapse, any iterable is taken, and the graph neither shares
    # the caller's list nor depends on the container's type.
    edges = [(0, 1), (0, 1)]
    g = Graph(3, edges)
    assert g.m == 1 and g.edges == frozenset({(0, 1)})
    assert hash(g) == hash(Graph(3, frozenset({(0, 1)})))
    edges.append((1, 2))
    assert g.m == 1
    with pytest.raises(AttributeError):
        g.edges.add((1, 2))
    assert Graph(3, iter([(0, 1)])) == g
    assert Graph(3, ()) == Graph(3, frozenset())


@pytest.mark.parametrize(
    "g,sizes",
    [
        (empty_graph(3), [1, 1, 1]),
        (K3, [3]),
        (Graph(4, [(0, 1), (2, 3)]), [2, 2]),
    ],
)
def test_component_examples(g, sizes):
    labeling = connected_components(g)
    assert sorted(labeling.sizes) == sorted(sizes)
    assert labeling.count == len(sizes)
    assert sum(labeling.sizes) == g.n


@pytest.mark.parametrize(
    "g,pairs",
    [
        (empty_graph(5), 0),
        (K3, 6),
        (P4, 12),
    ],
)
def test_connected_pairs_examples(g, pairs):
    assert connected_pairs(g) == pairs


def test_remove_vertices_examples():
    h, _ = remove_vertices(K3, {0})
    assert h.n == 2 and h.m == 1 and connected_pairs(h) == 2

    h, remap = remove_vertices(P4, {1})
    assert connected_pairs(h) == 2
    assert sorted(remap) == [0, 2, 3]

    same, remap = remove_vertices(K3, ())
    assert same.edges == K3.edges and remap == (0, 1, 2)

    with pytest.raises(InputError):
        remove_vertices(K3, {5})


@pytest.mark.parametrize(
    "g,cut,removed",
    [
        (P4, {1}, 10),
        (K3, {0, 1, 2}, 6),
        (TWO_TRIANGLES, {0}, 4),
    ],
)
def test_pairs_removed_examples(g, cut, removed):
    assert pairs_removed(g, cut) == removed


def test_remove_isolated_examples():
    h, dropped, remap = remove_isolated(empty_graph(4))
    assert h.n == 0 and len(dropped) == 4 and remap == ()

    h, dropped, remap = remove_isolated(K3)
    assert h.n == 3 and dropped == ()

    g, _ = disjoint_union([K3, empty_graph(2)])
    h, dropped, remap = remove_isolated(g)
    assert h.n == 3 and len(dropped) == 2
    assert connected_pairs(h) == connected_pairs(g)


@pytest.mark.parametrize(
    "g,cut,k,x,ok",
    [
        (K3, {0}, 1, 2, True),
        (K3, {0}, 1, 1, False),
        (complete_graph(4), {0}, 1, 2, False),
    ],
)
def test_verify_solution_examples(g, cut, k, x, ok):
    report = verify_solution(g, cut, k, x)
    assert bool(report) is ok
    assert report.cut_size == len(cut)


def test_certify_checks_the_claimed_residual():
    g, cut = path_graph(5), frozenset({2})  # leaves two edges: 4 ordered pairs
    assert certify(g, Cut(cut, 4), 1, 10, "test") == Cut(cut, 4)
    # Within k and x, but the engine claims 6 pairs where 4 remain.
    with pytest.raises(AssertionError, match="engine test"):
        certify(g, Cut(cut, 6), 1, 10, "test")
    with pytest.raises(AssertionError, match="engine test"):
        certify(g, Cut(cut, 4), 1, 3, "test")


def test_verify_solution_rejects_unknown_vertex():
    with pytest.raises(InputError):
        verify_solution(K3, {7}, 2, 6)


@given(graphs_with_subset())
def test_verify_solution_matches_rebuilt_graph(gc):
    g, c = gc
    h, _ = remove_vertices(g, c)
    assert verify_solution(g, c, len(c), 0).residual_pairs == connected_pairs(h)


def test_pairs_removed_memory_is_linear():
    # Both counts run over the edge list, so no adjacency mask is built.
    code = (
        "from cncut.graph import pairs_removed, path_graph\n"
        "assert pairs_removed(path_graph(100000), [0, 1])"
        " == 100000 * 99999 - 99998 * 99997"
    )
    assert child_peak_rss_mb(code) < 100


def test_verify_solution_memory_is_linear():
    # An adjacency mask per vertex of a 100,000-vertex path costs about
    # n^2/16 bytes (over 600 MB); the edge-list count needs a few MB.
    code = (
        "from cncut.graph import path_graph, verify_solution\n"
        "assert verify_solution(path_graph(100000), [0, 1], 2, 0).residual_pairs"
        " == 99998 * 99997"
    )
    assert child_peak_rss_mb(code) < 100


@given(graphs())
def test_pairs_always_even(g):
    assert connected_pairs(g) % 2 == 0


@given(graphs_with_subset())
def test_deletion_monotone(gc):
    g, c = gc
    h, _ = remove_vertices(g, c)
    assert connected_pairs(h) <= connected_pairs(g)


@given(graphs_with_subset(), st.sets(st.integers(0, 7)))
def test_superset_removes_at_least_as_much(gc, extra):
    g, c1 = gc
    c2 = c1 | {v for v in extra if v < g.n}
    assert pairs_removed(g, c2) >= pairs_removed(g, c1)


@given(graphs())
def test_remove_isolated_preserves_pairs(g):
    h, dropped, _ = remove_isolated(g)
    assert connected_pairs(h) == connected_pairs(g)
    assert h.n + len(dropped) == g.n
    assert all(h.degree(v) > 0 for v in range(h.n))


@given(graphs(max_n=8))
def test_pairs_match_double_loop_reachability(g):
    # Independent count: ordered pairs (u, v), u != v, v reachable from u.
    labels = connected_components(g).labels
    direct = sum(
        1
        for u in range(g.n)
        for v in range(g.n)
        if u != v and labels[u] == labels[v]
    )
    assert connected_pairs(g) == direct


def _reach(edges, start):
    """Vertices reachable from start over an edge list, relaxed to a fixed point."""
    seen = {start}
    grew = True
    while grew:
        grew = False
        for u, v in edges:
            if (u in seen) != (v in seen):
                seen |= {u, v}
                grew = True
    return seen


@given(graphs(max_n=10))
def test_components_match_edge_reachability(g):
    # The strategy builds the same hashable graph as from_edges.
    same = Graph.from_edges(g.n, g.edges)
    assert g == same and hash(g) == hash(same)
    comps = [{v for v in range(g.n) if mask >> v & 1} for mask in g.components]
    # The masks partition range(n) and come ordered by smallest vertex.
    assert sorted(v for c in comps for v in c) == list(range(g.n))
    assert all(comps) and [min(c) for c in comps] == sorted(min(c) for c in comps)
    for c in comps:
        inside = [(u, v) for u, v in g.edges if u in c and v in c]
        assert _reach(inside, min(c)) == c
        assert all((u in c) == (v in c) for u, v in g.edges)

    labels = [-1] * g.n
    count = 0
    for v in range(g.n):
        if labels[v] == -1:
            for w in _reach(g.edges, v):
                labels[w] = count
            count += 1
    assert connected_components(g).labels == tuple(labels)


@given(graphs(max_n=8))
def test_dominator_counts_match_the_definition(g):
    assert g.dominators == dominators(g)
    assert tuple(d.bit_count() for d in g.dominators) == dominator_counts(g)


def test_dominator_counts_rank_twins_by_id():
    def counts(g):
        return tuple(d.bit_count() for d in g.dominators)

    # Each end of K2 dominates the other; only vertex 0 ranks above.
    assert counts(complete_graph(2)) == (0, 1)
    # A star's centre dominates every leaf, and the leaves are twins.
    assert counts(star_graph(3)) == (0, 1, 2, 3)
    # An isolated vertex is dominated by every vertex ranked above it.
    assert counts(empty_graph(3)) == (0, 1, 2)


@given(graphs(max_n=10))
def test_peel_order_takes_the_most_live_neighbours_first(g):
    order = g.peel_order
    assert sorted(order) == list(range(g.n))
    live = set(range(g.n))
    for v in order:
        # The most neighbours still live, and the smallest id on ties.
        assert v == min(live, key=lambda u: (-len(g.neighbors(u) & live), u))
        live.remove(v)


def test_peel_order_examples():
    assert Graph.from_edges(4, [(3, 0), (3, 1), (3, 2)]).peel_order == (3, 0, 1, 2)
    # The path's inner vertices tie; taking 1 leaves 3 the only one of degree 2.
    assert path_graph(5).peel_order == (1, 3, 0, 2, 4)
    assert empty_graph(3).peel_order == (0, 1, 2)
    assert empty_graph(0).peel_order == () and empty_graph(0).peel_masks == ()


@given(graphs(max_n=10))
def test_peel_masks_carry_exactly_the_edges(g):
    assert g.peel_masks == peeled(g).adjacency_masks
    # The relabelled graph is already in peel order.
    assert peeled(g).peel_order == tuple(range(g.n))


@given(graphs_with_subset())
def test_remap_preserves_adjacency(gc):
    g, c = gc
    h, remap = remove_vertices(g, c)
    assert len(remap) == h.n
    for a in range(h.n):
        for b in range(a + 1, h.n):
            assert h.has_edge(a, b) == g.has_edge(remap[a], remap[b])


@pytest.mark.parametrize(
    "g,n,m",
    [
        (path_graph(5), 5, 4),
        (cycle_graph(5), 5, 5),
        (star_graph(4), 5, 4),
        (complete_graph(5), 5, 10),
        (empty_graph(0), 0, 0),
    ],
)
def test_builders(g, n, m):
    assert g.n == n and g.m == m


def test_bipartite_checks():
    assert is_bipartite(cycle_graph(4))
    assert not is_bipartite(cycle_graph(5))
    assert not is_bipartite(K3)
    assert is_bipartite(empty_graph(3))
    assert is_bipartite(star_graph(6))


def test_degeneracy_values():
    d, order = degeneracy(path_graph(6))
    assert d == 1 and sorted(order) == list(range(6))
    assert degeneracy(complete_graph(4))[0] == 3
    assert degeneracy(cycle_graph(7))[0] == 2
    assert degeneracy(empty_graph(4))[0] == 0


@given(graphs())
def test_degeneracy_order_is_witness(g):
    # Peeling in the returned order never exposes a degree above d.
    d, order = degeneracy(g)
    remaining = set(order)
    for v in order:
        assert sum(1 for w in g.neighbors(v) if w in remaining) <= d
        remaining.discard(v)


def test_component_census():
    census = component_size_census(TWO_TRIANGLES)
    assert census == {3: 2}
    g, _ = disjoint_union([K3, empty_graph(2)])
    assert component_size_census(g) == {3: 1}
    assert component_size_census(K3, {0}) == {2: 1}


def test_disjoint_union_offsets():
    g, offsets = disjoint_union([K3, path_graph(2)])
    assert g.n == 5 and g.m == 4
    assert offsets[1][0] == 3
