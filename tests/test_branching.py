import time
from itertools import combinations
from random import Random

import pytest
from hypothesis import given, strategies as st

from cncut.families import enumerate_graphs, random_graph
from cncut.graph import (
    Cut,
    Graph,
    InputError,
    bits,
    complete_graph,
    path_graph,
    star_graph,
    verify_solution,
)
from cncut.branching import (
    _Covers,
    enumerate_minimal_covers,
    extend_minimal_cover,
    solve_branch_kx,
)
from cncut.kernel import kernelize_kx
from cncut.oracle import DEFAULT_CAP, CapExceeded, _Scan, oracle_decides, oracle_min_pairs

from .reference import empty_graph, full_scan, peeled, reference_covers
from .strategies import graphs, graphs_with_subset


def edges_left(g, cut):
    return sum(1 for u, v in g.edges if u not in cut and v not in cut)


def search(covers, g, k, budget):
    """All leaves a search yields, in order, and the nodes it visited."""
    leaves = covers(g.adjacency_masks, k, budget)
    return list(leaves), leaves.nodes


def minimal_masks(covers):
    return {c for c in covers if not any(o != c and o & c == o for o in covers)}


def assert_pruned_reference(g, k, budget):
    """_Covers' leaves are a subsequence of reference_covers', with the same
    minimal covers, in no more nodes; returns _Covers' node count."""
    covers, nodes = search(_Covers, g, k, budget)
    ref_covers, ref_nodes = search(reference_covers, g, k, budget)
    rest = iter(ref_covers)
    assert all(c in rest for c in covers)
    assert minimal_masks(set(covers)) == minimal_masks(set(ref_covers))
    assert nodes <= ref_nodes
    return nodes


def first_yes(covers, g, k, x, peel=True):
    """solve_branch_kx's search in two stages: search covers over g's peel
    order (its own ids when peel is False), and extend each distinct cover,
    mapped back to g's ids, by extend_minimal_cover. Returns the first cut
    found (None on NO) and the nodes visited."""
    masks, order = (g.peel_masks, g.peel_order) if peel else (g.adjacency_masks, range(g.n))
    leaves = covers(masks, k, x // 2)
    extended = set()
    for cover in leaves:
        if cover not in extended:
            extended.add(cover)
            cut = extend_minimal_cover(g, frozenset(order[i] for i in bits(cover)), k, x)
            if cut is not None:
                return cut, leaves.nodes
    return None, leaves.nodes


def planted_graph(k, pieces, rng):
    """k hubs on a path, plus pieces of two adjacent vertices each joined to
    two hubs; labels are shuffled so the hubs are not the smallest ids.
    Deleting the hubs leaves 2 * pieces ordered pairs."""
    n = k + 2 * pieces
    edges = {(h, h + 1) for h in range(k - 1)}
    for v in range(k, n, 2):
        edges.add((v, v + 1))
        for w in (v, v + 1):
            edges.update((h, w) for h in rng.sample(range(k), 2))
    perm = list(range(n))
    rng.shuffle(perm)
    return Graph.from_edges(n, [(perm[a], perm[b]) for a, b in edges])


@given(graphs(max_n=8), st.integers(0, 3), st.integers(0, 4))
def test_covers_match_reference_search(g, k, budget):
    assert_pruned_reference(g, k, budget)


def test_covers_drop_a_leaf_that_keeps_the_hub():
    # The hub's 3 live edges exceed k + budget = 2, so only "delete 0" is
    # tried; the reference also reaches the non-minimal leaf {0, 1}.
    assert search(_Covers, star_graph(3), 2, 0) == ([0b1], 2)
    assert search(reference_covers, star_graph(3), 2, 0) == ([0b1, 0b11], 5)


def test_covers_match_reference_on_baseline_graph():
    g = random_graph(40, 60, Random(0))
    assert assert_pruned_reference(g, 6, 4) == 24_566
    assert search(reference_covers, g, 6, 4)[1] == 30_591


@pytest.mark.parametrize("g, k, x", [
    (complete_graph(3), 1, 2),
    (planted_graph(3, 5, Random(1)), 3, 10),
])
def test_solve_counts_nodes_up_to_first_yes(g, k, x):
    dec = solve_branch_kx(g, k, x)
    assert dec.answer
    # The reference searches the labelling solve_branch_kx searches.
    ref_cut, ref_nodes = first_yes(reference_covers, g, k, x)
    assert ref_cut is not None and dec.stats.nodes_visited <= ref_nodes
    # The search stopped before its end, so the count is that of a prefix.
    assert dec.stats.nodes_visited < search(_Covers, peeled(g), k, x // 2)[1]


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


def first_hit(scan):
    """Run a scan to its first yield; its count up to there, and the yield."""
    return next(iter(scan), None), scan.evaluated


def test_extend_past_a_dominator_in_the_cover():
    # Vertex 1's one dominator, 0, is in the cover, so 1 may go alone.
    g = complete_graph(3)
    cut = extend_minimal_cover(g, frozenset({0}), 2, 0)
    assert cut == Cut(frozenset({0, 1}), 0)
    # The extension's scan: vertices 1 and 2, budget 1, bound 0.
    assert first_hit(_Scan(g, 0b110, [1, 2], 1, range(2), DEFAULT_CAP, 0)) == (((1,), 0), 2)


def test_extend_refuses_by_the_shared_cap():
    # 30 disjoint edges keep all 60 vertices live: sizes 0..6 of them hold
    # more subsets than the cap, refused before the first one is formed.
    g = Graph.from_edges(60, [(v, v + 1) for v in range(0, 60, 2)])
    for _ in range(3):
        start = time.perf_counter()
        with pytest.raises(CapExceeded, match="56049058 candidate sets for n=60, k=6"):
            extend_minimal_cover(g, frozenset(), 6, 0)
        elapsed = time.perf_counter() - start
    assert elapsed < 1e-3


@given(graphs_with_subset(max_n=7), st.integers(0, 4), st.integers(0, 12))
def test_extend_matches_naive_scan(g_cover, extra, x):
    g, cover = g_cover
    k = len(cover) + extra
    cut = extend_minimal_cover(g, cover, k, x)

    live = [
        v for v in range(g.n)
        if v not in cover and any(w not in cover for w in g.neighbors(v))
    ]
    sizes = [len(live)] if extra > len(live) else range(extra + 1)
    alive = (1 << g.n) - 1 - sum(1 << v for v in cover)
    hit, tested = first_hit(_Scan(g, alive, live, extra, sizes, DEFAULT_CAP, x))
    assert cut == (None if hit is None else Cut(cover.union(hit[0]), hit[1]))
    rows = full_scan(g, live, sizes, cover)
    hits = [r for r in rows if r.pairs <= x]
    closed = [r for r in rows if r.closed]
    # The first closed hit, of the smallest size any subset hits at; every
    # closed subset up to it is tried.
    first = next((i for i, r in enumerate(closed) if r.pairs <= x), None)
    if first is None:
        assert cut is None and not hits
        assert tested == len(closed)
    else:
        assert len(closed[first].subset) == len(hits[0].subset)
        assert (cut.vertices, cut.residual_pairs) == (cover | closed[first].subset,
                                                      closed[first].pairs)
        assert tested == first + 1


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
    # K2's one live edge exactly meets the budget 3 // 2, so it may be kept.
    assert solve_branch_kx(path_graph(2), 0, 3).answer


def test_solver_agrees_with_oracle_where_the_degree_rule_fires():
    # Dense graphs, x at the optimum, one below it, and one drawn at random.
    answers = []
    for seed in range(100):
        rng = Random(seed)
        n = rng.randint(9, 13)
        g = random_graph(n, rng.randint(2 * n, 2 * n + 4), rng)
        k = rng.randint(2, 4)
        opt = oracle_min_pairs(g, k).min_residual_pairs
        for x in sorted({opt - 1, opt, rng.randint(0, 14)}):
            if 0 <= x <= 14:
                dec = solve_branch_kx(g, k, x)
                assert dec.answer == oracle_decides(g, k, x), (seed, x)
                # In id order the rule fires before the first YES: the pruned
                # search beats the unpruned one on every cell.
                id_cut, id_nodes = first_yes(_Covers, g, k, x, peel=False)
                assert (id_cut is not None) == dec.answer
                assert id_nodes < first_yes(reference_covers, g, k, x, peel=False)[1]
                # In the peel order solve_branch_kx searches, never more nodes
                # than the unpruned search of that labelling, and fewer on a
                # NO, where the whole tree is searched. A YES can come before
                # the first node the rule prunes there, in as many nodes.
                ref_nodes = first_yes(reference_covers, g, k, x)[1]
                assert dec.stats.nodes_visited <= ref_nodes
                assert dec.answer or dec.stats.nodes_visited < ref_nodes
                answers.append(dec.answer)
    assert 0 < sum(answers) < len(answers)


def test_solve_baseline_graph_node_count():
    dec = solve_branch_kx(random_graph(40, 60, Random(0)), 6, 8)
    assert not dec.answer
    assert dec.stats.nodes_visited == 10_213


def test_kernelized_hang_instance_is_no():
    trace = kernelize_kx(random_graph(30, 90, Random(3)), 8, 12)
    dec = solve_branch_kx(trace.kernel_graph, trace.k_out, 12)
    assert not dec.answer
    assert dec.stats.nodes_visited == 128_666


def test_solve_maps_the_cut_back_to_input_ids():
    # The hub has the largest id and is searched as vertex 0.
    g = Graph.from_edges(4, [(3, 0), (3, 1), (3, 2)])
    assert g.peel_order[0] == 3
    dec = solve_branch_kx(g, 1, 0)
    assert dec.answer and dec.cut.vertices == {3}


@given(graphs(max_n=8), st.integers(0, 3), st.integers(0, 8))
def test_peel_order_search_agrees_with_oracle(g, k, x):
    dec = solve_branch_kx(g, k, x)
    assert dec.answer == oracle_decides(g, k, x)
    # The peeled graph is its own peel order, so its search is the same
    # tree and stops at the same node: whether a cover extends does not
    # depend on the labelling.
    again = solve_branch_kx(peeled(g), k, x)
    assert again.answer == dec.answer
    assert again.stats.nodes_visited == dec.stats.nodes_visited


def test_solve_stops_at_first_yes():
    # The triangle has three minimal covers; the first leaf counted settles it.
    dec = solve_branch_kx(complete_graph(3), 1, 2)
    assert dec.answer
    assert (dec.stats.extensions_tested, dec.stats.nodes_visited) == (1, 3)


def parity_cells():
    """Every all:n=5 cell with k = 0-3 and x = 0-10, then 15 sparse random
    graphs with k = 0-6 and x = 0-20, where budget is often left to spare."""
    for g in enumerate_graphs(5):
        for k in range(4):
            for x in range(11):
                yield g, k, x
    rng = Random(9)
    for _ in range(15):
        g = random_graph(9, 10, rng)
        for k in range(7):
            for x in range(21):
                yield g, k, x


def test_leaf_check_matches_two_stage_search():
    # The first leaf whose extension succeeds is a solution by itself, so
    # checking each leaf's own pairs stops at that leaf, with the same cut.
    answers = []
    for g, k, x in parity_cells():
        dec = solve_branch_kx(g, k, x)
        cut, nodes = first_yes(_Covers, g, k, x)
        assert (dec.cut, dec.stats.nodes_visited) == (cut, nodes), (sorted(g.edges), k, x)
        answers.append(dec.answer)
    assert len(answers) == 3_701 and 0 < sum(answers) < len(answers)


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
