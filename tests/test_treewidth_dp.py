import random

import pytest
from hypothesis import given, settings, strategies as st

from cncut.families import random_graph
from cncut.graph import (
    Graph,
    InputError,
    complete_graph,
    disjoint_union,
    empty_graph,
    path_graph,
    star_graph,
    verify_solution,
)
from cncut.decomposition import (
    NiceNode,
    NiceTreeDecomposition,
    StructuralError,
    TreeDecomposition,
    heuristic_decomposition,
    make_nice,
)
from cncut.oracle import oracle_decides
from cncut.treewidth_dp import (
    DpKey,
    DpTable,
    compute_tables,
    forget_table,
    introduce_table,
    join_table,
    leaf_table,
    WxStats,
    read_decision,
    solve_wx,
)

from .strategies import graphs

EMPTY = frozenset()


def entry_values(table):
    return {struct: held[0] for struct, held in table.entries.items()}


def test_leaf_keys():
    t = leaf_table(4, 1, 0)
    keys = list(t.expanded_keys())
    assert keys == [
        DpKey(0, 0, EMPTY, (frozenset({4}),), (1,)),
        DpKey(1, 0, frozenset({4}), (), ()),
    ]


def test_leaf_zero_budget_only_keeps():
    t = leaf_table(4, 0, 0)
    assert entry_values(t) == {(0, EMPTY, (frozenset({4}),), (1,)): 0}


def test_leaf_larger_x_same_structs():
    tight = leaf_table(4, 1, 0)
    loose = leaf_table(4, 1, 5)
    assert set(tight.entries) == set(loose.entries)
    assert tight.expanded_count() == 2
    assert loose.expanded_count() == 12


def test_offer_keeps_minimum_and_respects_cap():
    t = DpTable(5)
    s = (0, EMPTY, (), ())
    t.offer(s, 4, ("a",))
    t.offer(s, 2, ("b",))
    t.offer(s, 3, ("c",))
    assert t.entries[s] == (2, ("b",))
    t.offer((1, EMPTY, (), ()), 6, ("d",))
    assert len(t) == 1


def test_introduce_with_edge_charges_pairs():
    child = leaf_table(0, 1, 4)
    t = introduce_table(child, 1, frozenset({0}), 1, 4)
    assert entry_values(t) == {
        (0, EMPTY, (frozenset({0, 1}),), (2,)): 2,
        (1, frozenset({1}), (frozenset({0}),), (1,)): 0,
        (1, frozenset({0}), (frozenset({1}),), (1,)): 0,
    }


def test_introduce_without_edge_adds_singleton_block():
    child = leaf_table(0, 0, 4)
    t = introduce_table(child, 1, EMPTY, 0, 4)
    assert entry_values(t) == {
        (0, EMPTY, (frozenset({0}), frozenset({1})), (1, 1)): 0,
    }


def test_introduce_merging_two_blocks():
    child = DpTable(10)
    child.offer((0, EMPTY, (frozenset({0}), frozenset({2})), (1, 1)), 0, ("t",))
    t = introduce_table(child, 1, frozenset({0, 2}), 0, 10)
    # Two size-1 components fuse through the new vertex: 6 new pairs.
    assert entry_values(t) == {(0, EMPTY, (frozenset({0, 1, 2}),), (3,)): 6}


def test_introduce_prunes_past_cap():
    child = leaf_table(0, 1, 1)
    t = introduce_table(child, 1, frozenset({0}), 1, 1)
    assert (0, EMPTY, (frozenset({0, 1}),), (2,)) not in t.entries


def test_forget_shrinks_blocks():
    child = DpTable(10)
    child.offer((0, EMPTY, (frozenset({0, 1}),), (2,)), 2, ("t",))
    child.offer((1, frozenset({0}), (frozenset({1}),), (1,)), 0, ("t",))
    t = forget_table(child, 0)
    assert entry_values(t) == {
        (0, EMPTY, (frozenset({1}),), (2,)): 2,
        (1, EMPTY, (frozenset({1}),), (1,)): 0,
    }


def test_forget_finalizes_emptied_block():
    child = DpTable(10)
    child.offer((0, EMPTY, (frozenset({0}),), (3,)), 6, ("t",))
    t = forget_table(child, 0)
    assert entry_values(t) == {(0, EMPTY, (), ()): 6}


def test_join_identity_on_shared_vertex():
    a = DpTable(10)
    a.offer((0, EMPTY, (frozenset({7}),), (1,)), 0, ("t",))
    t = join_table(a, a, 3, 10)
    assert entry_values(t) == {(0, EMPTY, (frozenset({7}),), (1,)): 0}


def test_join_block_fusion_counts_once():
    left = DpTable(10)
    left.offer((0, EMPTY, (frozenset({0, 1}),), (2,)), 2, ("t",))
    right = DpTable(10)
    right.offer((0, EMPTY, (frozenset({0}), frozenset({1})), (1, 1)), 0, ("t",))
    t = join_table(left, right, 3, 10)
    assert entry_values(t) == {(0, EMPTY, (frozenset({0, 1}),), (2,)): 2}


def test_join_shared_deletions_counted_once():
    side = DpTable(10)
    side.offer((1, frozenset({0}), (), ()), 0, ("t",))
    t = join_table(side, side, 1, 10)
    assert entry_values(t) == {(1, frozenset({0}), (), ()): 0}
    assert len(join_table(side, side, 0, 10)) == 0


def test_join_requires_matching_deleted_sets():
    left = DpTable(10)
    left.offer((1, frozenset({0}), (), ()), 0, ("t",))
    right = DpTable(10)
    right.offer((0, EMPTY, (frozenset({0}),), (1,)), 0, ("t",))
    assert len(join_table(left, right, 3, 10)) == 0


def test_join_size_arithmetic_with_forgotten_vertices():
    left = DpTable(20)
    left.offer((0, EMPTY, (frozenset({0, 1}),), (3,)), 6, ("t",))
    right = DpTable(20)
    right.offer((0, EMPTY, (frozenset({0}), frozenset({1})), (2, 2)), 4, ("t",))
    t = join_table(left, right, 3, 20)
    assert entry_values(t) == {(0, EMPTY, (frozenset({0, 1}),), (5,)): 20}
    assert len(join_table(left, right, 3, 19)) == 0


@pytest.mark.parametrize(
    "key",
    [
        DpKey(0, 0, EMPTY, (frozenset({0}),), ()),
        DpKey(0, 10, EMPTY, (frozenset({0, 1}),), (1,)),
        DpKey(0, 1, EMPTY, (frozenset({0}),), (2,)),
    ],
)
def test_key_check_rejects_bad_keys(key):
    with pytest.raises(InputError):
        key.check()


def test_solve_path_four():
    dec = solve_wx(path_graph(4), 1, 2)
    assert dec.answer
    assert dec.cut.vertices in (frozenset({1}), frozenset({2}))
    assert dec.cut.residual_pairs == 2
    assert dec.stats.width == 1
    assert dec.stats.node_count > 0


def test_solve_k4_no():
    dec = solve_wx(complete_graph(4), 1, 2)
    assert not dec.answer and dec.cut is None


def test_solve_edgeless_trivial_yes():
    dec = solve_wx(empty_graph(3), 0, 0)
    assert dec.answer
    assert dec.cut.vertices == frozenset()
    assert dec.cut.residual_pairs == 0


def test_solve_empty_graph():
    assert solve_wx(empty_graph(0), 0, 0).answer


def test_solve_rejects_negative_parameters():
    with pytest.raises(InputError):
        solve_wx(path_graph(3), -1, 0)
    with pytest.raises(InputError):
        solve_wx(path_graph(3), 0, -1)


def test_solve_rejects_invalid_decomposition():
    ntd = make_nice(TreeDecomposition((frozenset({0}),), ()))
    with pytest.raises(StructuralError, match="condition 1"):
        solve_wx(path_graph(3), 1, 1, ntd=ntd)


def test_compute_tables_rejects_stale_introduce():
    ntd = NiceTreeDecomposition(
        (
            NiceNode("leaf", frozenset({0}), 0, ()),
            NiceNode("forget", EMPTY, 0, (0,)),
            NiceNode("introduce", frozenset({1}), 1, (1,)),
            NiceNode("forget", EMPTY, 1, (2,)),
        )
    )
    with pytest.raises(StructuralError, match="already forgotten"):
        compute_tables(path_graph(2), ntd, 1, 2)


def test_compute_tables_rejects_unknown_kind():
    ntd = NiceTreeDecomposition((NiceNode("weird", frozenset({0}), 0, ()),))
    with pytest.raises(StructuralError, match="unknown node kind"):
        compute_tables(path_graph(1), ntd, 1, 2)


def test_read_decision_thresholds():
    g = path_graph(4)
    ntd = make_nice(heuristic_decomposition(g))
    tables = compute_tables(g, ntd, 1, 2)
    assert read_decision(tables, ntd, 1, 2) is not None
    assert read_decision(tables, ntd, 0, 2) is None
    assert read_decision(tables, ntd, 1, 1) is None


def test_precomputed_tables_answer_smaller_parameters():
    g = path_graph(6)
    ntd = make_nice(heuristic_decomposition(g))
    tables = compute_tables(g, ntd, 3, 10)
    for k in range(4):
        for x in range(11):
            got = solve_wx(g, k, x, ntd=ntd, precomputed=tables)
            assert got.answer == oracle_decides(g, k, x), (k, x)


def test_precomputed_tables_refuse_larger_parameters():
    g = path_graph(6)
    ntd = make_nice(heuristic_decomposition(g))
    tables = compute_tables(g, ntd, 1, 2)
    assert oracle_decides(g, 2, 10)
    with pytest.raises(InputError, match="built for k <= 1, x <= 2"):
        solve_wx(g, 2, 10, ntd=ntd, precomputed=tables)
    with pytest.raises(InputError):
        solve_wx(g, 1, 3, ntd=ntd, precomputed=tables)
    with pytest.raises(InputError):
        solve_wx(g, 2, 2, ntd=ntd, precomputed=tables)
    hand_built = [DpTable(10) for _ in ntd.nodes]
    with pytest.raises(InputError):
        solve_wx(g, 1, 2, ntd=ntd, precomputed=hand_built)
    assert solve_wx(g, 1, 2, ntd=ntd, precomputed=tables).answer == oracle_decides(g, 1, 2)


def _join_pair_reference(l_struct, l_min, r_struct, r_min, k, x):
    """Union-find over the bag vertices of both sides' blocks."""
    lk, deleted, lblocks, lsizes = l_struct
    rk, _, rblocks, rsizes = r_struct
    k_new = lk + rk - len(deleted)
    if k_new > k:
        return None
    parent = {}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for blocks in (lblocks, rblocks):
        for b in blocks:
            it = iter(b)
            first = next(it)
            parent.setdefault(first, first)
            for w in it:
                parent.setdefault(w, w)
                ra, rb = find(first), find(w)
                if ra != rb:
                    parent[ra] = rb
    classes = {}
    for v in parent:
        classes.setdefault(find(v), set()).add(v)
    size_of = {root: -len(members) for root, members in classes.items()}
    for blocks, sizes in ((lblocks, lsizes), (rblocks, rsizes)):
        for b, s in zip(blocks, sizes):
            size_of[find(next(iter(b)))] += s
    new_pairs = sum(s * (s - 1) for s in size_of.values())
    old_pairs = sum(s * (s - 1) for s in lsizes) + sum(s * (s - 1) for s in rsizes)
    x_new = l_min + r_min + new_pairs - old_pairs
    if x_new > x:
        return None
    order = sorted(classes.values(), key=min)
    blocks = tuple(frozenset(members) for members in order)
    sizes = tuple(size_of[find(min(members))] for members in order)
    return (k_new, deleted, blocks, sizes), x_new


def _join_reference(left, right, k, x):
    out = {}
    for l_struct, (l_min, _) in left.entries.items():
        for r_struct, (r_min, _) in right.entries.items():
            if l_struct[1] != r_struct[1]:
                continue
            merged = _join_pair_reference(l_struct, l_min, r_struct, r_min, k, x)
            if merged is not None:
                struct, x_new = merged
                if x_new < out.get(struct, x + 1):
                    out[struct] = x_new
    return out


@settings(max_examples=80, deadline=None)
@given(graphs(min_n=1, max_n=8), st.integers(0, 2), st.integers(0, 8))
def test_join_matches_union_find_reference(g, k, x):
    ntd = make_nice(heuristic_decomposition(g))
    tables = compute_tables(g, ntd, k, x)
    # Any two tables over one bag can be joined: both children of every join
    # node, in both orders, and a few more same-bag pairs.
    pairs = set()
    by_bag: dict = {}
    for i, nd in enumerate(ntd.nodes):
        if nd.kind == "join":
            a, b = nd.children
            pairs |= {(a, b), (b, a)}
        by_bag.setdefault(nd.bag, []).append(i)
    for same in by_bag.values():
        pairs |= {(a, b) for a in same[:3] for b in same[:3]}
    for a, b in sorted(pairs):
        got = entry_values(join_table(tables[a], tables[b], k, x))
        assert got == _join_reference(tables[a], tables[b], k, x), (a, b)


def _tree_with_chords(n, chords, rng):
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    while len(edges) < n - 1 + chords:
        edges.add(tuple(sorted(rng.sample(range(n), 2))))
    return Graph.from_edges(n, edges)


def _pinned_graphs():
    rng = random.Random(20)
    sparse = random_graph(30, 33, rng)
    tree = _tree_with_chords(40, 3, rng)
    union, _ = disjoint_union(_tree_with_chords(s, 2, rng) for s in (4, 5, 6, 5))
    chain = _tree_with_chords(50, 1, rng)
    return {"sparse": (sparse, 3, 8), "tree": (tree, 3, 12), "union": (union, 2, 8),
            "chain": (chain, 3, 4)}


# WxStats of the four graphs above, which are shaped like the benchmark's
# auto-mix inputs. A change of table representation that adds or loses a
# structural key changes these counts.
PINNED_STATS = {
    "sparse": WxStats(node_count=107, width=3, max_table_structs=31,
                      max_table_expanded=178, total_structs=886),
    "tree": WxStats(node_count=147, width=2, max_table_structs=29,
                    max_table_expanded=237, total_structs=1164),
    "union": WxStats(node_count=48, width=2, max_table_structs=11,
                     max_table_expanded=62, total_structs=201),
    "chain": WxStats(node_count=185, width=2, max_table_structs=17,
                     max_table_expanded=65, total_structs=1042),
}


@pytest.mark.parametrize("name", sorted(PINNED_STATS))
def test_pinned_table_stats(name):
    g, k, x = _pinned_graphs()[name]
    assert solve_wx(g, k, x).stats == PINNED_STATS[name]


@st.composite
def random_trees(draw, max_n=12):
    n = draw(st.integers(1, max_n))
    edges = [(draw(st.integers(0, i - 1)), i) for i in range(1, n)]
    return Graph.from_edges(n, edges)


@given(graphs(max_n=5), st.integers(0, 3), st.integers(0, 10))
def test_agrees_with_oracle_small(g, k, x):
    dec = solve_wx(g, k, x)
    assert dec.answer == oracle_decides(g, k, x)
    if dec.answer:
        assert verify_solution(g, dec.cut.vertices, k, x)


@settings(max_examples=60, deadline=None)
@given(random_trees(), st.integers(0, 3), st.integers(0, 10))
def test_agrees_with_oracle_on_trees(g, k, x):
    dec = solve_wx(g, k, x)
    assert dec.answer == oracle_decides(g, k, x)


@settings(max_examples=60, deadline=None)
@given(graphs(min_n=1, max_n=6), st.integers(0, 2), st.integers(0, 6))
def test_table_internals(g, k, x):
    ntd = make_nice(heuristic_decomposition(g))
    tables = compute_tables(g, ntd, k, x)
    w = ntd.width
    bound = 10 * max(g.n, 1) * max(x, 1) * (w + x + 2) ** (w + 1)
    for t, nd in zip(tables, ntd.nodes):
        assert t.expanded_count() <= bound
        for key in t.expanded_keys():
            key.check()
        for k_used, deleted, blocks, sizes in t.entries:
            assert k_used <= k
            assert deleted <= nd.bag
            claimed = set(deleted)
            for b in blocks:
                assert b <= nd.bag
                assert claimed.isdisjoint(b)
                claimed |= b
        if nd.kind == "join":
            a, b = nd.children
            fwd = entry_values(join_table(tables[a], tables[b], k, x))
            rev = entry_values(join_table(tables[b], tables[a], k, x))
            assert fwd == rev
