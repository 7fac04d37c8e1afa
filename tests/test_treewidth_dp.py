from itertools import combinations
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

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
    validate_nice,
)
from cncut.oracle import oracle_decides
from cncut.treewidth_dp import (
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

from .strategies import bag_trees, graphs

EMPTY = frozenset()


def mask(*vs):
    return sum(1 << v for v in vs)


def members(m):
    return [v for v in range(m.bit_length()) if m >> v & 1]


def entry_values(table):
    return {struct: held[0] for struct, held in table.entries.items()}


def test_leaf_keys():
    t = leaf_table(4, 1, 0)
    assert entry_values(t) == {
        (0, 0, ((mask(4), 1),)): 0,
        (1, mask(4), ()): 0,
    }


def test_leaf_zero_budget_only_keeps():
    t = leaf_table(4, 0, 0)
    assert entry_values(t) == {(0, 0, ((mask(4), 1),)): 0}


def test_leaf_larger_x_same_structs():
    tight = leaf_table(4, 1, 0)
    loose = leaf_table(4, 1, 5)
    assert set(tight.entries) == set(loose.entries)
    assert tight.expanded_count() == 2
    assert loose.expanded_count() == 12


def test_offer_keeps_minimum_and_respects_cap():
    t = DpTable(5)
    s = (0, 0, ())
    t.offer(s, 4, ("a",))
    t.offer(s, 2, ("b",))
    t.offer(s, 3, ("c",))
    assert t.entries[s] == (2, ("b",))
    t.offer((1, 0, ()), 6, ("d",))
    assert len(t) == 1


def test_introduce_with_edge_charges_pairs():
    child = leaf_table(0, 1, 4)
    t = introduce_table(child, 1, mask(0), 1, 4)
    assert entry_values(t) == {
        (0, 0, ((mask(0, 1), 2),)): 2,
        (1, mask(1), ((mask(0), 1),)): 0,
        (1, mask(0), ((mask(1), 1),)): 0,
    }


def test_introduce_without_edge_adds_singleton_block():
    child = leaf_table(0, 0, 4)
    t = introduce_table(child, 1, 0, 0, 4)
    assert entry_values(t) == {
        (0, 0, ((mask(0), 1), (mask(1), 1))): 0,
    }


def test_introduce_merging_two_blocks():
    child = DpTable(10)
    child.offer((0, 0, ((mask(0), 1), (mask(2), 1))), 0, ("t",))
    t = introduce_table(child, 1, mask(0, 2), 0, 10)
    # Two size-1 components fuse through the new vertex: 6 new pairs.
    assert entry_values(t) == {(0, 0, ((mask(0, 1, 2), 3),)): 6}


def test_introduce_prunes_past_cap():
    child = leaf_table(0, 1, 1)
    t = introduce_table(child, 1, mask(0), 1, 1)
    assert (0, 0, ((mask(0, 1), 2),)) not in t.entries


def test_forget_shrinks_blocks():
    child = DpTable(10)
    child.offer((0, 0, ((mask(0, 1), 2),)), 2, ("t",))
    child.offer((1, mask(0), ((mask(1), 1),)), 0, ("t",))
    t = forget_table(child, 0)
    assert entry_values(t) == {
        (0, 0, ((mask(1), 2),)): 2,
        (1, 0, ((mask(1), 1),)): 0,
    }


def test_forget_keeps_blocks_in_mask_order():
    child = DpTable(10)
    child.offer((0, 0, ((mask(1), 1), (mask(0, 2), 2))), 2, ("t",))
    t = forget_table(child, 2)
    # Without vertex 2, block {0} sorts before block {1}.
    assert entry_values(t) == {(0, 0, ((mask(0), 2), (mask(1), 1))): 2}


def test_forget_finalizes_emptied_block():
    child = DpTable(10)
    child.offer((0, 0, ((mask(0), 3),)), 6, ("t",))
    t = forget_table(child, 0)
    assert entry_values(t) == {(0, 0, ()): 6}


def test_join_identity_on_shared_vertex():
    a = DpTable(10)
    a.offer((0, 0, ((mask(7), 1),)), 0, ("t",))
    t = join_table(a, a, 3, 10)
    assert entry_values(t) == {(0, 0, ((mask(7), 1),)): 0}


def test_join_block_fusion_counts_once():
    left = DpTable(10)
    left.offer((0, 0, ((mask(0, 1), 2),)), 2, ("t",))
    right = DpTable(10)
    right.offer((0, 0, ((mask(0), 1), (mask(1), 1))), 0, ("t",))
    t = join_table(left, right, 3, 10)
    assert entry_values(t) == {(0, 0, ((mask(0, 1), 2),)): 2}


def test_join_shared_deletions_counted_once():
    side = DpTable(10)
    side.offer((1, mask(0), ()), 0, ("t",))
    t = join_table(side, side, 1, 10)
    assert entry_values(t) == {(1, mask(0), ()): 0}
    assert len(join_table(side, side, 0, 10)) == 0


def test_join_requires_matching_deleted_sets():
    left = DpTable(10)
    left.offer((1, mask(0), ()), 0, ("t",))
    right = DpTable(10)
    right.offer((0, 0, ((mask(0), 1),)), 0, ("t",))
    assert len(join_table(left, right, 3, 10)) == 0


def test_join_size_arithmetic_with_forgotten_vertices():
    left = DpTable(20)
    left.offer((0, 0, ((mask(0, 1), 3),)), 6, ("t",))
    right = DpTable(20)
    right.offer((0, 0, ((mask(0), 2), (mask(1), 2))), 4, ("t",))
    t = join_table(left, right, 3, 20)
    assert entry_values(t) == {(0, 0, ((mask(0, 1), 5),)): 20}
    assert len(join_table(left, right, 3, 19)) == 0


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
    # 1 is introduced after its neighbor 0 was forgotten, so edge {0, 1} lies
    # in no bag. compute_tables assumes a valid decomposition and never sees
    # this one: solve_wx rejects it first. At x = 2 the instance is settled
    # before validation, so x = 0 here.
    ntd = NiceTreeDecomposition(
        (
            NiceNode("leaf", frozenset({0}), 0, ()),
            NiceNode("forget", EMPTY, 0, (0,)),
            NiceNode("introduce", frozenset({1}), 1, (1,)),
            NiceNode("forget", EMPTY, 1, (2,)),
        )
    )
    with pytest.raises(StructuralError, match="condition 2"):
        solve_wx(path_graph(2), 1, 0, ntd=ntd)


@st.composite
def _nice_decompositions(draw):
    """A graph with a nice decomposition: from the heuristic, or from a bag tree.

    A bag tree's vertices are renamed 0..m-1 and its edges are drawn among
    pairs that share a bag, so only condition 3 can fail.
    """
    if draw(st.booleans()):
        g = draw(graphs(max_n=8))
        return g, make_nice(heuristic_decomposition(g))
    _, td = draw(bag_trees())
    rename = {v: i for i, v in enumerate(sorted(frozenset().union(*td.bags)))}
    bags = tuple(frozenset(rename[v] for v in b) for b in td.bags)
    pairs = sorted({p for b in bags for p in combinations(sorted(b), 2)})
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    g = Graph(len(rename), edges)
    return g, make_nice(TreeDecomposition(bags, td.tree_edges))


@given(_nice_decompositions())
def test_validated_introduce_sees_all_subtree_neighbors(case):
    # The assumption in compute_tables' docstring: past validate_nice, an
    # introduced vertex's neighbors in the child's subtree lie in the child bag.
    g, ntd = case
    assume(validate_nice(g, ntd).ok)
    below: list[frozenset[int]] = []
    for nd in ntd.nodes:
        verts = nd.bag.union(*(below[c] for c in nd.children))
        if nd.kind == "introduce":
            child = nd.children[0]
            assert g.neighbors(nd.vertex) & below[child] <= ntd.nodes[child].bag
        below.append(verts)


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


def _join_pair_reference(l_struct, l_min, r_struct, r_min, k, x):
    """Union-find over the bag vertices of both sides' blocks."""
    lk, deleted, lblocks = l_struct
    rk, _, rblocks = r_struct
    k_new = lk + rk - deleted.bit_count()
    if k_new > k:
        return None
    parent = {}

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for blocks in (lblocks, rblocks):
        for b, _ in blocks:
            first, *others = members(b)
            parent.setdefault(first, first)
            for w in others:
                parent.setdefault(w, w)
                ra, rb = find(first), find(w)
                if ra != rb:
                    parent[ra] = rb
    classes = {}
    for v in parent:
        root = find(v)
        classes[root] = classes.get(root, 0) | 1 << v
    size_of = {root: -m.bit_count() for root, m in classes.items()}
    for blocks in (lblocks, rblocks):
        for b, s in blocks:
            size_of[find(members(b)[0])] += s
    new_pairs = sum(s * (s - 1) for s in size_of.values())
    old_pairs = sum(s * (s - 1) for blocks in (lblocks, rblocks) for _, s in blocks)
    x_new = l_min + r_min + new_pairs - old_pairs
    if x_new > x:
        return None
    blocks = tuple(sorted((m, size_of[root]) for root, m in classes.items()))
    return (k_new, deleted, blocks), x_new


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


def _check_table_internals(g, k, x):
    ntd = make_nice(heuristic_decomposition(g))
    tables = compute_tables(g, ntd, k, x)
    w = ntd.width
    bound = 10 * max(g.n, 1) * max(x, 1) * (w + x + 2) ** (w + 1)
    for t, nd in zip(tables, ntd.nodes):
        assert t.expanded_count() <= bound
        bag = mask(*nd.bag)
        for (k_used, deleted, blocks), (min_x, _) in t.entries.items():
            assert k_used <= k
            assert deleted & ~bag == 0
            # Blocks sorted by mask, non-zero, pairwise disjoint, inside the
            # bag and apart from the deleted set, which they complete to the
            # bag; each block's true size covers its bag vertices and its
            # own pairs.
            masks = [b for b, _ in blocks]
            assert masks == sorted(masks)
            claimed = deleted
            for b, s in blocks:
                assert b != 0
                assert b & ~bag == 0
                assert b & claimed == 0
                claimed |= b
                assert s >= b.bit_count() and s * (s - 1) <= min_x
            assert claimed == bag
        if nd.kind == "join":
            a, b = nd.children
            fwd = entry_values(join_table(tables[a], tables[b], k, x))
            rev = entry_values(join_table(tables[b], tables[a], k, x))
            assert fwd == rev


@settings(max_examples=60, deadline=None)
@given(graphs(min_n=1, max_n=6), st.integers(0, 2), st.integers(0, 6))
def test_table_internals(g, k, x):
    _check_table_internals(g, k, x)


@pytest.mark.parametrize("name", sorted(PINNED_STATS))
def test_table_internals_on_pinned_graphs(name):
    # Larger than the drawn graphs: here introduce and forget often move a
    # block out of mask order, so a missing re-sort shows.
    _check_table_internals(*_pinned_graphs()[name])
