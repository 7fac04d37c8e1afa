from itertools import combinations
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from cncut.families import enumerate_graphs, random_graph
from cncut.graph import (
    Graph,
    InputError,
    complete_graph,
    connected_pairs,
    disjoint_union,
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
    stream_nice,
    validate_nice,
)
from cncut.oracle import oracle_decides
from cncut.treewidth_dp import (
    compute_tables,
    forget_table,
    introduce_table,
    join_table,
    leaf_table,
    WxStats,
    read_decision,
    solve_wx,
)

from .reference import (
    empty_graph,
    in_walk_order,
    nice_renumbering,
    reference_make_nice,
    reference_tables,
)
from .strategies import bag_trees, graphs

EMPTY = frozenset()


def mask(*vs):
    return sum(1 << v for v in vs)


def members(m):
    return [v for v in range(m.bit_length()) if m >> v & 1]


def entry_values(table):
    return {struct: held[0] for struct, held in table.items()}


def max_expanded(tables, x):
    """The most keys any table would hold as the full feasible set, x - x' + 1 per entry."""
    return max((sum(x - min_x + 1 for min_x, _ in t.values()) for t in tables), default=0)


def test_leaf_keys():
    t = leaf_table(4, 1)
    assert entry_values(t) == {
        (0, 0, ((mask(4), 1),)): 0,
        (1, mask(4), ()): 0,
    }


def test_leaf_zero_budget_only_keeps():
    t = leaf_table(4, 0)
    assert entry_values(t) == {(0, 0, ((mask(4), 1),)): 0}


def test_leaf_larger_x_same_structs():
    # Vertex 0 of an edgeless graph has no dominator, so k = 1 lets it go.
    g, leaf = Graph(5, ()), (NiceNode("leaf", frozenset({0}), 0, ()),)
    tight, loose = compute_tables(g, leaf, 1, 0), compute_tables(g, leaf, 1, 5)
    assert tight == loose
    assert len(tight[0]) == len(loose[0]) == 2
    assert max_expanded(tight, 0) == 2
    assert max_expanded(loose, 5) == 12


def test_introduce_with_edge_charges_pairs():
    child = leaf_table(0, 1)
    t = introduce_table(child, 1, mask(0), 1, 4)
    assert entry_values(t) == {
        (0, 0, ((mask(0, 1), 2),)): 2,
        (1, mask(1), ((mask(0), 1),)): 0,
        (1, mask(0), ((mask(1), 1),)): 0,
    }
    # Budget 0, as compute_tables gives a vertex the domination rule filters:
    # the child may have deleted, but vertex 1 is not deleted.
    t = introduce_table(child, 1, mask(0), 0, 4)
    assert entry_values(t) == {
        (0, 0, ((mask(0, 1), 2),)): 2,
        (1, mask(0), ((mask(1), 1),)): 0,
    }


def test_introduce_without_edge_adds_singleton_block():
    child = leaf_table(0, 0)
    t = introduce_table(child, 1, 0, 0, 4)
    assert entry_values(t) == {
        (0, 0, ((mask(0), 1), (mask(1), 1))): 0,
    }


def test_introduce_merging_two_blocks():
    child = {(0, 0, ((mask(0), 1), (mask(2), 1))): (0, 0)}
    t = introduce_table(child, 1, mask(0, 2), 0, 10)
    # Two size-1 components fuse through the new vertex: 6 new pairs.
    assert entry_values(t) == {(0, 0, ((mask(0, 1, 2), 3),)): 6}


def test_introduce_prunes_past_cap():
    child = leaf_table(0, 1)
    t = introduce_table(child, 1, mask(0), 1, 1)
    assert (0, 0, ((mask(0, 1), 2),)) not in t


def test_forget_shrinks_blocks():
    child = {(0, 0, ((mask(0, 1), 2),)): (2, 0), (1, mask(0), ((mask(1), 1),)): (0, 0)}
    t = forget_table(child, 0)
    assert entry_values(t) == {
        (0, 0, ((mask(1), 2),)): 2,
        (1, 0, ((mask(1), 1),)): 0,
    }


def test_forget_keeps_blocks_in_mask_order():
    child = {(0, 0, ((mask(1), 1), (mask(0, 2), 2))): (2, 0)}
    t = forget_table(child, 2)
    # Without vertex 2, block {0} sorts before block {1}.
    assert entry_values(t) == {(0, 0, ((mask(0), 2), (mask(1), 1))): 2}


def test_forget_finalizes_emptied_block():
    child = {(0, 0, ((mask(0), 3),)): (6, 0)}
    t = forget_table(child, 0)
    assert entry_values(t) == {(0, 0, ()): 6}


def test_join_identity_on_shared_vertex():
    a = {(0, 0, ((mask(7), 1),)): (0, 0)}
    t = join_table(a, a, 3, 10)
    assert entry_values(t) == {(0, 0, ((mask(7), 1),)): 0}


def test_join_block_fusion_counts_once():
    left = {(0, 0, ((mask(0, 1), 2),)): (2, 0)}
    right = {(0, 0, ((mask(0), 1), (mask(1), 1))): (0, 0)}
    t = join_table(left, right, 3, 10)
    assert entry_values(t) == {(0, 0, ((mask(0, 1), 2),)): 2}


def test_join_shared_deletions_counted_once():
    side = {(1, mask(0), ()): (0, 0)}
    t = join_table(side, side, 1, 10)
    assert entry_values(t) == {(1, mask(0), ()): 0}
    assert len(join_table(side, side, 0, 10)) == 0


def test_join_requires_matching_deleted_sets():
    left = {(1, mask(0), ()): (0, 0)}
    right = {(0, 0, ((mask(0), 1),)): (0, 0)}
    assert len(join_table(left, right, 3, 10)) == 0


def test_join_size_arithmetic_with_forgotten_vertices():
    left = {(0, 0, ((mask(0, 1), 3),)): (6, 0)}
    right = {(0, 0, ((mask(0), 2), (mask(1), 2))): (4, 0)}
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


def test_solve_k2_deletes_the_twin_that_ranks_above():
    # Each end of K2 dominates the other. The rank tie-break leaves vertex 0
    # deletable; counting every dominator would filter both and answer NO.
    dec = solve_wx(complete_graph(2), 1, 0)
    assert dec.answer and dec.cut.vertices == frozenset({0})


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


def test_supplied_form_is_checked_even_when_the_bound_is_already_met():
    # path_graph(3) has 6 pairs, so x = 6 is met by the empty cut; the
    # one-bag form still misses vertices 1 and 2, and is rejected first.
    ntd = make_nice(TreeDecomposition((frozenset({0}),), ()))
    with pytest.raises(StructuralError, match="condition 1"):
        solve_wx(path_graph(3), 1, 6, ntd=ntd)


def test_solve_takes_a_decomposition_only_as_a_checked_nice_form():
    # Only the graph's own min-fill decomposition is used unchecked: a plain
    # tree decomposition cannot be passed by name or by position, and one
    # that misses an edge is rejected once made nice.
    bad = heuristic_decomposition(Graph(3, ()))
    with pytest.raises(TypeError):
        solve_wx(path_graph(3), 1, 1, td=bad)
    with pytest.raises(TypeError):
        solve_wx(path_graph(3), 1, 1, None, bad)
    with pytest.raises(StructuralError, match="condition 2"):
        solve_wx(path_graph(3), 1, 1, ntd=make_nice(bad))


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
        compute_tables(path_graph(1), ntd.nodes, 1, 2)


def test_root_entries_are_certificates():
    # Every root entry, not only the one read_decision picks, carries a cut
    # of exactly k_used vertices that leaves exactly its x' pairs. Only the
    # walks that reach the root have one; the quarter-of-all-pairs cell of
    # each random graph always does.
    cases = [(g, k, x) for n in range(1, 7) for g in enumerate_graphs(n)
             for k, x in ((1, 2), (2, 5), (3, 10))]
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randrange(8, 20)
        g = random_graph(n, rng.randrange(n - 4, n + 2), rng)
        cases.append((g, rng.randrange(1, 4), rng.randrange(10, 40)))
        cases.append((g, 3, connected_pairs(g) // 4))
    checked = 0
    for g, k, x in cases:
        ntd = make_nice(heuristic_decomposition(g))
        tables = compute_tables(g, ntd.nodes, k, x)
        if len(tables) < len(ntd.nodes):
            continue
        root = tables[ntd.root]
        for (k_used, deleted, blocks), (min_x, cut) in root.items():
            assert (deleted, blocks) == (0, ())
            assert cut.bit_count() == k_used
            report = verify_solution(g, members(cut), k_used, min_x)
            assert report.residual_pairs == min_x, (g, k, x, k_used)
            checked += 1
    assert checked > 800


def test_read_decision_thresholds():
    g = path_graph(4)
    ntd = make_nice(heuristic_decomposition(g))
    tables = compute_tables(g, ntd.nodes, 1, 2)
    assert read_decision(tables, 1, 2) is not None
    assert read_decision(tables, 0, 2) is None
    assert read_decision(tables, 1, 1) is None


def test_tables_stop_at_the_first_empty_one():
    # K4 with k = 1 and x = 2 is NO: a table below the root comes out empty,
    # the walk ends with it, and read_decision answers NO at every smaller
    # budget too.
    g = complete_graph(4)
    ntd = make_nice(heuristic_decomposition(g))
    tables = compute_tables(g, ntd.nodes, 1, 2)
    assert len(tables) < len(ntd.nodes)
    assert not tables[-1] and all(tables[:-1])
    assert read_decision(tables, 1, 2) is None
    assert read_decision(tables, 0, 0) is None
    stats = solve_wx(g, 1, 2).stats
    assert (stats.tables_built, stats.node_count) == (len(tables), len(ntd.nodes))
    # A YES instance builds every table.
    stats = solve_wx(path_graph(4), 1, 2).stats
    assert stats.tables_built == stats.node_count


@settings(max_examples=200, deadline=None)
@given(graphs(max_n=8), st.integers(0, 3), st.integers(0, 12))
def test_early_stop_matches_oracle_and_full_tables(g, k, x):
    # The early NO is the oracle's answer, and the walk stops before the
    # root only where the full tables, with every vertex deletable and no
    # stop, hold no root entry within the budgets.
    dec = solve_wx(g, k, x)
    assert dec.answer == oracle_decides(g, k, x)
    ntd = make_nice(heuristic_decomposition(g))
    if len(compute_tables(g, ntd.nodes, k, x)) < len(ntd.nodes):
        root = reference_tables(g, ntd, k, x)[ntd.root]
        assert not [struct for struct, (min_x, _) in root.items()
                    if struct[0] <= k and min_x <= x]


@settings(max_examples=200, deadline=None)
@given(graphs(max_n=8), st.integers(0, 3), st.integers(0, 12))
def test_walk_builds_the_index_order_tables(g, k, x):
    # make_nice emits the former form renumbered in walk order, and a rule
    # reads only its children's tables, so compute_tables builds, at each
    # node it reaches, the table that dp-wx's former loop built at the same
    # node in the former index order, carried cuts included, and it reaches
    # the root exactly when that loop does.
    td = heuristic_decomposition(g)
    ntd, old = make_nice(td), reference_make_nice(td)
    assume(ntd.nodes)  # the empty graph's form has no root
    new_id = nice_renumbering(old, ntd)
    assert new_id is not None
    tables = compute_tables(g, ntd.nodes, k, x)
    full = reference_tables(g, old, k, x, dominated=True)
    for i, t in new_id.items():
        if t < len(tables):
            assert tables[t] == full[i], i
    index_order = reference_tables(g, old, k, x, dominated=True, stop=True)
    reached = len(tables) == len(ntd.nodes)
    assert reached == (old.root < len(index_order))
    if reached:
        assert tables[ntd.root] == index_order[old.root]
    # The walk is the former one: children first, each subtree in one run of
    # ids, and at a join the child with more forgets below it first.
    assert in_walk_order(ntd)
    # Only the last table built may be empty.
    assert all(tables[:-1])


@pytest.mark.parametrize("g, k, x, answer", [
    (random_graph(10, 12, random.Random(17)), 1, 4, False),
    (random_graph(30, 33, random.Random(1)), 3, 150, True),
])
def test_solve_reads_its_stats_and_certificate_off_the_tables(g, k, x, answer):
    # solve_wx's stats are the counts of the tables compute_tables returns
    # on the same streamed form, an early NO's included, and a YES cut is
    # the root entry read_decision picks.
    node_count, width, nodes = stream_nice(g.heuristic_td)
    tables = compute_tables(g, nodes, k, x)
    dec = solve_wx(g, k, x)
    assert dec.answer == answer
    assert (len(tables) < node_count) == (not answer)
    assert dec.stats == WxStats(
        node_count=node_count,
        tables_built=len(tables),
        width=width,
        max_table_structs=max(map(len, tables)),
        total_structs=sum(map(len, tables)),
    )
    if answer:
        _, cut = tables[-1][read_decision(tables, k, x)]
        assert dec.cut.vertices == frozenset(members(cut))


def test_walk_stops_sooner_than_index_order():
    # A NO instance whose former index-order loop built 18 of 36 tables
    # before the first empty one; the heavier subtree empties after 5.
    g = random_graph(10, 12, random.Random(17))
    td = heuristic_decomposition(g)
    ntd = make_nice(td)
    tables = compute_tables(g, ntd.nodes, 1, 4)
    assert len(reference_tables(g, reference_make_nice(td), 1, 4, dominated=True, stop=True)) == 18
    assert (len(ntd.nodes), len(tables)) == (36, 5)
    assert not tables[-1]
    dec = solve_wx(g, 1, 4)
    assert not dec.answer and dec.stats.tables_built == 5


def test_solve_builds_no_node_past_the_first_empty_table(monkeypatch):
    # An early NO: solve_wx draws from its own form's emitter exactly the
    # nodes whose tables it builds, and still reports the whole form's node
    # count and width.
    from cncut import treewidth_dp

    drawn = []

    def counted(td):
        form = stream_nice(td)

        def nodes():
            for nd in form.nodes:
                drawn.append(nd)
                yield nd
        return form._replace(nodes=nodes())

    monkeypatch.setattr(treewidth_dp, "stream_nice", counted)
    g = random_graph(30, 33, random.Random(1))
    dec = solve_wx(g, 3, 8)
    ntd = make_nice(heuristic_decomposition(g))
    assert not dec.answer
    assert len(drawn) == dec.stats.tables_built < dec.stats.node_count == len(ntd.nodes)
    assert dec.stats.width == ntd.width
    assert tuple(drawn) == ntd.nodes[:len(drawn)]


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
    for l_struct, (l_min, _) in left.items():
        for r_struct, (r_min, _) in right.items():
            if l_struct[1] != r_struct[1]:
                continue
            merged = _join_pair_reference(l_struct, l_min, r_struct, r_min, k, x)
            if merged is not None:
                struct, x_new = merged
                if x_new < out.get(struct, x + 1):
                    out[struct] = x_new
    return out


def _forget_reference(child, v):
    out = {}
    for (k_used, deleted, blocks), (min_x, _) in child.items():
        blocks = [(b & ~(1 << v), s) for b, s in blocks]
        struct = (k_used, deleted & ~(1 << v), tuple(sorted((b, s) for b, s in blocks if b)))
        out[struct] = min(min_x, out.get(struct, min_x))
    return out


@settings(max_examples=150, deadline=None)
@given(_nice_decompositions(), st.integers(0, 3), st.integers(0, 10))
def test_tables_keep_the_least_entry_within_the_budgets(case, k, x):
    # The tables hold no cap test: every entry of every table already has
    # k' <= k and x' <= x. Where a forget or a join reaches one key from two
    # child entries, its table keeps the least x'.
    g, ntd = case
    assume(validate_nice(g, ntd).ok)
    tables = compute_tables(g, ntd.nodes, k, x)
    for table, nd in zip(tables, ntd.nodes):
        assert all(k_used <= k and min_x <= x for (k_used, _, _), (min_x, _) in table.items())
        if nd.kind == "forget":
            assert entry_values(table) == _forget_reference(tables[nd.children[0]], nd.vertex)
        elif nd.kind == "join":
            a, b = nd.children
            assert entry_values(table) == _join_reference(tables[a], tables[b], k, x)


@settings(max_examples=80, deadline=None)
@given(graphs(min_n=1, max_n=8), st.integers(0, 2), st.integers(0, 8))
def test_join_matches_union_find_reference(g, k, x):
    ntd = make_nice(heuristic_decomposition(g))
    tables = compute_tables(g, ntd.nodes, k, x)
    # Any two built tables over one bag can be joined: both children of every
    # join node, in both orders, and a few more same-bag pairs.
    pairs = set()
    by_bag: dict = {}
    for i in range(len(tables)):
        nd = ntd.nodes[i]
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
# structural key changes these counts, and so do a change of the nice
# form's node list and one of the vertices dp-wx may delete (the domination
# rule of `Graph.dominators`). All four are NO, so the tables stop at
# the first empty one: `tables_built` is where, and the other counts cover
# only the tables built. So a change of the order `compute_tables` walks the
# nodes in moves them too.
PINNED_STATS = {
    "sparse": WxStats(node_count=106, tables_built=35, width=3, max_table_structs=23,
                      total_structs=303),
    "tree": WxStats(node_count=144, tables_built=53, width=2, max_table_structs=22,
                    total_structs=469),
    "union": WxStats(node_count=47, tables_built=27, width=2, max_table_structs=6,
                     total_structs=91),
    "chain": WxStats(node_count=179, tables_built=39, width=2, max_table_structs=17,
                     total_structs=240),
}


@pytest.mark.parametrize("name", sorted(PINNED_STATS))
def test_pinned_table_stats(name):
    g, k, x = _pinned_graphs()[name]
    dec = solve_wx(g, k, x)
    assert not dec.answer
    assert dec.stats == PINNED_STATS[name]


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


def _forest(n, rng):
    return Graph.from_edges(n, [(rng.randrange(v), v) for v in range(1, n) if rng.random() < 0.8])


def test_agrees_with_oracle_on_seeded_graphs():
    # Larger than the drawn graphs, so that many vertices are dominated and
    # the budget filters some of them at every k.
    rng = random.Random(24)
    checked = 0
    for n in range(10, 15):
        for g in (random_graph(n, n + 3, rng), _forest(n, rng),
                  _tree_with_chords(n, 1, rng), _tree_with_chords(n, 3, rng)):
            total = connected_pairs(g)
            for k in range(5):
                for x in sorted({0, total // 8, total // 3}):
                    dec = solve_wx(g, k, x)
                    assert dec.answer == oracle_decides(g, k, x), (g, k, x)
                    if dec.answer:
                        assert verify_solution(g, dec.cut.vertices, k, x)
                    checked += 1
    assert checked == 300


def _check_table_internals(g, k, x):
    ntd = make_nice(heuristic_decomposition(g))
    tables = compute_tables(g, ntd.nodes, k, x)
    w = ntd.width
    bound = 10 * max(g.n, 1) * max(x, 1) * (w + x + 2) ** (w + 1)
    assert max_expanded(tables, x) <= bound
    for i, t in enumerate(tables):
        nd = ntd.nodes[i]
        bag = mask(*nd.bag)
        for (k_used, deleted, blocks), (min_x, cut) in t.items():
            assert k_used <= k
            assert deleted & ~bag == 0
            # The carried cut has k_used vertices and meets the bag in deleted.
            assert cut.bit_count() == k_used and cut & bag == deleted
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
