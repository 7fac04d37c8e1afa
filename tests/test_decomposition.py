import pytest
from hypothesis import given, settings, strategies as st

from cncut.graph import (
    complete_graph,
    cycle_graph,
    disjoint_union,
    empty_graph,
    path_graph,
    star_graph,
)
from cncut.decomposition import (
    NiceNode,
    NiceTreeDecomposition,
    StructuralError,
    TreeDecomposition,
    _check_running_intersection,
    heuristic_decomposition,
    make_nice,
    nice_annotations,
    parse_td,
    serialize_td,
    validate_decomposition,
    validate_nice,
)

from .strategies import bag_trees, graphs

P3_BAGS = TreeDecomposition((frozenset({0, 1}), frozenset({1, 2})), ((0, 1),))


@pytest.mark.parametrize(
    "g,width",
    [
        (path_graph(3), 1),
        (path_graph(8), 1),
        (star_graph(5), 1),
        (complete_graph(4), 3),
        (cycle_graph(4), 2),
        (disjoint_union([path_graph(4), star_graph(3)])[0], 1),
    ],
)
def test_heuristic_widths(g, width):
    td = heuristic_decomposition(g)
    assert td.width == width
    assert validate_decomposition(g, td).ok


def test_heuristic_empty_graph():
    td = heuristic_decomposition(empty_graph(0))
    assert td.bags == () and td.tree_edges == ()
    assert validate_decomposition(empty_graph(0), td).ok
    assert validate_nice(empty_graph(0), make_nice(td)).ok


def test_heuristic_edgeless_uses_hub():
    g = empty_graph(3)
    td = heuristic_decomposition(g)
    assert td.width == 0
    assert frozenset() in td.bags
    assert validate_decomposition(g, td).ok


def test_validation_failures():
    g = path_graph(2)
    report = validate_decomposition(g, TreeDecomposition((frozenset({0}),), ()))
    assert not report.ok and report.condition == "1"

    report = validate_decomposition(
        g, TreeDecomposition((frozenset({0}), frozenset({1})), ((0, 1),))
    )
    assert not report.ok and report.condition == "2"

    bad_ri = TreeDecomposition(
        (frozenset({0, 1}), frozenset({2}), frozenset({1, 2})),
        ((0, 1), (1, 2)),
    )
    report = validate_decomposition(path_graph(3), bad_ri)
    assert not report.ok and report.condition == "3"

    report = validate_decomposition(
        g, TreeDecomposition((frozenset({0, 1}), frozenset({0, 1})), ())
    )
    assert not report.ok and report.condition == "shape"

    cyclic = TreeDecomposition(
        (frozenset({0, 1}), frozenset({0, 1}), frozenset({0, 1})),
        ((0, 1), (0, 1)),
    )
    report = validate_decomposition(g, cyclic)
    assert not report.ok and "cycle" in report.message

    report = validate_decomposition(empty_graph(0), TreeDecomposition((frozenset(),), ()))
    assert not report.ok and report.condition == "shape"

    report = validate_decomposition(g, TreeDecomposition((), ()))
    assert not report.ok and report.condition == "1"


def test_nice_single_bag_is_one_leaf():
    ntd = make_nice(TreeDecomposition((frozenset({0}),), ()))
    kinds = [nd.kind for nd in ntd.nodes]
    assert kinds == ["leaf", "forget"]
    assert ntd.nodes[ntd.root].bag == frozenset()


def test_nice_chain_two_bags():
    ntd = make_nice(P3_BAGS)
    kinds = [nd.kind for nd in ntd.nodes]
    assert kinds.count("leaf") == 1
    assert kinds.count("join") == 0
    assert validate_nice(path_graph(3), ntd).ok


def test_nice_star_binarizes_joins():
    td = TreeDecomposition(
        (frozenset({0}), frozenset({0, 1}), frozenset({0, 2}), frozenset({0, 3})),
        ((0, 1), (0, 2), (0, 3)),
    )
    ntd = make_nice(td)
    kinds = [nd.kind for nd in ntd.nodes]
    assert kinds.count("join") >= 2
    assert validate_nice(star_graph(3), ntd).ok
    assert ntd.width == td.width == 1


def test_validate_nice_failures():
    g = path_graph(2)
    bad_leaf = NiceTreeDecomposition((NiceNode("leaf", frozenset({0, 1}), 0, ()),))
    report = validate_nice(g, bad_leaf)
    assert not report.ok and report.condition == "4" and report.node == 0

    bad_intro = NiceTreeDecomposition(
        (
            NiceNode("leaf", frozenset({0}), 0, ()),
            NiceNode("introduce", frozenset({0, 1}), 2, (0,)),
        )
    )
    report = validate_nice(g, bad_intro)
    assert not report.ok and report.condition == "4"

    bad_forget = NiceTreeDecomposition(
        (
            NiceNode("leaf", frozenset({0}), 0, ()),
            NiceNode("forget", frozenset({0}), 1, (0,)),
        )
    )
    report = validate_nice(g, bad_forget)
    assert not report.ok and report.condition == "4"

    bad_join = NiceTreeDecomposition(
        (
            NiceNode("leaf", frozenset({0}), 0, ()),
            NiceNode("leaf", frozenset({1}), 1, ()),
            NiceNode("join", frozenset({0}), None, (0, 1)),
        )
    )
    report = validate_nice(g, bad_join)
    assert not report.ok and report.condition == "4"

    two_roots = NiceTreeDecomposition(
        (
            NiceNode("leaf", frozenset({0}), 0, ()),
            NiceNode("leaf", frozenset({1}), 1, ()),
        )
    )
    report = validate_nice(g, two_roots)
    assert not report.ok and report.condition == "shape"

    unknown = NiceTreeDecomposition((NiceNode("weird", frozenset({0}), 0, ()),))
    assert validate_nice(path_graph(1), unknown).condition == "4"

    report = validate_nice(empty_graph(0), unknown)
    assert not report.ok and report.condition == "shape"
    assert validate_nice(empty_graph(0), NiceTreeDecomposition(())).ok


def test_serialize_format():
    out = serialize_td(P3_BAGS, 3)
    assert out == "s td 2 2 3\nb 1 1 2\nb 2 2 3\n1 2\n"


def test_annotations_format():
    ntd = make_nice(TreeDecomposition((frozenset({0}),), ()))
    assert nice_annotations(ntd) == "c nice 1 leaf\nc nice 2 forget 1\nc nice-root 2\n"
    assert nice_annotations(NiceTreeDecomposition(())) == ""


def test_parse_round_trip():
    for g in (path_graph(5), complete_graph(4), empty_graph(3)):
        td = heuristic_decomposition(g)
        text = serialize_td(td, g.n)
        parsed, declared = parse_td(text)
        assert parsed == td
        assert declared == g.n


def test_parse_skips_comments_and_blanks():
    text = "c a comment\n\ns td 1 1 1\nc another\nb 1 1\n"
    td, n = parse_td(text)
    assert td.bags == (frozenset({0}),) and n == 1


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("s td 1 1 1\ns td 1 1 1\nb 1 1\n", "line 2: duplicate s-line"),
        ("s xx 1 1 1\n", "line 1: malformed s-line"),
        ("b 1 1\n", "line 1: b-line before s-line"),
        ("s td 1 1 2\nb 1 1\nb 1 2\n", "line 3: duplicate bag 1"),
        ("s td 1 1 1\nb 1 2\n", "line 2: bag vertex out of range"),
        ("s td 2 1 2\nb 1 1\nb 2 2\n1 2 3\n", "line 4: malformed tree edge"),
        ("c nothing here\n", "missing s-line"),
        ("s td 2 1 2\nb 1 1\n", "expected bags 1..2"),
        ("s td 2 1 2\nb 1 1\nb 2 2\n1 3\n", "tree edge (1,3) out of range"),
        ("s td x 2 3\n", "line 1: not an integer in 'x 2 3'"),
        ("s td 1 1 1\nb 1 a\n", "line 2: not an integer in '1 a'"),
        ("s td 1 1 1\nb\n", "line 2: b-line without a bag id"),
        ("s td 2 1 2\nb 1 1\nb 2 2\n1 x\n", "line 4: not an integer in '1 x'"),
    ],
)
def test_parse_errors(text, fragment):
    with pytest.raises(StructuralError) as exc:
        parse_td(text)
    assert fragment in str(exc.value)


@given(graphs(max_n=8))
def test_heuristic_always_validates(g):
    td = heuristic_decomposition(g)
    assert validate_decomposition(g, td).ok
    ntd = make_nice(td)
    assert validate_nice(g, ntd).ok
    assert ntd.width == td.width
    if g.n:
        assert ntd.nodes[ntd.root].bag == frozenset()
        assert len(ntd.nodes) <= 6 * (td.width + 2) * (len(td.bags) + 2)


def _min_fill_bags_reference(g):
    """Elimination bags with every vertex's fill-in recounted at every step."""
    adj = {v: set(g.neighbors(v)) for v in range(g.n)}
    bags = []
    while adj:
        def key(v):
            nb = sorted(adj[v])
            fill = sum(1 for i, a in enumerate(nb) for b in nb[i + 1:] if b not in adj[a])
            return fill, len(nb), v
        v = min(adj, key=key)
        nbrs = adj.pop(v)
        bags.append(frozenset(nbrs | {v}))
        for a in nbrs:
            adj[a] |= nbrs - {a}
            adj[a].discard(v)
    return bags


@settings(max_examples=60, deadline=None)
@given(graphs(max_n=12, max_m=30))
def test_heuristic_matches_full_recount(g):
    td = heuristic_decomposition(g)
    assert list(td.bags[:g.n]) == _min_fill_bags_reference(g)


@given(graphs(max_n=8))
def test_round_trip_any_heuristic(g):
    td = heuristic_decomposition(g)
    parsed, declared = parse_td(serialize_td(td, g.n))
    assert parsed == td and declared == g.n


def _running_intersection_reference(n, bags, edges):
    """The quadratic check: a union-find over the tree edges for each vertex."""
    for v in range(n):
        holding = [i for i, b in enumerate(bags) if v in b]
        if not holding:
            continue
        idx = {i: j for j, i in enumerate(holding)}
        parent = list(range(len(holding)))

        def find(a):
            while parent[a] != a:
                parent[a] = parent[parent[a]]
                a = parent[a]
            return a

        for a, b in edges:
            if a in idx and b in idx:
                ra, rb = find(idx[a]), find(idx[b])
                if ra != rb:
                    parent[ra] = rb
        if len({find(i) for i in range(len(holding))}) != 1:
            return f"bags holding vertex {v} are not connected in the tree"
    return None


def _conditions_reference(g, bags, edges):
    """Conditions 1-3 with every bag scanned for each edge; (condition, message)."""
    if set().union(*bags) != set(range(g.n)):
        return "1", "bags do not cover the vertex set"
    for u, v in g.edges:
        if not any(u in b and v in b for b in bags):
            return "2", f"edge ({u},{v}) in no bag"
    msg = _running_intersection_reference(g.n, [set(b) for b in bags], edges)
    return ("3", msg) if msg is not None else (None, "")


@given(bag_trees(), st.data())
def test_linear_checks_match_quadratic_reference(tree, data):
    n, td = tree
    expected = _running_intersection_reference(n, [set(b) for b in td.bags], td.tree_edges)
    assert _check_running_intersection(n, td.bags, td.tree_edges) == expected
    g = data.draw(graphs(min_n=n, max_n=n))
    report = validate_decomposition(g, td)
    assert (report.condition, report.message) == _conditions_reference(
        g, td.bags, td.tree_edges
    )
    assert report.ok == (report.condition is None)


@given(graphs(max_n=8))
def test_nice_bag_trees_match_quadratic_reference(g):
    ntd = make_nice(heuristic_decomposition(g))
    bags = [nd.bag for nd in ntd.nodes]
    edges = tuple((i, c) for i, nd in enumerate(ntd.nodes) for c in nd.children)
    assert _check_running_intersection(g.n, bags, edges) is None
    # Dropping one vertex from one bag can break condition 1, 2 or 3.
    for i, bag in enumerate(bags):
        for v in sorted(bag):
            cut = bags[:i] + [bag - {v}] + bags[i + 1:]
            expected = _running_intersection_reference(g.n, [set(b) for b in cut], edges)
            assert _check_running_intersection(g.n, cut, edges) == expected
            report = validate_decomposition(g, TreeDecomposition(tuple(cut), edges))
            assert (report.condition, report.message) == _conditions_reference(g, cut, edges)
