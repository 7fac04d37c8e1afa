import warnings
from math import comb

import pytest

from cncut.graph import (
    Graph,
    InputError,
    complete_graph,
    connected_pairs,
    cycle_graph,
    path_graph,
    remove_vertices,
    verify_solution,
)
from cncut.decomposition import validate_decomposition
from cncut.families import enumerate_graphs
from cncut.oracle import oracle_decides, oracle_max_removed_exact
from cncut.reductions import (
    CliqueInstance,
    GadgetSizes,
    MaterializationRefused,
    build_mcc_instance,
    cross_compose,
    forward_solution_cut,
    mcc_parameters,
    pairs_target,
    reduce_clique_bipartite,
    reduce_clique_split,
    reduce_clique_to_cnc,
)

from .reference import (
    component_size_census,
    degeneracy,
    empty_graph,
    has_clique,
    is_bipartite,
    mcc_direct_decomposition,
)

SMALL_SIZES = GadgetSizes(A=2, B=3, Cv=4, X=5, Y=6, Z=7)


def decide(out):
    # YES iff some cut of <= k vertices removes >= y pairs.
    x_eff = connected_pairs(out.graph) - out.y
    if x_eff < 0:
        return False
    return oracle_decides(out.graph, out.k, x_eff)


def test_triangle_source_worked_example():
    out = reduce_clique_to_cnc(CliqueInstance(complete_graph(3), 3))
    assert out.graph.n == 12
    assert out.graph.m == 18
    assert out.k == 3 and out.y == 132 and out.x is None
    assert out.roles.count("original") == 3
    assert out.roles.count("dummy") == 9
    assert connected_pairs(out.graph) == 132
    assert oracle_max_removed_exact(out.graph, 3).max_removed == 132
    assert decide(out)


def test_path_source_is_no():
    out = reduce_clique_to_cnc(CliqueInstance(path_graph(3), 3))
    assert out.graph.n == 9
    assert out.y == 114
    assert connected_pairs(out.graph) == 72
    assert not decide(out)


def test_single_edge_source_yes():
    out = reduce_clique_to_cnc(CliqueInstance(path_graph(2), 2))
    assert out.graph.n == 4
    assert out.y == 12
    assert decide(out)


def test_near_clique_source_is_no():
    g = Graph(5, frozenset(e for e in complete_graph(5).edges if e != (3, 4)))
    out = reduce_clique_to_cnc(CliqueInstance(g, 5))
    assert out.y == 2920
    assert connected_pairs(out.graph) == 2450
    assert not decide(out)


def test_chorded_cycle_has_no_four_clique():
    g = Graph.from_edges(5, list(cycle_graph(5).edges) + [(0, 2)])
    out = reduce_clique_to_cnc(CliqueInstance(g, 4))
    assert out.graph.n == 35
    assert out.y == 1190
    assert not decide(out)


def test_pendant_clique_source_yes():
    g = Graph.from_edges(5, list(complete_graph(4).edges) + [(0, 4)])
    out = reduce_clique_to_cnc(CliqueInstance(g, 4))
    assert out.graph.n == 40
    assert out.y == 1530
    assert decide(out)


@pytest.mark.parametrize(
    "n,big_n,k,want",
    [
        (3, 12, 3, 132),
        (2, 4, 2, 12),
        (3, 9, 3, 114),
        (5, 50, 5, 2920),
        (1, 2, 1, 2),
    ],
)
def test_pairs_target_values(n, big_n, k, want):
    assert pairs_target(n, big_n, k) == want


def test_gadget_structure_for_path_source():
    out = reduce_clique_to_cnc(CliqueInstance(path_graph(4), 2))
    h = out.graph
    assert h.n == 16
    assert h.m == 2 * 4 * 3 + 3
    # One block of n dummies per source edge, wired to exactly its endpoints.
    for block, (u, v) in enumerate([(0, 1), (1, 2), (2, 3)]):
        for d in range(4 + 4 * block, 8 + 4 * block):
            assert h.neighbors(d) == {u, v}
    # Source edges are replaced, source non-edges become direct edges.
    assert not h.has_edge(0, 1)
    for u, v in [(0, 2), (0, 3), (1, 3)]:
        assert h.has_edge(u, v)


def test_split_variant_structure():
    base = reduce_clique_to_cnc(CliqueInstance(path_graph(3), 3))
    out = reduce_clique_split(CliqueInstance(path_graph(3), 3))
    h = out.graph
    assert h.n == base.graph.n
    assert out.y == base.y == 114
    for u in range(3):
        for v in range(u + 1, 3):
            assert h.has_edge(u, v)
    dummies = [i for i, r in enumerate(out.roles) if r == "dummy"]
    for i, a in enumerate(dummies):
        for b in dummies[i + 1:]:
            assert not h.has_edge(a, b)


def test_bipartite_variant_structure():
    out = reduce_clique_bipartite(CliqueInstance(path_graph(3), 3))
    assert out.graph.n == 10
    assert out.roles.count("subdivision") == 1
    assert is_bipartite(out.graph)
    assert degeneracy(out.graph)[0] <= 2
    assert out.y == 120
    assert not decide(out)

    tri = reduce_clique_bipartite(CliqueInstance(complete_graph(3), 3))
    assert tri.graph.n == 12
    assert is_bipartite(tri.graph)
    assert decide(tri)


def test_small_sources_all_variants_track_clique_existence():
    for n in range(1, 5):
        for g in enumerate_graphs(n):
            for ell in range(1, n + 1):
                want = has_clique(g, ell)
                source = CliqueInstance(g, ell)
                for reducer in (
                    reduce_clique_to_cnc,
                    reduce_clique_split,
                    reduce_clique_bipartite,
                ):
                    assert decide(reducer(source)) == want, (n, sorted(g.edges), ell)


def test_cross_compose_two_triangles():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        out = cross_compose(
            [CliqueInstance(complete_graph(3), 3), CliqueInstance(complete_graph(3), 3)],
            3,
        )
    assert out.graph.n == 24
    assert out.k == 3 and out.y == 132
    assert out.notes["per_part_vertices"] == 12
    assert out.notes["spans"] == ((0, 11), (12, 23))
    assert len(out.roles) == 24
    assert decide(out)


def test_cross_compose_no_part_has_triangle():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        out = cross_compose(
            [CliqueInstance(path_graph(3), 3), CliqueInstance(path_graph(3), 3)], 3
        )
    assert out.y == 114
    assert not decide(out)


def test_cross_compose_warns_outside_assumed_regime():
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        cross_compose([CliqueInstance(complete_graph(3), 3)], 3)
    assert len(caught) == 1
    assert "ell" in str(caught[0].message)


def test_cross_compose_input_errors():
    with pytest.raises(InputError):
        cross_compose([], 3)
    with pytest.raises(InputError):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            cross_compose(
                [CliqueInstance(complete_graph(3), 3), CliqueInstance(path_graph(3), 3)],
                3,
            )


def test_clique_instance_validation():
    with pytest.raises(InputError):
        CliqueInstance(complete_graph(3), 0)
    with pytest.raises(InputError):
        CliqueInstance(complete_graph(3), 4)
    with pytest.raises(InputError):
        CliqueInstance(path_graph(2), 2, colors=(0,))
    with pytest.raises(InputError):
        CliqueInstance(path_graph(2), 2, colors=(0, 2))
    with pytest.raises(InputError):
        CliqueInstance(path_graph(2), 2, colors=(0, 0))


def test_has_clique():
    near = Graph(4, frozenset(e for e in complete_graph(4).edges if e != (2, 3)))
    assert has_clique(near, 3)
    assert not has_clique(near, 4)
    assert has_clique(empty_graph(2), 1)
    assert not has_clique(empty_graph(2), 2)
    assert has_clique(empty_graph(0), 0)


def test_mcc_reference_parameters():
    sizes = GadgetSizes.reference(2, 2)
    assert (sizes.A, sizes.B, sizes.Cv) == (4, 16, 128)
    assert (sizes.X, sizes.Y, sizes.Z) == (16, 512, 65536)
    params = mcc_parameters(2, 1, 2, sizes)
    assert params.k == 9
    assert params.treewidth_bound == 532


def test_mcc_reference_scale_refuses_to_materialize():
    source = CliqueInstance(path_graph(2), 2, colors=(0, 1))
    sizes = GadgetSizes.reference(2, 2)
    params = mcc_parameters(2, 1, 2, sizes)
    expected_total = (
        2 * params.vertex_gadget_size
        + params.edge_gadget_size
        + params.validation_clique_count * sizes.Cv
    )
    with pytest.raises(MaterializationRefused) as exc:
        build_mcc_instance(source, sizes)
    assert exc.value.cap == 100_000
    assert exc.value.total == expected_total


def test_mcc_small_two_vertex_build():
    source = CliqueInstance(path_graph(2), 2, colors=(0, 1))
    out, layout = build_mcc_instance(source, SMALL_SIZES)
    assert out.graph.n == layout.total == 138
    assert out.k == 5 and out.x == 3248 and out.y is None
    assert out.notes["component_census"] == ((8, 0), (6, 0), (29, 4))
    assert all(out.roles)
    assert len(layout.validation) == 4
    assert all(len(rng) == 4 for rng in layout.validation.values())
    guard_lengths = {
        key: len(rng) for key, rng in layout.selector_guard.items()
    }
    assert guard_lengths[(0, 1, "low")] == 7 + 1
    assert guard_lengths[(0, 1, "high")] == 7 + 4
    assert guard_lengths[(1, 0, "low")] == 7 + 2
    assert guard_lengths[(1, 0, "high")] == 7 + 3

    cut = forward_solution_cut(layout, [0, 1])
    assert len(cut.vertices) == out.k
    assert cut.residual_pairs == out.x
    assert verify_solution(out.graph, cut.vertices, out.k, out.x)
    h, _ = remove_vertices(out.graph, cut.vertices)
    assert connected_pairs(h) == out.x
    assert component_size_census(out.graph, cut.vertices) == {29: 4}


def test_mcc_three_vertex_build_and_decomposition():
    source = CliqueInstance(
        Graph.from_edges(3, [(0, 1), (1, 2)]), 2, colors=(0, 1, 0)
    )
    out, layout = build_mcc_instance(source, SMALL_SIZES)
    assert out.k == 23 and out.x == 3806

    cut = forward_solution_cut(layout, [0, 1])
    assert len(cut.vertices) == 23
    assert verify_solution(out.graph, cut.vertices, out.k, out.x)
    assert component_size_census(out.graph, cut.vertices) == {8: 1, 6: 1, 31: 4}

    td = mcc_direct_decomposition(layout)
    assert validate_decomposition(out.graph, td).ok
    assert td.width == 20
    assert td.width <= out.notes["treewidth_bound"] == 21


def test_forward_cut_rejects_bad_claims():
    source = CliqueInstance(
        Graph.from_edges(3, [(0, 1), (1, 2)]), 2, colors=(0, 1, 0)
    )
    _, layout = build_mcc_instance(source, SMALL_SIZES)
    with pytest.raises(InputError):
        forward_solution_cut(layout, [0])
    with pytest.raises(InputError):
        forward_solution_cut(layout, [0, 2])

    wide = CliqueInstance(
        Graph.from_edges(4, [(0, 1), (2, 3)]), 2, colors=(0, 1, 0, 1)
    )
    _, wide_layout = build_mcc_instance(wide, SMALL_SIZES)
    with pytest.raises(InputError, match="misses source edge"):
        forward_solution_cut(wide_layout, [0, 3])


def test_mcc_requires_colored_source():
    with pytest.raises(InputError):
        build_mcc_instance(CliqueInstance(path_graph(2), 2), SMALL_SIZES)


def test_gadget_sizes_must_be_positive():
    with pytest.raises(InputError):
        GadgetSizes(A=0, B=1, Cv=1, X=1, Y=1, Z=1)
