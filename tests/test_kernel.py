import pytest
from hypothesis import given, settings, strategies as st

from cncut.graph import (
    Graph,
    InputError,
    cycle_graph,
    disjoint_union,
    star_graph,
)
from cncut.kernel import high_degree_rule, kernel_bound_holds, kernelize_kx
from cncut.oracle import oracle_decides

from .reference import reference_kernelize
from .strategies import graphs


def test_star_center_forced_to_empty_kernel():
    trace = kernelize_kx(star_graph(5), 1, 0)
    assert trace.forced_vertices == (0,)
    assert trace.discarded_isolated == (1, 2, 3, 4, 5)
    assert trace.k_out == 0
    assert trace.kernel_graph.n == 0
    assert not trace.infeasible


def test_cycle_untouched():
    g = cycle_graph(4)
    trace = kernelize_kx(g, 1, 2)
    assert trace.forced_vertices == ()
    assert trace.discarded_isolated == ()
    assert trace.k_out == 1
    assert trace.kernel_graph.edges == g.edges
    assert trace.kernel_to_original == (0, 1, 2, 3)


def test_star_with_extra_edge():
    # Center forced, leaves fall off as isolated, one edge survives.
    g = Graph.from_edges(8, [(0, i) for i in range(1, 8)] + [(1, 2)])
    trace = kernelize_kx(g, 2, 0)
    assert trace.forced_vertices == (0,)
    assert trace.discarded_isolated == (3, 4, 5, 6, 7)
    assert trace.k_out == 1
    assert trace.kernel_graph.n == 2 and trace.kernel_graph.m == 1
    assert trace.kernel_to_original == (1, 2)


def test_threshold_is_strict():
    # degree 3, budget 1: (3 - 1)^2 == 4 does not beat x = 4.
    trace = kernelize_kx(star_graph(3), 1, 4)
    assert trace.forced_vertices == ()
    assert trace.k_out == 1


def test_forcing_cascades_as_budget_shrinks():
    g = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
    trace = kernelize_kx(g, 2, 0)
    assert trace.forced_vertices == (0, 1)
    assert trace.k_out == 0
    assert trace.kernel_graph.n == 0
    assert not trace.infeasible


def test_smallest_id_forced_first():
    g, _ = disjoint_union([star_graph(3), star_graph(3)])
    trace = kernelize_kx(g, 2, 0)
    assert trace.forced_vertices == (0, 4)


def test_infeasible_when_budget_runs_out():
    g, _ = disjoint_union([star_graph(5), star_graph(5)])
    trace = kernelize_kx(g, 1, 0)
    assert trace.infeasible
    assert trace.forced_vertices == (0,)
    assert trace.k_out == 0


def test_rejects_negative_parameters():
    with pytest.raises(InputError):
        kernelize_kx(star_graph(3), -1, 0)
    with pytest.raises(InputError):
        kernelize_kx(star_graph(3), 1, -1)


@pytest.mark.parametrize(
    "n,k,x,ok",
    [
        (5, 1, 9, True),
        (14, 2, 4, True),
        (15, 2, 4, False),
        (5, 1, 2, True),
        (6, 1, 2, False),
        (0, 0, 0, True),
    ],
)
def test_bound_check_arithmetic(n, k, x, ok):
    assert kernel_bound_holds(n, k, x) is ok


@given(graphs(max_n=6), st.integers(0, 3), st.integers(0, 8))
def test_kernel_preserves_decision(g, k, x):
    trace = kernelize_kx(g, k, x)
    if trace.infeasible:
        assert not oracle_decides(g, k, x)
    else:
        assert oracle_decides(g, k, x) == oracle_decides(
            trace.kernel_graph, trace.k_out, x
        )


@given(graphs(max_n=8), st.integers(0, 3), st.integers(0, 8))
def test_trace_accounting(g, k, x):
    trace = kernelize_kx(g, k, x)
    if trace.infeasible:
        assert trace.k_out == 0
        return
    assert len(trace.forced_vertices) + trace.k_out == k
    assert len(trace.kernel_to_original) == trace.kernel_graph.n
    assert len(set(trace.kernel_to_original)) == trace.kernel_graph.n
    touched = set(trace.forced_vertices) | set(trace.discarded_isolated)
    assert touched.isdisjoint(trace.kernel_to_original)
    kernel = trace.kernel_graph
    for a in range(kernel.n):
        for b in range(a + 1, kernel.n):
            assert kernel.has_edge(a, b) == g.has_edge(
                trace.kernel_to_original[a], trace.kernel_to_original[b]
            )
    assert all(kernel.degree(v) > 0 for v in range(kernel.n))


@given(graphs(max_n=8), st.integers(0, 3), st.integers(0, 8))
def test_kernelization_idempotent(g, k, x):
    trace = kernelize_kx(g, k, x)
    if trace.infeasible:
        return
    again = kernelize_kx(trace.kernel_graph, trace.k_out, x)
    assert again.forced_vertices == ()
    assert again.discarded_isolated == ()
    assert again.kernel_graph.edges == trace.kernel_graph.edges


@given(graphs(max_n=8), st.integers(0, 3), st.integers(0, 8))
def test_bound_holds_on_yes_instances(g, k, x):
    trace = kernelize_kx(g, k, x)
    if trace.infeasible or not oracle_decides(g, k, x):
        return
    assert kernel_bound_holds(trace.kernel_graph.n, trace.k_out, x)


@settings(max_examples=200)
@given(graphs(max_n=10), st.integers(0, 4), st.integers(0, 12))
def test_rule_matches_the_two_sided_test(g, k, x):
    # The threshold k' + isqrt(x) + 1 forces the same vertices, in the same
    # order, as d > k' and (d - k')^2 > x; `alive` is the kernel's vertex
    # set, or every vertex not forced when the rule runs out of budget.
    trace, rule = kernelize_kx(g, k, x), high_degree_rule(g, k, x)
    assert trace == reference_kernelize(g, k, x)
    assert rule.forced == trace.forced_vertices and rule.k_out == trace.k_out
    assert rule.infeasible == trace.infeasible
    if rule.infeasible:
        assert rule.alive == (1 << g.n) - 1 - sum(1 << v for v in rule.forced)
    else:
        assert rule.alive == sum(1 << v for v in trace.kernel_to_original)
