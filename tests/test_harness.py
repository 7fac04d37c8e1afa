from math import isqrt
import random

import pytest
from hypothesis import given, settings, strategies as st

from cncut.bench import (
    CSV_COLUMNS,
    BenchDiscrepancy,
    FamilySpec,
    iterate_instances,
    parse_family,
    run_bench,
)
from cncut.decomposition import StructuralError, TreeDecomposition, make_nice
from cncut.families import random_graph
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
from cncut.harness import (
    BRANCH_KX_MAX,
    DP_WX_MAX,
    DP_Y_MAX,
    DP_Y_WORK,
    ENGINES,
    ORACLE_MAX_N,
    EngineRefusal,
    HarnessConfig,
    RunReport,
    run_instance,
    select_algorithm,
)
from cncut.instance_io import CncInstance, parse_instance
from cncut.kernel import high_degree_rule, kernelize_kx
from cncut.oracle import DEFAULT_CAP, CapExceeded, oracle_decides

from .reference import reference_kernel_run
from .strategies import graphs, seeded_random_graphs


# --- selection -------------------------------------------------------------

def test_select_small_goes_to_oracle():
    assert select_algorithm(complete_graph(3), 1, 2, None) == "oracle"


def test_select_tree_with_small_x_goes_to_width_engine():
    assert select_algorithm(path_graph(40), 2, 6, None) == "dp-wx"


def test_select_small_y_goes_to_dp_y():
    assert select_algorithm(path_graph(20), 2, None, 10) == "dp-y"


def test_select_large_y_falls_through_to_width_engine():
    # pairs(P20) = 380, so y = 370 is an x-equivalent of 10.
    assert select_algorithm(path_graph(20), 2, None, 370) == "dp-wx"


def test_select_refusal_names_every_threshold():
    with pytest.raises(EngineRefusal) as exc:
        select_algorithm(complete_graph(60), 5, 3000, None)
    msg = str(exc.value)
    assert "n=60" in msg and "y=" in msg and "w+x=" in msg and "x+k=" in msg
    # One K60 scanned over sizes 0..5: E = 1 + 60 + 1,770 + 34,220 + 487,635 + 5,461,512.
    assert f"E=5985198 > {DP_Y_WORK}" in msg


@pytest.mark.parametrize("extra, engine", [(0, "dp-y"), (1, "dp-wx")], ids=["at", "above"])
def test_select_admits_dp_y_up_to_its_work_threshold(extra, engine):
    # One path of s vertices with k = 1: dp-y's scan counts the empty set
    # and the s singletons, so E = s + 1. y is far above 22, and width 1 +
    # x 6 keeps dp-wx next in line.
    g = path_graph(DP_Y_WORK - 1 + extra)
    assert select_algorithm(g, 1, 6, None) == engine


def test_select_counts_no_work_where_the_large_component_screen_answers():
    # P40 with k = 3 and y = 30: a scan would count 10,701 subsets, and x is
    # far outside dp-wx's and branch-kx's envelopes, but the component has
    # more than y vertices, so dp-y answers by its screen without a scan.
    assert select_algorithm(path_graph(40), 3, None, 30) == "dp-y"
    report = run_instance(CncInstance(path_graph(40), 3, y=30))
    assert report.answer == "YES" and report.stats["shortcut"] == "large-component"


def test_dp_y_work_respects_the_run_cap():
    # Three K1,4 stars with k = 3, x = 2: y = 58, and each star's scan counts
    # 1 + 5 + 10 + 10 = 26 subsets, so E = 78. Under a cap of 25 dp-y would
    # refuse a component, so auto keeps the width route and its answer.
    g, _ = disjoint_union([star_graph(4)] * 3)
    inst = CncInstance(g, 3, x=2)
    by_work = run_instance(inst)
    capped = run_instance(inst, config=HarnessConfig(oracle_cap=25))
    assert (by_work.algorithm, capped.algorithm) == ("dp-y", "dp-wx")
    assert by_work.answer == capped.answer == "YES"
    assert by_work.cut == capped.cut == (0, 5, 10)
    # Four K5 with k = 2, x = 40: E = 4 * 16 = 64, but w + x and x + k are
    # both too large, so the cap turns dp-y's route into a refusal that says why.
    g, _ = disjoint_union([complete_graph(5)] * 4)
    assert run_instance(CncInstance(g, 2, x=40)).algorithm == "dp-y"
    with pytest.raises(EngineRefusal, match="y=40 > 22 and a component's 16 subsets > cap 15"):
        run_instance(CncInstance(g, 2, x=40), config=HarnessConfig(oracle_cap=15))


def test_kernel_sub_plan_carries_the_run_cap_to_its_solver():
    # K1,20 plus K4 with k = 2, x = 6: the rule forces the star's centre and
    # leaves K4 with k = 1, which the oracle solves. The solver reads the cap
    # off the sub-plan, so the run's cap reaches it through the kernel.
    g, _ = disjoint_union([star_graph(20), complete_graph(4)])
    report = run_instance(CncInstance(g, 2, x=6))
    assert (report.answer, report.algorithm, report.cut) == ("YES", "oracle", (0, 21))
    with pytest.raises(CapExceeded, match="5 candidate sets for n=4, k=1"):
        run_instance(CncInstance(g, 2, x=6), config=HarnessConfig(oracle_cap=1))


def test_dp_y_admitted_by_work_agrees_with_oracle():
    # Seeded unions of small random graphs, n = 15..24, with y > 22: every
    # one auto sends to dp-y by its work alone answers as the oracle does.
    rng = random.Random(37)
    answers = []
    while len(answers) < 24:
        parts = [random_graph(s, rng.randint(s - 1, s * (s - 1) // 2), rng)
                 for s in (rng.randint(3, 6) for _ in range(rng.randint(3, 5)))]
        g, _ = disjoint_union(parts)
        total, k = connected_pairs(g), rng.randint(2, 4)
        if not 15 <= g.n <= 24 or total <= DP_Y_MAX:
            continue
        y = rng.randint(DP_Y_MAX + 1, min(total, 2 * DP_Y_MAX))
        report = run_instance(CncInstance(g, k, y=y))
        want = oracle_decides(g, k, total - y)
        assert (report.answer == "YES") == want, (sorted(g.edges), k, y)
        if report.algorithm == "dp-y" and "kernel" not in report.stats:
            answers.append(want)
    assert True in answers and False in answers


def test_select_user_choice_wins():
    assert select_algorithm(complete_graph(3), 1, 2, None, "dp-wx") == "dp-wx"
    with pytest.raises(InputError):
        select_algorithm(complete_graph(3), 1, 2, None, "foo")


@pytest.mark.parametrize(
    "k, x, y",
    [(1, None, None), (1, 100, 3), (-1, 5, None)],
    ids=["neither-x-nor-y", "both-x-and-y", "negative-k"],
)
def test_select_rejects_invalid_targets(k, x, y):
    with pytest.raises(InputError):
        select_algorithm(path_graph(20), k, x, y)


def test_unknown_engine_rejected_on_trivial_instance():
    with pytest.raises(InputError):
        run_instance(CncInstance(complete_graph(3), 0, x=6), algo="no-such-engine")


def test_select_dense_graph_goes_to_branching():
    # Three K6 joined in a path by two edges: n > ORACLE_MAX_N, y = 292 and
    # dp-y's scan would count E = 988 subsets of the one component, heuristic
    # width 5 + x 14 > DP_WX_MAX, but x + k = 17. Degree at most 6 with k = 3
    # gives (6 - 3)^2 = 9 <= 14, so the high-degree rule forces nothing.
    cliques, _ = disjoint_union([complete_graph(6)] * 3)
    g = Graph.from_edges(18, [*cliques.edges, (5, 6), (11, 12)])
    assert select_algorithm(g, 3, 14, None) == "branch-kx"
    report = run_instance(CncInstance(g, 3, x=14))
    assert report.algorithm == "branch-kx" and report.answer == "NO"
    assert "kernel" not in report.stats


def test_select_dense_graph_the_rule_settles_goes_to_kernel():
    # K20 with k = 2, x = 4: every vertex has degree 19 and (19 - 2)^2 > 4, so
    # the rule forces more than k vertices and answers NO before any engine.
    # x is below 2m = 380, so the run never counts the pairs, and the NO
    # builds no residual graph.
    assert select_algorithm(complete_graph(20), 2, 4, None) == "kernel"
    g = complete_graph(20)
    report = run_instance(CncInstance(g, 2, x=4))
    assert report.algorithm == "kernel" and report.answer == "NO"
    assert report.stats["kernel"] == {"forced": 3, "k_out": 0, "n_out": 18}
    assert "components" not in g.__dict__
    trace = kernelize_kx(complete_graph(20), 2, 4)
    assert trace.infeasible and trace.kernel_graph is None and trace.kernel_to_original == ()


def test_kernel_settled_yes_builds_no_graph(monkeypatch):
    # K1,16 beside a triangle with k = 1, x = 6: the rule forces the centre,
    # whose leaves fall away, and the triangle's 6 pairs meet the bound. The
    # rule runs once, the YES is counted on the input's masks, and no Graph
    # is built on the way; `certify` still checks the cut on the input.
    import cncut.harness as harness_mod
    import cncut.kernel as kernel_mod

    g, _ = disjoint_union([star_graph(16), complete_graph(3)])
    inst = CncInstance(g, 1, x=6)
    passes = []

    def counted(*args):
        passes.append(args)
        return high_degree_rule(*args)

    def unexpected(*args, **kwargs):
        raise AssertionError("a kernel-settled YES built a graph")

    monkeypatch.setattr(kernel_mod, "high_degree_rule", counted)
    monkeypatch.setattr(harness_mod, "remove_vertices", unexpected)
    monkeypatch.setattr(Graph, "__init__", unexpected)
    report = run_instance(inst)
    assert (report.answer, report.algorithm, report.cut) == ("YES", "kernel", (0,))
    assert (report.residual_pairs, report.pairs_removed) == (6, 16 * 17)
    assert report.stats["kernel"] == {"forced": 1, "k_out": 0, "n_out": 3}
    assert len(passes) == 1


@st.composite
def instances_near_the_rule(draw):
    """(g, k, x) with n <= 9, k <= 3 and x <= 80 below g's pairs. Vertices
    0..h-1, for some h <= k, gain edges to later vertices, so that the rule
    fires within the budget as well as beyond it."""
    g, k = draw(graphs(max_n=9, max_m=10)), draw(st.integers(0, 3))
    hubs = range(min(draw(st.integers(0, k)), g.n - 1))
    g = Graph(g.n, g.edges | {(h, v) for h in hubs
                              for v in draw(st.sets(st.integers(h + 1, g.n - 1), min_size=1))})
    total = connected_pairs(g)
    return g, k, draw(st.integers(0, max(0, min(total - 1, 80))))


@settings(max_examples=300, deadline=None)
@given(instances_near_the_rule())
def test_kernel_route_matches_the_two_step_path(instance):
    # Wherever the rule fires, auto reports what the former path did: the
    # rule run to see that it fires and again to build the kernel graph,
    # whose pairs settle a forced-set YES and which an engine solves otherwise.
    g, k, x = instance
    report = run_instance(CncInstance(g, k, x=x))
    expected = reference_kernel_run(g, k, x) if report.algorithm != "trivial" else None
    if expected is None:
        assert "kernel" not in report.stats
        return
    got = (report.answer, report.cut, report.residual_pairs, report.pairs_removed,
           report.algorithm, report.stats["kernel"])
    assert got == expected


@given(graphs(max_n=9), st.integers(0, 3), st.integers(0, 80))
def test_pair_total_bounds_the_shortcut(g, k, x):
    # A component with s vertices holds at most s(s - 1)/2 edges, so the
    # pairs are at least 2m; a vertex the rule forces has degree d > k and
    # (d - k)^2 > x, so its component has at least d(d + 1) > x pairs.
    total = connected_pairs(g)
    assert total >= 2 * g.m
    rule = high_degree_rule(g, k, x)
    if rule.forced or rule.infeasible:
        assert x < total


def test_trivial_exactly_when_the_bound_is_met():
    # The route tests 2m before it counts the pairs; the answer must be the
    # same as testing the pair total alone, at x = 2m - 1, 2m, total - 1 and total.
    corpus = seeded_random_graphs(36, 8, (4, 22), m_factor=4.0)
    corpus += [complete_graph(20), star_graph(16), Graph(5, frozenset())]
    routes = set()
    for g in corpus:
        m2, total = 2 * g.m, connected_pairs(g)
        xs = sorted({0, m2 - 1, m2, m2 + 1, total - 1, total, total + 1} - {-1})
        targets = [(x, None, x) for x in xs]
        targets += [(None, total - x, x) for x in xs if x <= total] + [(None, total + 1, -1)]
        for algo in ("auto", *ENGINES):
            for k in (0, 2):
                for x, y, x_eff in targets:
                    try:
                        chosen = select_algorithm(g, k, x, y, algo)
                    except EngineRefusal:
                        chosen = "refused"
                    routes.add(chosen)
                    assert (chosen == "trivial") == (x_eff < 0 or x_eff >= total), (
                        g.n, sorted(g.edges), algo, k, x, y)
    assert {"trivial", "kernel", "oracle"} <= routes


def test_select_names_trivial_targets():
    assert select_algorithm(complete_graph(3), 1, 6, None) == "trivial"
    assert select_algorithm(complete_graph(3), 1, None, 7, "dp-wx") == "trivial"


def test_y_target_is_reexpressed_over_the_kernel():
    # A star with 16 leaves beside five P4s, k = 2 and y = 282: x = 50 of the
    # 332 pairs. Unkernelized, y, w + x and x + k are all past auto's
    # thresholds. The rule forces the centre; the kernel is the five P4s with
    # 60 pairs, where the same x = 50 leaves y = 10, and dp-y takes it.
    g, _ = disjoint_union([star_graph(16)] + [path_graph(4)] * 5)
    assert select_algorithm(g, 2, None, 282) == "dp-y"
    report = run_instance(CncInstance(g, 2, y=282))
    assert report.algorithm == "dp-y" and report.answer == "YES"
    assert report.stats["kernel"] == {"forced": 1, "k_out": 1, "n_out": 20}
    assert 0 in report.cut and report.pairs_removed >= 282


def _small_y_instances():
    """(g, k, x) with y small and x past every other envelope: a dense
    G(20, 120) with y = 20, and the star-plus-P4s instance above, whose y is
    small only over its kernel."""
    dense = random_graph(20, 120, random.Random(4))
    star, _ = disjoint_union([star_graph(16)] + [path_graph(4)] * 5)
    return [(dense, 3, connected_pairs(dense) - 20), (star, 2, 50)]


def _spelling_corpus():
    """(g, k, x) over seeded random graphs and a (k, x) grid, plus the small-y instances."""
    corpus = _small_y_instances()
    for g in seeded_random_graphs(34, 12, (15, 30)):
        total = connected_pairs(g)
        for k in (1, 3):
            for x in sorted({0, 6, 16, total - 20, total - 6} & set(range(total + 1))):
                corpus.append((g, k, x))
    return corpus


def _outcome(g, k, x=None, y=None):
    try:
        selected = select_algorithm(g, k, x, y)
        r = run_instance(CncInstance(g, k, x=x, y=y))
    except EngineRefusal:
        return "refused"
    return selected, r.answer, r.cut, r.residual_pairs, r.algorithm, r.stats


def test_x_and_y_spellings_route_alike():
    # y is the pairs a cut must remove, total - x, whichever the file names.
    routes = set()
    for g, k, x in _spelling_corpus():
        as_x, as_y = _outcome(g, k, x=x), _outcome(g, k, y=connected_pairs(g) - x)
        assert as_x == as_y, (g.n, sorted(g.edges), k, x)
        routes.add(as_x[0])
    assert {"dp-y", "dp-wx", "branch-kx", "kernel"} <= routes


def test_x_spelled_small_y_instances_go_to_dp_y():
    for g, k, x in _small_y_instances():
        report = run_instance(CncInstance(g, k, x=x))
        assert report.algorithm == "dp-y" and report.answer == "YES"


# --- config ----------------------------------------------------------------

def test_config_defaults_without_env():
    assert HarnessConfig._fields == ("oracle_cap",)
    assert HarnessConfig().oracle_cap == DEFAULT_CAP
    assert (ORACLE_MAX_N, DP_Y_MAX, DP_Y_WORK, DP_WX_MAX, BRANCH_KX_MAX) == (14, 22, 200, 18, 24)


# --- run_instance ----------------------------------------------------------

def test_run_trivial_no_when_target_exceeds_pairs():
    report = run_instance(CncInstance(complete_graph(3), 1, y=10))
    assert report.answer == "NO" and report.algorithm == "trivial"
    assert report.stats["reason"] == "x-equivalent below zero"


def test_run_trivial_yes_with_empty_cut():
    report = run_instance(CncInstance(complete_graph(3), 0, x=6))
    assert report.answer == "YES" and report.cut == ()
    assert report.algorithm == "trivial" and report.residual_pairs == 6


def test_run_report_to_dict_uses_one_based_ids():
    report = run_instance(CncInstance(path_graph(5), 1, x=4), algo="oracle")
    assert report.answer == "YES" and report.cut == (2,)
    d = report.to_dict()
    assert d["cut"] == [3]
    assert d["algorithm"] == "oracle"
    assert d["config"] == {"oracle_cap": DEFAULT_CAP}


@pytest.mark.parametrize("engine, field", [
    ("branch-kx", "nodes_visited"), ("dp-y", "component_count"), ("dp-wx", "width"),
])
def test_engine_stats_are_immutable_records(engine, field):
    # Each engine builds its stats once, where it returns; the report holds
    # them as a dict with the record's fields in order.
    from cncut.branching import solve_branch_kx
    from cncut.component_dp import solve_y
    from cncut.treewidth_dp import solve_wx

    g = path_graph(5)
    solve = {"branch-kx": lambda: solve_branch_kx(g, 1, 4), "dp-y": lambda: solve_y(g, 1, 16),
             "dp-wx": lambda: solve_wx(g, 1, 4)}[engine]
    stats = solve().stats
    with pytest.raises(AttributeError):
        setattr(stats, field, 0)
    report = run_instance(CncInstance(g, 1, x=4), algo=engine)
    assert report.stats == stats._asdict() and list(report.stats) == list(stats._fields)


def test_wall_ms_covers_verification(monkeypatch):
    import time

    import cncut.graph as graph_mod

    def slow_verify(*args):
        time.sleep(0.02)
        return verify_solution(*args)

    monkeypatch.setattr(graph_mod, "verify_solution", slow_verify)
    report = run_instance(CncInstance(path_graph(5), 1, x=4), algo="oracle")
    assert report.answer == "YES" and report.wall_ms >= 20


def test_run_instance_accepts_supplied_decomposition():
    from cncut.decomposition import heuristic_decomposition, make_nice

    g = path_graph(6)
    ntd = make_nice(heuristic_decomposition(g))
    report = run_instance(CncInstance(g, 1, x=8), algo="dp-wx", ntd=ntd)
    assert report.answer == "YES"


def test_supplied_decomposition_skips_the_kernel():
    # Auto would force the star's centre; a decomposition of the input graph
    # sends the raw instance to dp-wx instead. With k = 3 dp-y's scan would
    # count E = 834 subsets, so auto reads the width.
    from cncut.decomposition import heuristic_decomposition

    g = star_graph(16)
    report = run_instance(CncInstance(g, 3, x=0), ntd=make_nice(heuristic_decomposition(g)))
    assert report.algorithm == "dp-wx" and report.cut == (0,)
    assert "kernel" not in report.stats


def test_auto_reads_the_supplied_decomposition_width(monkeypatch):
    # The heuristic's width is 5, so 5 + x = 15 would pass dp-wx's envelope;
    # the supplied one-bag form has width 23, and 23 + 10 does not.
    from random import Random

    from cncut import decomposition
    from cncut.families import random_graph

    g = random_graph(24, 40, Random(1))
    assert decomposition.heuristic_decomposition(g).width + 10 <= DP_WX_MAX
    one_bag = make_nice(TreeDecomposition((frozenset(range(24)),), ()))
    assert one_bag.width == 23

    def unexpected(g):
        raise AssertionError("auto built the heuristic despite a supplied decomposition")

    monkeypatch.setattr(decomposition, "heuristic_decomposition", unexpected)
    report = run_instance(CncInstance(g, 2, x=10), ntd=one_bag)
    assert report.algorithm == "branch-kx"
    assert report.answer == ("YES" if oracle_decides(g, 2, 10) else "NO")


# A hub joined to six leaves, beside a path on five vertices. With k = 2 and
# x = 4 the rule forces the hub, and the oracle cuts the path with k = 1.
HUB_AND_P5 = Graph.from_edges(12, [(0, v) for v in range(1, 7)] + [(v, v + 1) for v in range(7, 11)])
# K1,16 beside a triangle: with k = 1 and x = 6 the centre alone leaves 6 pairs.
STAR_AND_TRIANGLE = disjoint_union([star_graph(16), complete_graph(3)])[0]


@pytest.mark.parametrize(
    "algo, g, k, x",
    [(e, path_graph(7), 1, 12) for e in ENGINES]
    + [("auto", path_graph(7), 1, 42), ("auto", HUB_AND_P5, 2, 4), ("auto", star_graph(16), 1, 0),
       ("auto", STAR_AND_TRIANGLE, 1, 6)],
    ids=[*ENGINES, "trivial", "kernel-then-oracle", "kernel", "kernel-with-residual"],
)
def test_each_yes_is_verified_once(monkeypatch, algo, g, k, x):
    # path_graph(7) has 42 pairs; deleting its middle vertex leaves 12. With
    # x = 12 every engine takes its main path (dp-y needs y = 30 > 2k); with
    # x = 42 the bound is already met. The rule forces HUB_AND_P5's hub and
    # the stars' centres; a centre alone settles its star, with no pair left
    # or with the triangle's 6, and the kernel's YES is certified only on g.
    import cncut.graph as graph_mod

    calls = []

    def counted(*args):
        calls.append(args)
        return verify_solution(*args)

    monkeypatch.setattr(graph_mod, "verify_solution", counted)
    report = run_instance(CncInstance(g, k, x=x), algo=algo)
    assert report.answer == "YES" and [args[0] is g for args in calls].count(True) == 1
    # An engine that runs after the kernel also certifies its cut on the kernel graph.
    assert len(calls) == 1 + (report.algorithm in ENGINES and "kernel" in report.stats)


def test_direct_engine_yes_paths_are_certified(monkeypatch):
    # An overcounting verifier must reject the YES of dp-y's greedy-2k
    # shortcut and of dp-wx's bound-met return.
    import cncut.graph as graph_mod
    from cncut.component_dp import solve_y
    from cncut.treewidth_dp import solve_wx

    assert solve_y(complete_graph(3), 2, 3).stats.shortcut == "greedy-2k"
    pairs_by_edges = graph_mod.pairs_by_edges
    monkeypatch.setattr(graph_mod, "pairs_by_edges", lambda *a: pairs_by_edges(*a) + 2)
    with pytest.raises(AssertionError, match="engine dp-y"):
        solve_y(complete_graph(3), 2, 3)
    with pytest.raises(AssertionError, match="engine dp-wx"):
        solve_wx(complete_graph(3), 0, connected_pairs(complete_graph(3)))


@settings(max_examples=60, deadline=None)
@given(graphs(max_n=7), st.integers(0, 3), st.integers(0, 12))
def test_engines_agree_and_yes_cuts_verify(g, k, x):
    inst = CncInstance(g, k, x=x)
    expected = oracle_decides(g, k, x)
    for engine in ENGINES:
        report = run_instance(inst, algo=engine)
        assert (report.answer == "YES") == expected
        if report.answer == "YES":
            assert verify_solution(g, report.cut, k, x)
            assert report.pairs_removed == connected_pairs(g) - report.residual_pairs


@st.composite
def instances_the_rule_reduces(draw):
    """(g, k, x) with n <= 10, k <= 3 and x <= 12, where vertex 0's degree is
    at least the least one the high-degree rule forces."""
    k, x = draw(st.integers(0, 3)), draw(st.integers(0, 12))
    hub = k + isqrt(x) + 1  # least d with d > k and (d - k)^2 > x
    g = draw(graphs(min_n=hub + 1, max_n=10))
    leaves = draw(st.sets(st.integers(1, g.n - 1), min_size=hub))
    return Graph(g.n, g.edges | {(0, v) for v in leaves}), k, x


@settings(max_examples=150, deadline=None)
@given(instances_the_rule_reduces())
def test_kernel_path_agrees_with_oracle(instance):
    g, k, x = instance
    expected, total = oracle_decides(g, k, x), connected_pairs(g)
    forms = [CncInstance(g, k, x=x)] + ([CncInstance(g, k, y=total - x)] if x <= total else [])
    for inst in forms:
        report = run_instance(inst)
        assert (report.answer == "YES") == expected
        if x < total:
            assert report.stats["kernel"]["forced"] >= 1
        if report.answer == "YES":
            check = verify_solution(g, report.cut, k, x)
            assert check and check.residual_pairs == report.residual_pairs


@settings(max_examples=40, deadline=None)
@given(graphs(max_n=7), st.integers(0, 3), st.integers(0, 14))
def test_engines_agree_on_y_instances(g, k, y):
    inst = CncInstance(g, k, y=y)
    x_eff = inst.x_equivalent()
    expected = x_eff >= 0 and oracle_decides(g, k, x_eff)
    for engine in ENGINES:
        report = run_instance(inst, algo=engine)
        assert (report.answer == "YES") == expected


# --- bench families --------------------------------------------------------

def test_parse_family_all():
    spec = parse_family("all:n=6:k=0-3:x=0-8")
    assert spec == FamilySpec("all", 6, None, None, 0, (0, 3), "x", (0, 8))


def test_parse_family_random():
    spec = parse_family("random:n=10:m=18:count=25:seed=7:k=2:y=0-10")
    assert spec.kind == "random" and (spec.m, spec.count, spec.seed) == (18, 25, 7)
    assert spec.k_range == (2, 2) and spec.target == "y" and spec.target_range == (0, 10)


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("grid:n=5:k=0:x=0", "unknown family kind"),
        ("all:k=0:x=0", "missing n"),
        ("all:n=4:k=0:x=0:y=0", "exactly one of x and y"),
        ("all:n=4:k=0", "exactly one of x and y"),
        ("all:n=4:k=0:x=0:z=1", "unrecognized family keys"),
        ("all:n=4:n=5:k=0:x=0", "duplicate family key"),
        ("all:n=4:k=3-1:x=0", "empty range"),
        ("all:n=4:k=a:x=0", "bad range"),
        ("all:n=4:k", "expected key=value"),
        ("all:n=abc:k=0:x=0", "bad integer for n"),
        ("random:n=5:m=?:count=1:k=0:x=0", "bad integer for m"),
        ("random:n=5:m=4:count=1.5:k=0:x=0", "bad integer for count"),
        ("random:n=5:m=4:count=1:seed=s:k=0:x=0", "bad integer for seed"),
        ("random:n=5:m=4:count=-1:k=0:x=0", "count must be nonnegative"),
    ],
)
def test_parse_family_errors(text, fragment):
    with pytest.raises(InputError) as exc:
        parse_family(text)
    assert fragment in str(exc.value)


def test_iterate_all_family():
    pairs = list(iterate_instances(parse_family("all:n=3:k=0-1:x=0-1")))
    assert len(pairs) == 4 * 2 * 2
    assert pairs[0][0] == "all-n3-g0-k0-x0"
    name, inst = pairs[-1]
    assert name == "all-n3-g3-k1-x1"
    assert inst.k == 1 and inst.x == 1 and inst.graph.n == 3


def test_iterate_random_family_is_deterministic():
    spec = parse_family("random:n=5:m=4:count=2:seed=3:k=1:y=2")
    first = list(iterate_instances(spec))
    second = list(iterate_instances(spec))
    assert [name for name, _ in first] == [
        "random-n5-m4-s3-i0-k1-y2",
        "random-n5-m4-s3-i1-k1-y2",
    ]
    assert [set(inst.graph.edges) for _, inst in first] == [
        set(inst.graph.edges) for _, inst in second
    ]


def test_run_bench_rows_and_agreement():
    rows = run_bench("all:n=3:k=0-1:x=0-1", engines=("oracle", "branch-kx"))
    assert len(rows) == 16 * 2
    for row in rows:
        assert tuple(row) == CSV_COLUMNS
        assert row["answer"] in ("YES", "NO")
        assert row["rep"] == 0 and row["y"] == ""
    by_instance: dict[str, set] = {}
    for row in rows:
        by_instance.setdefault(row["instance"], set()).add(row["answer"])
    assert all(len(answers) == 1 for answers in by_instance.values())


def test_run_bench_empty_family():
    assert run_bench("random:n=5:m=0:count=0:seed=1:k=0:x=0") == []


def test_run_bench_records_refusals():
    config = HarnessConfig(oracle_cap=1)
    rows = run_bench("all:n=5:k=2:x=0", engines=("oracle",), config=config)
    refused = [r for r in rows if r["answer"] == "REFUSED"]
    assert refused and all(r["stats"].startswith("reason=") for r in refused)
    assert rows[0]["answer"] == "YES"  # the edgeless class is answered trivially


@pytest.mark.parametrize("x", [1, 6])
@pytest.mark.parametrize("algo", ["auto", "oracle", "branch-kx", "dp-y", "dp-wx"])
def test_run_instance_rejects_invalid_nice_decomposition(algo, x, monkeypatch):
    # The one-bag form misses vertices 1 and 2 of the path. Every route
    # rejects it, the trivial one at x = 6 (the path's pair count) included,
    # and checks a valid form exactly once.
    from cncut import decomposition, treewidth_dp

    bad = make_nice(TreeDecomposition((frozenset({0}),), ()))
    inst = CncInstance(path_graph(3), 1, x=x)
    with pytest.raises(StructuralError, match="condition 1"):
        run_instance(inst, algo=algo, ntd=bad)

    checked = []
    validate_nice = decomposition.validate_nice

    def counted(g, ntd):
        checked.append(ntd)
        return validate_nice(g, ntd)

    monkeypatch.setattr(decomposition, "validate_nice", counted)
    monkeypatch.setattr(treewidth_dp, "validate_nice", counted)
    good = make_nice(decomposition.heuristic_decomposition(path_graph(3)))
    run_instance(inst, algo=algo, ntd=good)
    assert checked == [good]


@pytest.mark.parametrize("algo", ["auto", "dp-wx"])
def test_supplied_invalid_form_is_rejected(algo):
    # The edgeless graph's form covers every vertex of the path but none of
    # its edges. Its width is 0 and n > ORACLE_MAX_N, so auto picks dp-wx too.
    from cncut.decomposition import heuristic_decomposition

    bad = make_nice(heuristic_decomposition(Graph(16, ())))
    inst = CncInstance(path_graph(16), 1, x=4)
    with pytest.raises(StructuralError, match="condition 2"):
        run_instance(inst, algo=algo, ntd=bad)


def test_self_built_forms_skip_validate_nice(monkeypatch):
    # make_nice's forms are valid by construction, so only a form handed to
    # solve_wx is checked: not a forced dp-wx's, and not the nice form of the
    # heuristic that auto measured.
    from cncut import treewidth_dp

    def unexpected(g, ntd):
        raise AssertionError("validate_nice ran on a self-built form")

    monkeypatch.setattr(treewidth_dp, "validate_nice", unexpected)
    g = path_graph(20)
    report = run_instance(CncInstance(g, 2, x=30), algo="dp-wx")
    assert report.algorithm == "dp-wx"
    assert report.answer == ("YES" if oracle_decides(g, 2, 30) else "NO")
    assert treewidth_dp.solve_wx(g, 2, 30).answer == (report.answer == "YES")
    # w + x = 1 + 16 is inside auto's dp-wx envelope.
    report = run_instance(CncInstance(g, 2, x=16))
    assert report.algorithm == "dp-wx"
    assert report.answer == ("YES" if oracle_decides(g, 2, 16) else "NO")


def test_auto_builds_one_decomposition_for_dp_wx(monkeypatch):
    # Auto measures the heuristic's width, then dp-wx runs on its nice form:
    # one min-fill per Graph, cached as `Graph.heuristic_td`, and one nice
    # form per run. solve_wx streams the form it builds itself, so that is
    # `stream_nice`. The path is built here, so no earlier test filled its
    # cache.
    from cncut import decomposition, treewidth_dp

    calls = []

    def counted(name):
        fn = getattr(decomposition, name)

        def wrapper(arg):
            calls.append(name)
            return fn(arg)
        return wrapper

    monkeypatch.setattr(decomposition, "heuristic_decomposition", counted("heuristic_decomposition"))
    wrapper = counted("stream_nice")
    monkeypatch.setattr(decomposition, "stream_nice", wrapper)
    monkeypatch.setattr(treewidth_dp, "stream_nice", wrapper)
    report = run_instance(CncInstance(path_graph(40), 2, x=6))
    assert report.algorithm == "dp-wx"
    assert sorted(calls) == ["heuristic_decomposition", "stream_nice"]


def test_forced_dp_wx_builds_one_decomposition_per_graph(monkeypatch):
    # `cnc bench` forces dp-wx on every (k, x) cell of a graph; min-fill runs
    # on the first cell that reaches dp-wx and the rest read the cache. The
    # family's graphs are built inside run_bench, so no cache is filled yet.
    from cncut import decomposition

    heuristic = decomposition.heuristic_decomposition
    seen = []

    def counted(g):
        seen.append(id(g))
        return heuristic(g)

    monkeypatch.setattr(decomposition, "heuristic_decomposition", counted)
    rows = run_bench("random:n=10:m=18:count=3:seed=7:k=0-3:x=0-10", engines=("dp-wx",))
    reached = {r["instance"].rsplit("-k", 1)[0] for r in rows if r["algorithm"] == "dp-wx"}
    assert len(rows) == 132 and reached
    assert len(seen) == len(set(seen)) == len(reached)

    g = path_graph(7)
    td = g.heuristic_td
    assert td == heuristic(g)
    assert g.heuristic_td is td


def test_run_instance_takes_the_catalogue_hook_call():
    # The benchmark's catalogue workload replaces `bench.run_instance` with a
    # hook that forwards exactly these arguments to `harness.run_instance`.
    import inspect

    from cncut import harness

    inst = CncInstance(path_graph(3), 1, x=0)
    inspect.signature(harness.run_instance).bind(inst, algo="auto", config=HarnessConfig(), ntd=None)


def test_select_algorithm_builds_no_nice_form(monkeypatch):
    # Auto needs only the heuristic's width; dp-wx builds the nice form.
    from cncut import decomposition, treewidth_dp

    def unexpected(td):
        raise AssertionError("select_algorithm built a nice form")

    monkeypatch.setattr(decomposition, "make_nice", unexpected)
    monkeypatch.setattr(decomposition, "stream_nice", unexpected)
    monkeypatch.setattr(treewidth_dp, "stream_nice", unexpected)
    assert select_algorithm(path_graph(40), 2, 6, None) == "dp-wx"


def test_run_bench_rows_name_the_engine_that_ran():
    rows = run_bench("all:n=3:k=0:x=0", engines=("oracle", "dp-wx"))
    edgeless = [r for r in rows if r["m"] == 0]
    assert edgeless and all(
        r["answer"] == "YES" and r["algorithm"] == "trivial" for r in edgeless
    )
    assert all(r["algorithm"] == r["engine"] for r in rows if r["m"] > 0)
    refused = run_bench("all:n=5:k=2:x=0", engines=("oracle",), config=HarnessConfig(oracle_cap=1))
    assert {r["algorithm"] for r in refused if r["answer"] == "REFUSED"} == {""}


def test_run_bench_refused_rows_report_wall_time(monkeypatch):
    import time

    import cncut.bench as bench_mod
    from cncut.graph import Refusal

    def slow_refusal(inst, algo="auto", config=None, ntd=None):
        time.sleep(0.005)
        raise Refusal("too big")

    monkeypatch.setattr(bench_mod, "run_instance", slow_refusal)
    rows = run_bench("all:n=2:k=0:x=0", engines=("oracle",))
    assert rows and all(r["answer"] == "REFUSED" and r["wall_ms"] >= 5 for r in rows)


def test_run_bench_rejects_unknown_engine():
    with pytest.raises(InputError):
        run_bench("all:n=3:k=0:x=0", engines=("oracle", "foo"))


def test_bench_discrepancy_aborts(monkeypatch):
    import cncut.bench as bench_mod

    def fake_run(inst, algo="auto", config=None, ntd=None):
        answer = "YES" if algo == "oracle" else "NO"
        return RunReport(answer, None, None, None, algo, {}, 0.0, {})

    monkeypatch.setattr(bench_mod, "run_instance", fake_run)
    with pytest.raises(BenchDiscrepancy) as exc:
        run_bench("all:n=3:k=0:x=0", engines=("oracle", "dp-y"))
    err = exc.value
    assert err.answers == {"oracle": "YES", "dp-y": "NO"}
    parsed = parse_instance(err.instance_text)
    assert parsed.graph.n == 3
    assert err.name in str(err)
