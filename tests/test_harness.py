from math import isqrt

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
    ENGINES,
    ORACLE_MAX_N,
    EngineRefusal,
    HarnessConfig,
    RunReport,
    run_instance,
    select_algorithm,
)
from cncut.instance_io import CncInstance, parse_instance
from cncut.oracle import DEFAULT_CAP, oracle_decides

from .strategies import graphs


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
    assert "n=60" in msg and "w+x=" in msg and "x+k=" in msg


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
    # Three disjoint K6: n > ORACLE_MAX_N and heuristic width 5 + x 14 >
    # DP_WX_MAX, but x + k = 16. Degree 5 with k = 2 gives (5 - 2)^2 = 9 <= 14,
    # so the high-degree rule forces nothing.
    g, _ = disjoint_union([complete_graph(6)] * 3)
    assert select_algorithm(g, 2, 14, None) == "branch-kx"
    report = run_instance(CncInstance(g, 2, x=14))
    assert report.algorithm == "branch-kx" and report.answer == "NO"
    assert "kernel" not in report.stats


def test_select_dense_graph_the_rule_settles_goes_to_kernel():
    # K20 with k = 2, x = 4: every vertex has degree 19 and (19 - 2)^2 > 4, so
    # the rule forces more than k vertices and answers NO before any engine.
    assert select_algorithm(complete_graph(20), 2, 4, None) == "kernel"
    report = run_instance(CncInstance(complete_graph(20), 2, x=4))
    assert report.algorithm == "kernel" and report.answer == "NO"
    assert report.stats["kernel"] == {"forced": 3, "k_out": 0, "n_out": 18}


def test_select_names_trivial_targets():
    assert select_algorithm(complete_graph(3), 1, 6, None) == "trivial"
    assert select_algorithm(complete_graph(3), 1, None, 7, "dp-wx") == "trivial"


def test_y_target_is_reexpressed_over_the_kernel():
    # A star with 16 leaves beside five P4s, k = 2 and y = 282: x = 50 of the
    # 332 pairs. Unkernelized, y, w + x and x + k are all past auto's
    # thresholds. The rule forces the centre; the kernel is the five P4s with
    # 60 pairs, the same x = 50 makes its y 10, and dp-y takes it.
    g, _ = disjoint_union([star_graph(16)] + [path_graph(4)] * 5)
    assert select_algorithm(g, 2, None, 282) == "dp-y"
    report = run_instance(CncInstance(g, 2, y=282))
    assert report.algorithm == "dp-y" and report.answer == "YES"
    assert report.stats["kernel"] == {"forced": 1, "k_out": 1, "n_out": 20}
    assert 0 in report.cut and report.pairs_removed >= 282


# --- config ----------------------------------------------------------------

def test_config_defaults_without_env():
    assert HarnessConfig._fields == ("oracle_cap",)
    assert HarnessConfig().oracle_cap == DEFAULT_CAP
    assert (ORACLE_MAX_N, DP_Y_MAX, DP_WX_MAX, BRANCH_KX_MAX) == (14, 22, 18, 24)


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
    # sends the raw instance to dp-wx instead.
    from cncut.decomposition import heuristic_decomposition

    g = star_graph(16)
    report = run_instance(CncInstance(g, 1, x=0), ntd=make_nice(heuristic_decomposition(g)))
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


@pytest.mark.parametrize(
    "algo, g, k, x",
    [(e, path_graph(7), 1, 12) for e in ENGINES]
    + [("auto", path_graph(7), 1, 42), ("auto", HUB_AND_P5, 2, 4), ("auto", star_graph(16), 1, 0)],
    ids=[*ENGINES, "trivial", "kernel-then-oracle", "kernel"],
)
def test_each_yes_is_verified_once(monkeypatch, algo, g, k, x):
    # path_graph(7) has 42 pairs; deleting its middle vertex leaves 12. With
    # x = 12 every engine takes its main path (dp-y needs y = 30 > 2k); with
    # x = 42 the bound is already met. The rule forces HUB_AND_P5's hub and
    # the star's centre; the centre alone settles the star.
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


def test_run_instance_rejects_invalid_nice_decomposition():
    bad = make_nice(TreeDecomposition((frozenset({0}),), ()))
    inst = CncInstance(path_graph(3), 1, x=1)
    with pytest.raises(StructuralError, match="condition 1"):
        run_instance(inst, algo="dp-wx", ntd=bad)


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
