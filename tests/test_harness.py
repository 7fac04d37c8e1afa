import dataclasses

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
from cncut.graph import InputError, complete_graph, connected_pairs, path_graph, verify_solution
from cncut.harness import ENGINES, EngineRefusal, HarnessConfig, RunReport, select_algorithm, run_instance
from cncut.instance_io import CncInstance, parse_instance
from cncut.oracle import oracle_decides

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
        select_algorithm(complete_graph(60), 5, 10**6, None)
    msg = str(exc.value)
    assert "n=60" in msg and "w+x=" in msg and "x+k=" in msg


def test_select_user_choice_wins():
    assert select_algorithm(complete_graph(3), 1, 2, None, "dp-wx") == "dp-wx"
    with pytest.raises(InputError):
        select_algorithm(complete_graph(3), 1, 2, None, "foo")


def test_unknown_engine_rejected_on_trivial_instance():
    with pytest.raises(InputError):
        run_instance(CncInstance(complete_graph(3), 0, x=6), algo="no-such-engine")


def test_select_respects_config_thresholds():
    g = complete_graph(3)
    tight = HarnessConfig(oracle_max_n=2)
    assert select_algorithm(g, 1, 2, None, config=tight) == "dp-wx"
    tighter = dataclasses.replace(tight, dp_wx_max=0)
    assert select_algorithm(g, 1, 2, None, config=tighter) == "branch-kx"
    with pytest.raises(EngineRefusal):
        select_algorithm(g, 1, 2, None, config=dataclasses.replace(tighter, branch_kx_max=0))


# --- config ----------------------------------------------------------------

def test_config_defaults_without_env():
    cfg = HarnessConfig.from_env(environ={})
    assert (cfg.oracle_max_n, cfg.dp_y_max, cfg.branch_kx_max, cfg.dp_wx_max) == (14, 22, 24, 18)
    assert len(dataclasses.fields(cfg)) == 5


def test_config_file_overrides(tmp_path):
    path = tmp_path / "cnc.conf"
    path.write_text("# tuned down\noracle_max_n = 5\n\ndp_y_max=3\n", encoding="utf-8")
    cfg = HarnessConfig.from_env(environ={"CNC_CONFIG": str(path)})
    assert cfg.oracle_max_n == 5 and cfg.dp_y_max == 3
    assert cfg.branch_kx_max == 24


@pytest.mark.parametrize(
    "body,fragment",
    [
        ("bogus_key=1\n", "unknown config key"),
        ("workers=2\n", "unknown config key"),
        ("materialize_cap=5\n", "unknown config key"),
        ("dp_y_max=three\n", "not an integer"),
        ("dp_y_max\n", "expected key=value"),
    ],
)
def test_config_file_errors(tmp_path, body, fragment):
    path = tmp_path / "cnc.conf"
    path.write_text(body, encoding="utf-8")
    with pytest.raises(InputError) as exc:
        HarnessConfig.from_env(environ={"CNC_CONFIG": str(path)})
    assert fragment in str(exc.value)
    assert str(path) + ":1:" in str(exc.value)


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
    assert d["config"]["oracle_max_n"] == 14


def test_wall_ms_covers_verification(monkeypatch):
    import time

    import cncut.harness as harness_mod

    def slow_verify(*args):
        time.sleep(0.02)
        return verify_solution(*args)

    monkeypatch.setattr(harness_mod, "verify_solution", slow_verify)
    report = run_instance(CncInstance(path_graph(5), 1, x=4), algo="oracle")
    assert report.answer == "YES" and report.wall_ms >= 20


def test_run_instance_accepts_supplied_decomposition():
    from cncut.decomposition import heuristic_decomposition, make_nice

    g = path_graph(6)
    ntd = make_nice(heuristic_decomposition(g))
    report = run_instance(CncInstance(g, 1, x=8), algo="dp-wx", ntd=ntd)
    assert report.answer == "YES"


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
