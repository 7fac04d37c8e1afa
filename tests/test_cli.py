import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import cncut
from cncut.bench import BenchDiscrepancy
from cncut.cli import main
from cncut.decomposition import parse_td, validate_decomposition
from cncut.instance_io import parse_instance

K3 = "p cnc 3 3\ne 1 2\ne 1 3\ne 2 3\nk 1\nx 2\n"
P5 = "p cnc 5 4\ne 1 2\ne 2 3\ne 3 4\ne 4 5\nk 1\nx 4\n"


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_solve_yes(tmp_path, capsys):
    assert main(["solve", write(tmp_path, "a.cnc", K3)]) == 0
    out = capsys.readouterr().out
    assert "answer: YES" in out and "algorithm: oracle" in out


def test_solve_no(tmp_path, capsys):
    inst = K3.replace("x 2", "x 1")
    assert main(["solve", write(tmp_path, "a.cnc", inst)]) == 1
    assert "answer: NO" in capsys.readouterr().out


def test_solve_parse_error(tmp_path, capsys):
    bad = "p cnc 2 1\ne 1 1\nk 0\nx 0\n"
    assert main(["solve", write(tmp_path, "a.cnc", bad)]) == 2
    assert "error:" in capsys.readouterr().err


def test_solve_missing_file(capsys):
    assert main(["solve", "/no/such/file.cnc"]) == 2
    assert "error:" in capsys.readouterr().err


def test_solve_refusal_exit_code(tmp_path, capsys):
    path = write(tmp_path, "a.cnc", "p cnc 5 2\ne 1 2\ne 3 4\nk 2\nx 0\n")
    assert main(["solve", path, "--algo", "oracle", "--cap", "1"]) == 3
    assert "refused:" in capsys.readouterr().err


@pytest.mark.parametrize("cap", ["0", "-3"])
def test_nonpositive_cap_is_a_usage_error(tmp_path, capsys, cap):
    path = write(tmp_path, "a.cnc", K3)
    for argv in (
        ["solve", path],
        ["generate", "random", "-o", str(tmp_path / "g.cnc")],
        ["bench", "--family", "all:n=3:k=0:x=0"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--cap", cap])
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("reps", ["0", "-1"])
def test_nonpositive_reps_is_a_usage_error(capsys, reps):
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--family", "all:n=3:k=0:x=0", "--reps", reps])
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "family",
    ["all:n=abc:k=0:x=0", "random:n=5:m=4:count=-1:k=0:x=0", "random:n=4:m=-1:count=1:k=0:x=0"],
)
def test_bad_family_spec_is_an_input_error(capsys, family):
    assert main(["bench", "--family", family]) == 2
    assert "error:" in capsys.readouterr().err


def test_solve_json_output(tmp_path, capsys):
    assert main(["solve", write(tmp_path, "a.cnc", P5), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["answer"] == "YES"
    assert payload["cut"] == [3]
    assert payload["residual_pairs"] == 4


def test_solve_writes_certificate(tmp_path, capsys):
    cert = tmp_path / "cut.txt"
    assert main(["solve", write(tmp_path, "a.cnc", P5), "--cert", str(cert)]) == 0
    assert cert.read_text(encoding="utf-8") == "3\n"


def test_solve_ignores_cnc_config(tmp_path, capsys, monkeypatch):
    # Auto's limits are constants; an old-style config file changes nothing.
    monkeypatch.setenv("CNC_CONFIG", write(tmp_path, "cnc.conf", "oracle_max_n=2\n"))
    assert main(["solve", write(tmp_path, "a.cnc", K3)]) == 0
    assert "algorithm: oracle" in capsys.readouterr().out


def test_td_flag_conflicts_with_other_engines(tmp_path, capsys):
    path = write(tmp_path, "a.cnc", K3)
    td = write(tmp_path, "a.td", "s td 1 3 3\nb 1 1 2 3\n")
    assert main(["solve", path, "--td", td, "--algo", "oracle"]) == 2
    assert "--td only applies" in capsys.readouterr().err


def test_td_flag_runs_width_engine(tmp_path, capsys):
    path = write(tmp_path, "a.cnc", P5)
    td = str(tmp_path / "a.td")
    assert main(["decompose", path, "-o", td]) == 0
    capsys.readouterr()
    assert main(["solve", path, "--td", td]) == 0
    assert "algorithm: dp-wx" in capsys.readouterr().out


def test_td_flag_rejects_bad_decomposition(tmp_path, capsys):
    path = write(tmp_path, "a.cnc", K3)
    td = write(tmp_path, "bad.td", "s td 1 2 3\nb 1 1 2\n")  # edge {2,3} uncovered
    assert main(["solve", path, "--td", td]) == 2
    assert "decomposition invalid" in capsys.readouterr().err


def test_td_flag_rejects_malformed_file(tmp_path, capsys):
    path = write(tmp_path, "a.cnc", K3)
    td = write(tmp_path, "bad.td", "s td 1 3 3\nb 1 a\n")
    assert main(["solve", path, "--td", td]) == 2
    assert "line 2: not an integer" in capsys.readouterr().err


def test_decompose_stdout_round_trips(tmp_path, capsys):
    assert main(["decompose", write(tmp_path, "a.cnc", P5)]) == 0
    text = capsys.readouterr().out
    td, declared_n = parse_td(text)
    assert declared_n == 5
    assert validate_decomposition(parse_instance(P5).graph, td).ok


def test_decompose_nice_annotations(tmp_path, capsys):
    assert main(["decompose", write(tmp_path, "a.cnc", P5), "--nice"]) == 0
    text = capsys.readouterr().out
    assert "c nice " in text and "c nice-root " in text
    td, _ = parse_td(text)
    assert validate_decomposition(parse_instance(P5).graph, td).ok


def test_verify_accepts_good_cut(tmp_path, capsys):
    path = write(tmp_path, "a.cnc", K3)
    cut = write(tmp_path, "cut.txt", "c chosen by hand\n1\n")
    assert main(["verify", path, "--cut", cut]) == 0
    assert "valid: yes" in capsys.readouterr().out


def test_verify_rejects_oversized_cut(tmp_path, capsys):
    path = write(tmp_path, "a.cnc", K3)
    cut = write(tmp_path, "cut.txt", "1\n2\n")
    assert main(["verify", path, "--cut", cut, "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["valid"] is False and payload["cut_size"] == 2


def test_verify_rejects_out_of_range_id(tmp_path, capsys):
    path = write(tmp_path, "a.cnc", K3)
    cut = write(tmp_path, "cut.txt", "9\n")
    assert main(["verify", path, "--cut", cut]) == 2
    assert "out of range" in capsys.readouterr().err


def test_verify_rejects_duplicate_id(tmp_path, capsys):
    path = write(tmp_path, "a.cnc", K3)
    cut = write(tmp_path, "cut.txt", "1\n1\n")
    assert main(["verify", path, "--cut", cut]) == 2
    assert "cut file line 2: duplicate vertex 1" in capsys.readouterr().err


def test_kernelize_star(tmp_path, capsys):
    star = "p cnc 6 5\ne 1 2\ne 1 3\ne 1 4\ne 1 5\ne 1 6\nk 1\nx 0\n"
    assert main(["kernelize", write(tmp_path, "a.cnc", star), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["kernel_n"] == 0 and payload["k_out"] == 0
    assert payload["forced"] == [1]
    assert payload["discarded_isolated"] == [2, 3, 4, 5, 6]


def test_kernelize_infeasible(tmp_path, capsys):
    two_stars = (
        "p cnc 12 10\n"
        + "".join(f"e 1 {v}\n" for v in range(2, 7))
        + "".join(f"e 7 {v}\n" for v in range(8, 13))
        + "k 1\nx 0\n"
    )
    assert main(["kernelize", write(tmp_path, "a.cnc", two_stars)]) == 1
    assert "answer: NO" in capsys.readouterr().out


def test_kernelize_writes_instance(tmp_path, capsys):
    text = "p cnc 8 8\n" + "".join(f"e 1 {v}\n" for v in range(2, 9)) + "e 2 3\nk 2\nx 0\n"
    out = str(tmp_path / "kernel.cnc")
    assert main(["kernelize", write(tmp_path, "a.cnc", text), "-o", out]) == 0
    kernel = parse_instance((tmp_path / "kernel.cnc").read_text(encoding="utf-8"))
    assert kernel.graph.n == 2 and kernel.graph.m == 1 and kernel.k == 1


def test_generate_random_is_deterministic(tmp_path, capsys):
    args = ["generate", "random", "--n", "6", "--m", "7", "--k", "2", "--x", "3", "--seed", "5"]
    a, b = str(tmp_path / "a.cnc"), str(tmp_path / "b.cnc")
    assert main(args + ["-o", a]) == 0
    assert main(args + ["-o", b]) == 0
    assert (tmp_path / "a.cnc").read_text() == (tmp_path / "b.cnc").read_text()
    inst = parse_instance((tmp_path / "a.cnc").read_text())
    assert inst.graph.n == 6 and inst.graph.m == 7 and inst.k == 2 and inst.x == 3
    sidecar = json.loads((tmp_path / "a.cnc.json").read_text())
    assert sidecar["kind"] == "random" and sidecar["seed"] == 5


def test_generate_random_needs_target(tmp_path, capsys):
    out = str(tmp_path / "a.cnc")
    assert main(["generate", "random", "-o", out, "--n", "4", "--m", "2", "--k", "1"]) == 2
    assert "exactly one of --x and --y" in capsys.readouterr().err


def test_generate_clique_reduction(tmp_path, capsys):
    out = str(tmp_path / "a.cnc")
    assert main(["generate", "clique", "-o", out, "--source", "complete:3", "--ell", "3"]) == 0
    inst = parse_instance((tmp_path / "a.cnc").read_text())
    assert inst.graph.n == 12 and inst.k == 3 and inst.y == 132
    sidecar = json.loads((tmp_path / "a.cnc.json").read_text())
    assert len(sidecar["roles"]) == 12


def test_generate_mcc(tmp_path, capsys):
    out = str(tmp_path / "a.cnc")
    assert main([
        "generate", "mcc", "-o", out, "--source", "path:2", "--ell", "2",
        "--colors", "0,1", "--sizes", "2,3,4,2,5,6,7",
    ]) == 0
    inst = parse_instance((tmp_path / "a.cnc").read_text())
    assert inst.graph.n == 138 and inst.k == 5 and inst.x == 3248
    sidecar = json.loads((tmp_path / "a.cnc.json").read_text())
    assert sidecar["total_vertices"] == 138


@pytest.mark.parametrize(
    "colors,sizes,flag",
    [("0,1,x", "2,3,4,2,5,6,7", "--colors"), ("0,1", "a,1,1,1,1,1,1", "--sizes")],
)
def test_generate_mcc_rejects_non_integer_lists(tmp_path, capsys, colors, sizes, flag):
    out = str(tmp_path / "a.cnc")
    assert main([
        "generate", "mcc", "-o", out, "--source", "path:2", "--ell", "2",
        "--colors", colors, "--sizes", sizes,
    ]) == 2
    assert f"error: {flag} needs comma-separated integers" in capsys.readouterr().err
    assert not (tmp_path / "a.cnc").exists()


def test_generate_mcc_cap_refuses(tmp_path, capsys):
    out = str(tmp_path / "a.cnc")
    assert main([
        "generate", "mcc", "-o", out, "--source", "path:2", "--ell", "2",
        "--colors", "0,1", "--sizes", "2,3,4,2,5,6,7", "--cap", "100",
    ]) == 3
    assert "refused:" in capsys.readouterr().err
    assert not (tmp_path / "a.cnc").exists()


def test_generate_bad_source_spec(tmp_path, capsys):
    out = str(tmp_path / "a.cnc")
    assert main(["generate", "clique", "-o", out, "--source", "grid:3", "--ell", "2"]) == 2
    assert "source spec" in capsys.readouterr().err


def test_bench_writes_csv(tmp_path, capsys):
    out = str(tmp_path / "rows.csv")
    code = main([
        "bench", "--family", "all:n=3:k=0-1:x=0-1", "--engines", "oracle", "-o", out,
    ])
    assert code == 0
    with open(out, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 16
    assert tuple(rows[0]) == (
        "instance", "engine", "algorithm", "rep", "n", "m", "k", "x", "y", "answer",
        "wall_ms", "stats",
    )


def test_bench_discrepancy_exit_code(tmp_path, capsys, monkeypatch):
    import cncut.cli as cli_mod

    def fake_bench(*args, **kwargs):
        raise BenchDiscrepancy("t", {"oracle": "YES", "dp-y": "NO"}, "p cnc 1 0\nk 0\nx 0\n")

    monkeypatch.setattr(cli_mod, "run_bench", fake_bench)
    monkeypatch.chdir(tmp_path)
    assert main(["bench", "--family", "all:n=3:k=0:x=0"]) == 4
    assert "bench aborted" in capsys.readouterr().err
    assert (tmp_path / "discrepancy-t.cnc").read_text() == "p cnc 1 0\nk 0\nx 0\n"


def test_cli_import_skips_numpy():
    code = "import sys, cncut.cli; sys.exit('numpy' in sys.modules)"
    src = str(Path(cncut.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["solve"])
    assert exc.value.code == 2


def test_public_names_are_stable():
    # Exported names change only with a stated reason.
    assert cncut.__all__ == [
        "BranchDecision",
        "BranchStats",
        "CapExceeded",
        "CliqueInstance",
        "CncInstance",
        "Cut",
        "GadgetSizes",
        "Graph",
        "HarnessConfig",
        "InputError",
        "KernelTrace",
        "MccLayout",
        "NiceTreeDecomposition",
        "OracleResult",
        "ParseError",
        "ReductionOutput",
        "Refusal",
        "RemovalTable",
        "RunReport",
        "TreeDecomposition",
        "VerifyReport",
        "WxDecision",
        "YDecision",
        "build_mcc_instance",
        "connected_components",
        "connected_pairs",
        "cross_compose",
        "forward_solution_cut",
        "heuristic_decomposition",
        "kernel_bound_holds",
        "kernelize_kx",
        "make_nice",
        "mcc_parameters",
        "oracle_decides",
        "oracle_max_removed_exact",
        "oracle_min_pairs",
        "pairs_removed",
        "parse_instance",
        "parse_td",
        "reduce_clique_bipartite",
        "reduce_clique_split",
        "reduce_clique_to_cnc",
        "remove_isolated",
        "remove_vertices",
        "run_instance",
        "select_algorithm",
        "serialize_instance",
        "serialize_td",
        "solve_branch_kx",
        "solve_wx",
        "solve_y",
        "validate_decomposition",
        "validate_nice",
        "verify_solution",
    ]
