import ast
import csv
import io
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


def test_solve_json_names_the_kernel(tmp_path, capsys):
    # The rule forces the star's centre, which alone meets x = 0.
    assert main(["solve", write(tmp_path, "a.cnc", STAR17), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["algorithm"] == "kernel" and payload["cut"] == [1]
    assert payload["stats"]["kernel"] == {"forced": 1, "k_out": 0, "n_out": 0}


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


@pytest.mark.parametrize("source", ["file", "stdin"])
def test_byte_order_mark_is_ignored(tmp_path, capsys, monkeypatch, source):
    # Editors on some systems save UTF-8 with a leading U+FEFF.
    assert main(["solve", write(tmp_path, "a.cnc", K3)]) == 0
    plain = capsys.readouterr().out
    if source == "file":
        path = str(tmp_path / "bom.cnc")
        Path(path).write_bytes(b"\xef\xbb\xbf" + K3.encode())
    else:
        path = "-"
        monkeypatch.setattr(sys, "stdin", io.StringIO("\ufeff" + K3))
    assert main(["solve", path]) == 0
    bom = capsys.readouterr().out

    def untimed(out):
        return [line for line in out.splitlines() if not line.startswith("time:")]

    assert untimed(bom) == untimed(plain)


@pytest.mark.parametrize("cap", ["0", "-3", "abc", "1.5"])
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
        err = capsys.readouterr().err
        assert f"error: argument --cap: must be a positive integer, got '{cap}'" in err
        assert "_positive" not in err


@pytest.mark.parametrize("reps", ["0", "-1", "abc", "1.5"])
def test_nonpositive_reps_is_a_usage_error(capsys, reps):
    with pytest.raises(SystemExit) as exc:
        main(["bench", "--family", "all:n=3:k=0:x=0", "--reps", reps])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"error: argument --reps: must be a positive integer, got '{reps}'" in err
    assert "_positive" not in err


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


@pytest.mark.parametrize("text,reason", [
    ("s td 1 2 3\nb 1 1 2\n", "bags do not cover the vertex set"),
    ("s td 1 3 5\nb 1 1 2 3\n", "declares 5 vertices, the instance has 3"),
], ids=["uncovered", "header-count"])
def test_td_flag_rejects_bad_decomposition(tmp_path, capsys, text, reason):
    path = write(tmp_path, "a.cnc", K3)
    td = write(tmp_path, "bad.td", text)
    assert main(["solve", path, "--td", td]) == 2
    err = capsys.readouterr().err
    assert "decomposition invalid" in err and reason in err


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


def test_kernelize_json_when_the_target_exceeds_the_pairs(tmp_path, capsys):
    text = "p cnc 3 1\ne 1 2\nk 1\ny 10\n"
    assert main(["kernelize", write(tmp_path, "a.cnc", text), "--json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload == {"answer": "NO", "reason": "the removal target exceeds the pairs present"}


def test_kernelize_writes_instance(tmp_path, capsys):
    text = "p cnc 8 8\n" + "".join(f"e 1 {v}\n" for v in range(2, 9)) + "e 2 3\nk 2\nx 0\n"
    out = str(tmp_path / "kernel.cnc")
    assert main(["kernelize", write(tmp_path, "a.cnc", text), "-o", out]) == 0
    kernel = parse_instance((tmp_path / "kernel.cnc").read_text(encoding="utf-8"))
    assert kernel.graph.n == 2 and kernel.graph.m == 1 and kernel.k == 1


def test_solve_takes_the_kernel_file_its_input_was_solved_through(tmp_path, capsys):
    # A star with 16 leaves beside five P4s, k = 2 and y = 282. Auto solves it
    # by dp-y on its kernel; the kernel file names that target as x = 50, and
    # its y = 60 - 50 routes it to dp-y too.
    star_p4s = ("p cnc 37 31\n" + "".join(f"e 1 {v}\n" for v in range(2, 18))
                + "".join(f"e {v} {v + 1}\n" for v in range(18, 38) if (v - 17) % 4)
                + "k 2\ny 282\n")
    path, out = write(tmp_path, "a.cnc", star_p4s), str(tmp_path / "kernel.cnc")
    assert main(["solve", path]) == 0
    assert "algorithm: dp-y" in capsys.readouterr().out
    assert main(["kernelize", path, "-o", out]) == 0
    kernel = parse_instance((tmp_path / "kernel.cnc").read_text(encoding="utf-8"))
    assert (kernel.graph.n, kernel.k, kernel.x) == (20, 1, 50)
    capsys.readouterr()
    assert main(["solve", out]) == 0
    assert "algorithm: dp-y" in capsys.readouterr().out


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
        "--colors", "0,1", "--sizes", "2,3,4,5,6,7",
    ]) == 0
    inst = parse_instance((tmp_path / "a.cnc").read_text())
    assert inst.graph.n == 138 and inst.k == 5 and inst.x == 3248
    sidecar = json.loads((tmp_path / "a.cnc.json").read_text())
    assert sidecar["total_vertices"] == 138


@pytest.mark.parametrize(
    "colors,sizes,flag",
    [("0,1,x", "2,3,4,5,6,7", "--colors"), ("0,1", "a,1,1,1,1,1,1", "--sizes")],
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
        "--colors", "0,1", "--sizes", "2,3,4,5,6,7", "--cap", "100",
    ]) == 3
    assert "refused:" in capsys.readouterr().err
    assert not (tmp_path / "a.cnc").exists()


def test_generate_bad_source_spec(tmp_path, capsys):
    out = str(tmp_path / "a.cnc")
    assert main(["generate", "clique", "-o", out, "--source", "grid:3", "--ell", "2"]) == 2
    assert "source spec" in capsys.readouterr().err


@pytest.mark.parametrize("spec, reason", [
    ("cycle:2", "cycle needs at least 3 vertices"),
    ("random:5:100", "cannot place 100 edges on 5 vertices"),
    ("star:-1", "leaf count must be nonnegative"),
])
def test_generate_source_spec_keeps_the_builders_reason(tmp_path, capsys, spec, reason):
    out = str(tmp_path / "a.cnc")
    assert main(["generate", "clique", "-o", out, "--source", spec, "--ell", "2"]) == 2
    assert reason in capsys.readouterr().err


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


def test_bench_repeated_engine_is_an_input_error(capsys):
    # Both copies would write rep 0 for every instance; --reps repeats a run.
    argv = ["bench", "--family", "all:n=3:k=0:x=0", "--engines", "oracle,dp-y,oracle"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "engine 'oracle' is listed twice" in captured.err


@pytest.mark.parametrize("unbuffered", ["", "1"], ids=["buffered", "unbuffered"])
def test_bench_reader_closing_early_is_not_an_error(unbuffered):
    # `cnc bench ... | head -1`: the CSV (about 117 kB) outgrows the pipe, so
    # the writes after the reader leaves fail with EPIPE.
    src = str(Path(cncut.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src, "PYTHONUNBUFFERED": unbuffered}
    child = subprocess.Popen(
        [sys.executable, "-m", "cncut.cli", "bench", "--family", "all:n=5:k=0-1:x=0-3"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    assert child.stdout.readline().startswith("instance,engine,")
    child.stdout.close()
    err = child.stderr.read()
    child.stderr.close()
    assert child.wait(timeout=60) == 0
    assert err == ""


def test_bench_discrepancy_exit_code(tmp_path, capsys, monkeypatch):
    import cncut.bench as bench_mod

    def fake_bench(*args, **kwargs):
        raise BenchDiscrepancy("t", {"oracle": "YES", "dp-y": "NO"}, "p cnc 1 0\nk 0\nx 0\n")

    monkeypatch.setattr(bench_mod, "run_bench", fake_bench)
    monkeypatch.chdir(tmp_path)
    assert main(["bench", "--family", "all:n=3:k=0:x=0"]) == 4
    assert "bench aborted" in capsys.readouterr().err
    assert (tmp_path / "discrepancy-t.cnc").read_text() == "p cnc 1 0\nk 0\nx 0\n"


def run_child(code):
    """Run code in a fresh interpreter with the package on the path; its stdout."""
    src = str(Path(cncut.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_cli_import_skips_numpy():
    assert run_child("import sys, cncut.cli; print('numpy' in sys.modules)") == "False\n"


def test_catalogue_skips_numpy():
    code = (
        "import sys\n"
        "from cncut.bench import run_bench\n"
        "from cncut.families import enumerate_graphs\n"
        "assert len(run_bench('all:n=5:k=0:x=0')) == 34 * 4\n"
        "assert len(enumerate_graphs(7)) == 1044\n"
        "print('numpy' in sys.modules)\n"
    )
    assert run_child(code) == "False\n"


def test_package_imports_only_the_standard_library():
    package = Path(cncut.__file__).resolve().parent
    outside = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            outside += [(path.name, name) for name in names
                        if name.split(".")[0] not in sys.stdlib_module_names]
    assert outside == []


def test_package_keeps_only_what_runs():
    # Every public top-level function or class of the package is named in the
    # package outside its own definition, exported from the package root, or
    # traced by the benchmark; code that only the tests call lives in tests/.
    package = Path(cncut.__file__).resolve().parent
    tracer = (Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py").read_text(
        encoding="utf-8")

    def named(top):
        found = set()
        for node in ast.walk(top):
            if isinstance(node, ast.Name):
                found.add(node.id)
            elif isinstance(node, ast.Attribute):
                found.add(node.attr)
            elif isinstance(node, ast.alias):
                found.add(node.name.split(".")[-1])
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                found.add(node.value)
        return found

    tops = [(path.stem, top, named(top)) for path in sorted(package.glob("*.py"))
            for top in ast.parse(path.read_text(encoding="utf-8")).body]
    unused = []
    for module, defn, _ in tops:
        if not isinstance(defn, (ast.FunctionDef, ast.ClassDef)) or defn.name[0] == "_":
            continue
        elsewhere = set().union(*(names for _, top, names in tops if top is not defn))
        if not (defn.name in elsewhere or defn.name in cncut._MODULE_OF
                or f"{module}.{defn.name}" in tracer):
            unused.append(f"{module}.{defn.name}")
    assert unused == []


def test_only_certify_and_cnc_verify_call_verify_solution():
    # Each YES is verified once, by graph.certify; `cnc verify` checks a user's cut.
    package = Path(cncut.__file__).resolve().parent
    callers = set()
    for path in sorted(package.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and "verify_solution" in (
                    getattr(node.func, "id", None), getattr(node.func, "attr", None)
                ):
                    callers.add(f"{path.stem}.{getattr(top, 'name', '<module>')}")
    assert callers == {"graph.certify", "commands.cmd_verify"}


STAR17 = "p cnc 17 16\n" + "".join(f"e 1 {v}\n" for v in range(2, 18)) + "k 1\nx 0\n"
PATH17 = "p cnc 17 16\n" + "".join(f"e {v} {v + 1}\n" for v in range(1, 17)) + "k 5\nx 12\n"
PATH17_Y = PATH17.replace("k 5\nx 12", "k 1\ny 20")
# Three K5s joined in a path by two edges: deleting two vertices of each
# leaves 18 pairs. dp-y's scan would count 9,949 subsets of the one component.
CLIQUES3 = ("p cnc 15 32\n" + "".join(f"e {b + i} {b + j}\n" for b in (0, 5, 10)
                                      for i in range(1, 6) for j in range(i + 1, 6))
            + "e 5 6\ne 10 11\nk 6\nx 18\n")
SOLVE_BASE = ["cncut", "cncut.cli", "cncut.graph", "cncut.harness", "cncut.instance_io"]


def loaded_after_solve(tmp_path, text, *args):
    """`cnc solve` in a fresh interpreter: its output lines, then the modules loaded.

    The last line lists the cncut modules, and `dataclasses` and `inspect` when loaded.
    """
    path = write(tmp_path, "a.cnc", text)
    code = (
        "import sys\n"
        "from cncut.cli import main\n"
        f"assert main(['solve', {path!r}, *{list(args)!r}]) == 0\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.split('.')[0] in ('cncut', 'dataclasses', 'inspect')))\n"
    )
    return run_child(code).splitlines()


@pytest.mark.parametrize("text, algorithm, engine_modules", [
    (K3.replace("x 2", "x 6"), "trivial", []),
    (STAR17, "kernel", ["cncut.kernel"]),
    (K3, "oracle", ["cncut.kernel", "cncut.oracle"]),
    (PATH17_Y, "dp-y", ["cncut.component_dp", "cncut.kernel", "cncut.oracle"]),
    (PATH17_Y.replace("y 20", "x 252"), "dp-y",
     ["cncut.component_dp", "cncut.kernel", "cncut.oracle"]),
    (PATH17, "dp-wx", ["cncut.decomposition", "cncut.kernel", "cncut.treewidth_dp"]),
    (CLIQUES3, "branch-kx",
     ["cncut.branching", "cncut.decomposition", "cncut.kernel"]),
], ids=["trivial", "kernel", "oracle", "dp-y", "dp-y-x", "dp-wx", "branch-kx"])
def test_solve_loads_only_its_engine(tmp_path, text, algorithm, engine_modules):
    # A cold `cnc solve` loads the harness, the kernel rule that auto runs
    # first unless the target settles the instance, and the engine that runs;
    # never the generators (reductions, families), the bench or the other
    # subcommands. The kernel settles STAR17: its centre is forced. Auto
    # checks y before the width, so dp-y loads no decomposition however its
    # target is written; branch-kx loads it because auto reads the width first. No module
    # on the path builds a dataclass, so `dataclasses` and `inspect` stay out.
    out = loaded_after_solve(tmp_path, text)
    assert f"algorithm: {algorithm}" in out
    modules = ast.literal_eval(out[-1])
    assert "dataclasses" not in modules and "inspect" not in modules
    assert modules == sorted(SOLVE_BASE + engine_modules)


# A path of 16 bags, bag i holding the centre and leaf i + 1.
STAR17_TD = ("s td 16 2 17\n" + "".join(f"b {i} 1 {i + 1}\n" for i in range(1, 17))
             + "".join(f"{i} {i + 1}\n" for i in range(1, 16)))


@pytest.mark.parametrize("td", [False, True], ids=["algo", "td"])
def test_named_engine_and_supplied_decomposition_skip_the_kernel(tmp_path, td):
    # Under auto the rule would settle STAR17; a named engine, or a
    # decomposition of the input graph, goes to dp-wx on the raw instance.
    args = ["--td", write(tmp_path, "a.td", STAR17_TD)] if td else ["--algo", "dp-wx"]
    out = loaded_after_solve(tmp_path, STAR17, *args)
    assert "algorithm: dp-wx" in out
    modules = ast.literal_eval(out[-1])
    assert "cncut.treewidth_dp" in modules and "cncut.kernel" not in modules


GENERATE_MODULES = ["cncut", "cncut.cli", "cncut.commands", "cncut.families", "cncut.graph",
                    "cncut.harness", "cncut.instance_io", "cncut.reductions"]


@pytest.mark.parametrize("args", [
    ["clique", "--source", "complete:3", "--ell", "3"],
    ["mcc", "--source", "path:2", "--ell", "2", "--colors", "0,1", "--sizes", "2,3,4,5,6,7"],
], ids=["clique", "mcc"])
def test_generate_loads_no_engine(tmp_path, args):
    # The reductions build instances without any decomposition or engine.
    code = (
        "import sys\n"
        "from cncut.cli import main\n"
        f"assert main(['generate', '-o', {str(tmp_path / 'a.cnc')!r}] + {args!r}) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'cncut'))\n"
    )
    assert run_child(code).splitlines()[-1] == str(GENERATE_MODULES)


def test_package_root_resolves_every_export_lazily():
    code = (
        "import sys, cncut\n"
        "assert [m for m in sys.modules if m.startswith('cncut.')] == []\n"
        "for name in cncut.__all__:\n"
        "    obj = getattr(cncut, name)\n"
        "    assert obj.__module__.startswith('cncut.'), name\n"
        "    assert getattr(sys.modules[obj.__module__], name) is obj, name\n"
        "    assert name in dir(cncut), name\n"
        "try:\n"
        "    cncut.no_such_name\n"
        "except AttributeError:\n"
        "    print('ok')\n"
    )
    assert run_child(code).split() == ["ok"]


def test_mcc_cap_help_shows_the_default(capsys):
    # The parser states the cap without importing reductions, so the two copies
    # of the value are pinned equal here.
    from cncut.reductions import DEFAULT_MATERIALIZE_CAP

    with pytest.raises(SystemExit):
        main(["generate", "--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    assert f"mcc vertex cap (default {DEFAULT_MATERIALIZE_CAP})" in help_text


def test_usage_error_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["solve"])
    assert exc.value.code == 2


def test_public_names_are_stable():
    # Exported names change only with a stated reason. BranchDecision,
    # WxDecision and YDecision became the one engine result, graph.Decision.
    # connected_components moved to tests/reference.py with its
    # ComponentLabeling: no cnc path called it, since every engine reads
    # Graph.components.
    assert cncut.__all__ == [
        "BranchStats",
        "CapExceeded",
        "CliqueInstance",
        "CncInstance",
        "Cut",
        "Decision",
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
        "build_mcc_instance",
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
