"""`cnc` output pinned byte for byte: solve on one instance per solve path,
decompose (plain and `--nice`) on two graphs, and help.

`cli_golden.json` holds the outputs with the run-dependent parts removed: the
`"wall_ms"` line of `--json` and the `time:` line of the plain form. A change
to any record type behind `RunReport.to_dict` or to the parser shows here.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from cncut.cli import main

GOLDEN = Path(__file__).with_name("cli_golden.json")


def _chain(n):
    return f"p cnc {n} {n - 1}\n" + "".join(f"e {v} {v + 1}\n" for v in range(1, n))


def _cliques(count, size, bridges=()):
    edges = [(b * size + i, b * size + j) for b in range(count)
             for i in range(1, size + 1) for j in range(i + 1, size + 1)] + list(bridges)
    return (f"p cnc {count * size} {len(edges)}\n"
            + "".join(f"e {u} {v}\n" for u, v in edges))


K3 = "p cnc 3 3\ne 1 2\ne 1 3\ne 2 3\n"
STAR17 = "p cnc 17 16\n" + "".join(f"e 1 {v}\n" for v in range(2, 18))

# Each instance goes down the named path under auto.
INSTANCES = {
    "trivial": K3 + "k 0\nx 6\n",
    "kernel": STAR17 + "k 1\nx 0\n",
    "oracle": K3 + "k 1\nx 2\n",
    "dp-y": _chain(17) + "k 1\ny 20\n",
    "dp-wx": _chain(17) + "k 5\nx 12\n",
    "branch-kx": _cliques(3, 5, [(5, 6), (10, 11)]) + "k 6\nx 18\n",
}
# `cnc decompose` input: the dp-wx chain, and two triangles beside an
# isolated vertex, whose decomposition hangs three subtrees from an empty bag.
DECOMPOSE = {
    "chain": INSTANCES["dp-wx"],
    "two-triangles": "p cnc 7 6\n" + _cliques(2, 3).split("\n", 1)[1] + "k 1\nx 0\n",
}
COMMANDS = ["solve", "kernelize", "generate", "decompose", "bench", "verify"]


def _run(argv):
    """(exit code, stdout) of `cnc argv` in this process, help's SystemExit included."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def solve_outputs(tmp_path):
    found = {}
    for name, text in INSTANCES.items():
        path = tmp_path / f"{name}.cnc"
        path.write_text(text, encoding="utf-8")
        for flags in ([], ["--json"]):
            code, out = _run(["solve", str(path), *flags])
            kept = [line for line in out.splitlines(keepends=True)
                    if not line.startswith(("time: ", '  "wall_ms": '))]
            found[" ".join([name, *flags])] = [code, "".join(kept)]
    return found


def decompose_outputs(tmp_path):
    found = {}
    for name, text in DECOMPOSE.items():
        path = tmp_path / f"{name}.cnc"
        path.write_text(text, encoding="utf-8")
        for flags in ([], ["--nice"]):
            found[" ".join([name, *flags])] = list(_run(["decompose", str(path), *flags]))
    return found


def help_outputs():
    return {" ".join(cmd): list(_run([*cmd, "--help"]))
            for cmd in [[]] + [[c] for c in COMMANDS]}


def test_solve_output_is_pinned(tmp_path):
    assert solve_outputs(tmp_path) == json.loads(GOLDEN.read_text(encoding="utf-8"))["solve"]


def test_decompose_output_is_pinned(tmp_path):
    assert decompose_outputs(tmp_path) == json.loads(GOLDEN.read_text(encoding="utf-8"))["decompose"]


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="the help text was pinned under Python 3.11; argparse's layout varies")
def test_help_output_is_pinned(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert help_outputs() == json.loads(GOLDEN.read_text(encoding="utf-8"))["help"]
