"""Command-line entry point.

Subcommands: solve, kernelize, generate, decompose, bench, verify.
Exit codes: 0 = YES (or plain success), 1 = NO (or failed verification),
2 = usage or parse error, 3 = refusal, 4 = benchmark discrepancy abort.

This module holds the parser, `main` and `cmd_solve`; the other subcommands
live in `cncut.commands`, which `main` imports only when one of them runs.
Each subcommand imports the modules only it uses, so a `cnc solve` process
loads the harness, the kernel rule that auto runs first and the one engine
that runs, not the generators, the other subcommands or the bench.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .graph import InputError, Refusal
from .harness import ENGINES, HarnessConfig, run_instance
from .instance_io import parse_instance


def _read_text(path: str) -> str:
    """A file's text, or stdin's for "-", without a leading UTF-8 byte-order mark."""
    text = sys.stdin.read() if path == "-" else Path(path).read_text(encoding="utf-8")
    return text.removeprefix("\ufeff")


def _load_config(args) -> HarnessConfig:
    return HarnessConfig() if args.cap is None else HarnessConfig(oracle_cap=args.cap)


def _positive(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return value


def cmd_solve(args) -> int:
    inst = parse_instance(_read_text(args.instance))
    config = _load_config(args)
    ntd = None
    algo = args.algo
    if args.td:
        from .decomposition import StructuralError, make_nice, parse_td, validate_decomposition

        if algo not in ("auto", "dp-wx"):
            raise InputError("--td only applies to the dp-wx engine")
        algo = "dp-wx"
        td, declared_n = parse_td(_read_text(args.td))
        if declared_n != inst.graph.n:
            raise StructuralError(
                f"supplied decomposition invalid: its header declares {declared_n} "
                f"vertices, the instance has {inst.graph.n}"
            )
        report = validate_decomposition(inst.graph, td)
        if not report.ok:
            raise StructuralError(f"supplied decomposition invalid: {report.message}")
        ntd = make_nice(td)

    result = run_instance(inst, algo=algo, config=config, ntd=ntd)

    if args.cert and result.cut is not None:
        Path(args.cert).write_text(
            "".join(f"{v + 1}\n" for v in result.cut), encoding="utf-8"
        )
    if args.json:
        import json

        print(json.dumps(result.to_dict(), indent=2))
    else:
        g = inst.graph
        target = f"x: {inst.x}" if inst.x is not None else f"y: {inst.y}"
        print(f"answer: {result.answer}")
        print(f"algorithm: {result.algorithm}")
        print(f"n: {g.n}  m: {g.m}  k: {inst.k}  {target}")
        if result.cut is not None:
            print("cut:", " ".join(str(v + 1) for v in result.cut) or "(empty)")
            print(f"residual pairs: {result.residual_pairs}")
            print(f"pairs removed: {result.pairs_removed}")
        print(f"time: {result.wall_ms:.1f} ms")
    return 0 if result.answer == "YES" else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cnc",
        description="Critical node cut toolkit: delete at most k vertices so that "
                    "at most x ordered connected pairs remain.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="decide one instance")
    p.add_argument("instance", help="instance file, or - for stdin")
    p.add_argument("--algo", choices=("auto",) + ENGINES, default="auto")
    p.add_argument("--td", help="tree decomposition file for dp-wx")
    p.add_argument("--cap", type=_positive, help="subset-scan candidate cap (oracle and dp-y)")
    p.add_argument("--json", action="store_true")
    p.add_argument("--cert", help="write the cut, one 1-based id per line")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("kernelize", help="apply the high-degree reduction")
    p.add_argument("instance")
    p.add_argument("-o", "--out", help="write the kernel instance here")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func="cmd_kernelize")

    p = sub.add_parser("generate", help="write a generated instance plus sidecar")
    p.add_argument("kind", choices=("random", "clique", "split", "bipartite",
                                    "compose", "mcc"))
    p.add_argument("-o", "--out", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n", type=int)
    p.add_argument("--m", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--x", type=int)
    p.add_argument("--y", type=int)
    p.add_argument("--source", action="append",
                   help="complete:N | path:N | cycle:N | star:N | random:N:M")
    p.add_argument("--ell", type=int, help="clique size")
    p.add_argument("--colors", help="comma-separated vertex colors (mcc)")
    p.add_argument("--sizes", help="A,B,Cv,X,Y,Z gadget sizes (mcc)")
    p.add_argument("--cap", type=_positive,
                   help="mcc vertex cap (default 100000)")
    p.set_defaults(func="cmd_generate")

    p = sub.add_parser("decompose", help="emit a tree decomposition")
    p.add_argument("instance")
    p.add_argument("-o", "--out")
    p.add_argument("--nice", action="store_true",
                   help="emit the nice form with node-kind annotations")
    p.set_defaults(func="cmd_decompose")

    p = sub.add_parser("bench", help="run an instance family across engines")
    p.add_argument("--family", required=True,
                   help="e.g. all:n=6:k=0-3:x=0-8 or random:n=10:m=15:count=20:seed=1:k=2:x=0-6")
    p.add_argument("--engines", help="comma-separated subset of " + ",".join(ENGINES))
    p.add_argument("--reps", type=_positive, default=1)
    p.add_argument("--cap", type=_positive, help="subset-scan candidate cap (oracle and dp-y)")
    p.add_argument("-o", "--out", help="CSV path (default stdout)")
    p.set_defaults(func="cmd_bench")

    p = sub.add_parser("verify", help="check a cut against an instance")
    p.add_argument("instance")
    p.add_argument("--cut", required=True, help="file with one 1-based id per line")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func="cmd_verify")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    func = args.func
    if isinstance(func, str):  # the name of a command in cncut.commands
        from . import commands

        func = getattr(commands, func)
    code = 0
    try:
        code = func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader left early, as in `cnc bench ... | head -1`: not an error.
        # stdout goes to devnull so the flush at exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    except Refusal as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 3
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
