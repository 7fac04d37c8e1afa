"""Command-line entry point.

Subcommands: solve, kernelize, generate, decompose, bench, verify.
Exit codes: 0 = YES (or plain success), 1 = NO (or failed verification),
2 = usage or parse error, 3 = refusal, 4 = benchmark discrepancy abort.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import random
import sys
from pathlib import Path

from .bench import CSV_COLUMNS, BenchDiscrepancy, run_bench
from .decomposition import (
    StructuralError,
    TreeDecomposition,
    heuristic_decomposition,
    make_nice,
    nice_annotations,
    parse_td,
    serialize_td,
    validate_decomposition,
    validate_nice,
)
from .graph import (
    Graph,
    InputError,
    Refusal,
    complete_graph,
    cycle_graph,
    path_graph,
    star_graph,
    verify_solution,
)
from .harness import ENGINES, HarnessConfig, run_instance
from .instance_io import CncInstance, parse_instance, serialize_instance
from .kernel import kernelize_kx
from .families import random_graph
from .reductions import (
    DEFAULT_MATERIALIZE_CAP,
    CliqueInstance,
    GadgetSizes,
    build_mcc_instance,
    cross_compose,
    reduce_clique_bipartite,
    reduce_clique_split,
    reduce_clique_to_cnc,
)


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text(encoding="utf-8")


def _load_config(args) -> HarnessConfig:
    return HarnessConfig() if args.cap is None else HarnessConfig(oracle_cap=args.cap)


def _int_list(text: str, flag: str) -> list[int]:
    try:
        return [int(v) for v in text.split(",")]
    except ValueError:
        raise InputError(f"{flag} needs comma-separated integers, got {text!r}") from None


def _positive(text: str) -> int:
    if int(text) <= 0:
        raise argparse.ArgumentTypeError(f"must be positive, got {text}")
    return int(text)


def _parse_source(spec: str, rng: random.Random) -> Graph:
    parts = spec.split(":")
    kind = parts[0]
    try:
        if kind == "complete" and len(parts) == 2:
            return complete_graph(int(parts[1]))
        if kind == "path" and len(parts) == 2:
            return path_graph(int(parts[1]))
        if kind == "cycle" and len(parts) == 2:
            return cycle_graph(int(parts[1]))
        if kind == "star" and len(parts) == 2:
            return star_graph(int(parts[1]))
        if kind == "random" and len(parts) == 3:
            return random_graph(int(parts[1]), int(parts[2]), rng)
    except ValueError:
        raise InputError(f"bad source spec {spec!r}") from None
    raise InputError(
        f"unknown source spec {spec!r}; use complete:N, path:N, cycle:N, star:N "
        "or random:N:M"
    )


def cmd_solve(args) -> int:
    inst = parse_instance(_read_text(args.instance))
    config = _load_config(args)
    ntd = None
    algo = args.algo
    if args.td:
        if algo not in ("auto", "dp-wx"):
            print("error: --td only applies to the dp-wx engine", file=sys.stderr)
            return 2
        algo = "dp-wx"
        td, _ = parse_td(_read_text(args.td))
        report = validate_decomposition(inst.graph, td)
        if not report.ok:
            print(f"error: supplied decomposition invalid: {report.message}", file=sys.stderr)
            return 2
        ntd = make_nice(td)

    result = run_instance(inst, algo=algo, config=config, ntd=ntd)

    if args.cert and result.cut is not None:
        Path(args.cert).write_text(
            "".join(f"{v + 1}\n" for v in result.cut), encoding="utf-8"
        )
    if args.json:
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


def cmd_kernelize(args) -> int:
    inst = parse_instance(_read_text(args.instance))
    x_eff = inst.x_equivalent()
    if x_eff < 0:
        print("answer: NO (the removal target exceeds the pairs present)")
        return 1
    trace = kernelize_kx(inst.graph, inst.k, x_eff)
    if trace.infeasible:
        if args.json:
            print(json.dumps({
                "answer": "NO",
                "forced": [v + 1 for v in trace.forced_vertices],
                "reason": "the high-degree rule forced more than k deletions",
            }, indent=2))
        else:
            print("answer: NO (the high-degree rule forced more than k deletions)")
        return 1
    kernel = CncInstance(trace.kernel_graph, trace.k_out, x=x_eff)
    text = serialize_instance(kernel)
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
    summary = {
        "kernel_n": trace.kernel_graph.n,
        "kernel_m": trace.kernel_graph.m,
        "k_out": trace.k_out,
        "x": x_eff,
        "forced": [v + 1 for v in trace.forced_vertices],
        "discarded_isolated": [v + 1 for v in trace.discarded_isolated],
        "kernel_to_original": [v + 1 for v in trace.kernel_to_original],
    }
    if args.json:
        print(json.dumps(summary, indent=2))
    elif args.out:
        print(f"kernel: n={summary['kernel_n']} m={summary['kernel_m']} "
              f"k={summary['k_out']} x={x_eff} -> {args.out}")
        if trace.forced_vertices:
            print("forced:", " ".join(str(v + 1) for v in trace.forced_vertices))
    else:
        print(text, end="")
    return 0


def cmd_generate(args) -> int:
    rng = random.Random(args.seed)
    sidecar: dict = {"kind": args.kind, "seed": args.seed}
    if args.kind == "random":
        for name in ("n", "m", "k"):
            if getattr(args, name) is None:
                raise InputError(f"generate random needs --{name}")
        if (args.x is None) == (args.y is None):
            raise InputError("generate random needs exactly one of --x and --y")
        g = random_graph(args.n, args.m, rng)
        inst = CncInstance(g, args.k, x=args.x, y=args.y)
        sidecar.update({"n": g.n, "m": g.m})
    elif args.kind in ("clique", "split", "bipartite"):
        if not args.source or len(args.source) != 1:
            raise InputError(f"generate {args.kind} needs exactly one --source")
        if args.ell is None:
            raise InputError("--ell is required")
        src = CliqueInstance(_parse_source(args.source[0], rng), args.ell)
        builder = {
            "clique": reduce_clique_to_cnc,
            "split": reduce_clique_split,
            "bipartite": reduce_clique_bipartite,
        }[args.kind]
        out = builder(src)
        inst = CncInstance(out.graph, out.k, y=out.y)
        sidecar.update({"source": args.source[0], "ell": args.ell,
                        "roles": list(out.roles), "notes": out.notes})
    elif args.kind == "compose":
        if not args.source or len(args.source) < 2:
            raise InputError("generate compose needs two or more --source")
        if args.ell is None:
            raise InputError("--ell is required")
        instances = [CliqueInstance(_parse_source(s, rng), args.ell) for s in args.source]
        out = cross_compose(instances, args.ell)
        inst = CncInstance(out.graph, out.k, y=out.y)
        sidecar.update({"sources": list(args.source), "ell": args.ell,
                        "roles": list(out.roles), "notes": out.notes})
    elif args.kind == "mcc":
        if not args.source or len(args.source) != 1:
            raise InputError("generate mcc needs exactly one --source")
        if args.ell is None or not args.colors:
            raise InputError("generate mcc needs --ell and --colors")
        colors = tuple(_int_list(args.colors, "--colors"))
        g = _parse_source(args.source[0], rng)
        src = CliqueInstance(g, args.ell, colors=colors)
        if args.sizes:
            vals = _int_list(args.sizes, "--sizes")
            if len(vals) != 7:
                raise InputError("--sizes needs 7 comma-separated values A,B,Cv,L3,X,Y,Z")
            sizes = GadgetSizes(*vals)
        else:
            sizes = GadgetSizes.reference(g.n, args.ell)
        cap = DEFAULT_MATERIALIZE_CAP if args.cap is None else args.cap
        out, layout = build_mcc_instance(src, sizes, cap=cap)
        inst = CncInstance(out.graph, out.k, x=out.x)
        sidecar.update({
            "source": args.source[0], "ell": args.ell, "colors": list(colors),
            "sizes": dataclasses.asdict(sizes), "roles": list(out.roles),
            "notes": out.notes, "total_vertices": layout.total,
        })
    else:
        raise InputError(f"unknown generate kind {args.kind!r}")

    text = serialize_instance(inst)
    Path(args.out).write_text(text, encoding="utf-8")
    sidecar.update({"k": inst.k, "x": inst.x, "y": inst.y})
    Path(args.out + ".json").write_text(
        json.dumps(sidecar, indent=2) + "\n", encoding="utf-8"
    )
    print(f"wrote {args.out} (n={inst.graph.n} m={inst.graph.m} k={inst.k}) "
          f"and {args.out}.json")
    return 0


def cmd_decompose(args) -> int:
    inst = parse_instance(_read_text(args.instance))
    g = inst.graph
    td = heuristic_decomposition(g)
    report = validate_decomposition(g, td)
    if not report.ok:
        raise AssertionError(f"heuristic produced an invalid decomposition: {report.message}")
    if args.nice:
        ntd = make_nice(td)
        nice_report = validate_nice(g, ntd)
        if not nice_report.ok:
            raise AssertionError(f"nice form invalid: {nice_report.message}")
        flat = TreeDecomposition(
            tuple(frozenset(node.bag) for node in ntd.nodes),
            tuple((i, c) for i, node in enumerate(ntd.nodes) for c in node.children),
        )
        text = serialize_td(flat, g.n) + nice_annotations(ntd)
        width = ntd.width
    else:
        text = serialize_td(td, g.n)
        width = td.width
    if args.out:
        Path(args.out).write_text(text, encoding="utf-8")
        print(f"wrote {args.out} (width {width}, {'nice, ' if args.nice else ''}"
              f"{len(text.splitlines())} lines)")
    else:
        sys.stdout.write(text)
    return 0


def cmd_bench(args) -> int:
    engines = tuple(args.engines.split(",")) if args.engines else ENGINES
    config = _load_config(args)
    try:
        rows = run_bench(args.family, engines, reps=args.reps, config=config)
    except BenchDiscrepancy as exc:
        dump = Path(f"discrepancy-{exc.name}.cnc")
        dump.write_text(exc.instance_text, encoding="utf-8")
        print(f"bench aborted: {exc}\ninstance dumped to {dump}", file=sys.stderr)
        return 4
    out = open(args.out, "w", newline="", encoding="utf-8") if args.out else sys.stdout
    try:
        writer = csv.DictWriter(out, fieldnames=CSV_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)
    finally:
        if args.out:
            out.close()
            print(f"wrote {args.out} ({len(rows)} rows)")
    return 0


def cmd_verify(args) -> int:
    inst = parse_instance(_read_text(args.instance))
    ids: set[int] = set()
    for line_no, raw in enumerate(_read_text(args.cut).splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        try:
            v = int(line)
        except ValueError:
            raise InputError(f"cut file line {line_no}: not a vertex id: {line!r}") from None
        if not (1 <= v <= inst.graph.n):
            raise InputError(f"cut file line {line_no}: vertex {v} out of range")
        if v - 1 in ids:
            raise InputError(f"cut file line {line_no}: duplicate vertex {v}")
        ids.add(v - 1)
    res = verify_solution(inst.graph, ids, inst.k, inst.x_equivalent())
    payload = {
        "valid": res.ok,
        "cut_size": res.cut_size,
        "budget": res.budget,
        "residual_pairs": res.residual_pairs,
        "pair_bound": res.pair_bound,
    }
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        print(f"valid: {'yes' if res.ok else 'no'}")
        print(f"cut size: {res.cut_size} (budget {res.budget})")
        print(f"residual pairs: {res.residual_pairs} (bound {res.pair_bound})")
    return 0 if res.ok else 1


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
    p.add_argument("--cap", type=_positive, help="oracle candidate cap override")
    p.add_argument("--json", action="store_true")
    p.add_argument("--cert", help="write the cut, one 1-based id per line")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("kernelize", help="apply the high-degree reduction")
    p.add_argument("instance")
    p.add_argument("-o", "--out", help="write the kernel instance here")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_kernelize)

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
    p.add_argument("--sizes", help="A,B,Cv,L3,X,Y,Z gadget sizes (mcc)")
    p.add_argument("--cap", type=_positive,
                   help=f"mcc vertex cap (default {DEFAULT_MATERIALIZE_CAP})")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("decompose", help="emit a tree decomposition")
    p.add_argument("instance")
    p.add_argument("-o", "--out")
    p.add_argument("--nice", action="store_true",
                   help="emit the nice form with node-kind annotations")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("bench", help="run an instance family across engines")
    p.add_argument("--family", required=True,
                   help="e.g. all:n=6:k=0-3:x=0-8 or random:n=10:m=15:count=20:seed=1:k=2:x=0-6")
    p.add_argument("--engines", help="comma-separated subset of " + ",".join(ENGINES))
    p.add_argument("--reps", type=_positive, default=1)
    p.add_argument("--cap", type=_positive, help="oracle candidate cap override")
    p.add_argument("-o", "--out", help="CSV path (default stdout)")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("verify", help="check a cut against an instance")
    p.add_argument("instance")
    p.add_argument("--cut", required=True, help="file with one 1-based id per line")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Refusal as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 3
    except (InputError, StructuralError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
