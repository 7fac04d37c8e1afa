"""The `cnc` subcommands other than solve: kernelize, generate, decompose, bench, verify.

`cncut.cli` declares every subcommand's arguments but imports this module
only when one of these runs, so a `cnc solve` process never compiles it.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import TYPE_CHECKING

from .cli import _load_config, _read_text
from .graph import (
    Graph,
    InputError,
    complete_graph,
    cycle_graph,
    path_graph,
    star_graph,
    verify_solution,
)
from .harness import ENGINES
from .instance_io import CncInstance, parse_instance, serialize_instance

if TYPE_CHECKING:
    import random


def _int_list(text: str, flag: str) -> list[int]:
    try:
        return [int(v) for v in text.split(",")]
    except ValueError:
        raise InputError(f"{flag} needs comma-separated integers, got {text!r}") from None


def _parse_source(spec: str, rng: random.Random) -> Graph:
    from .families import random_graph

    builders = {"complete": complete_graph, "path": path_graph, "cycle": cycle_graph,
                "star": star_graph, "random": lambda n, m: random_graph(n, m, rng)}
    kind, *args = spec.split(":")
    if kind not in builders or len(args) != 1 + (kind == "random"):
        raise InputError(
            f"unknown source spec {spec!r}; use complete:N, path:N, cycle:N, star:N "
            "or random:N:M"
        )
    try:
        nums = [int(a) for a in args]
    except ValueError:
        raise InputError(f"bad source spec {spec!r}") from None
    # A builder's own InputError keeps its reason.
    return builders[kind](*nums)


def cmd_kernelize(args) -> int:
    import json

    from .kernel import kernelize_kx

    inst = parse_instance(_read_text(args.instance))
    x_eff = inst.x_equivalent()
    if x_eff < 0:
        reason = "the removal target exceeds the pairs present"
        if args.json:
            print(json.dumps({"answer": "NO", "reason": reason}, indent=2))
        else:
            print(f"answer: NO ({reason})")
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
    import dataclasses
    import json
    import random

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
            if len(vals) != 6:
                raise InputError("--sizes needs 6 comma-separated values A,B,Cv,X,Y,Z")
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
    from .decomposition import (
        TreeDecomposition,
        heuristic_decomposition,
        make_nice,
        nice_annotations,
        serialize_td,
    )

    inst = parse_instance(_read_text(args.instance))
    g = inst.graph
    td = heuristic_decomposition(g)
    if args.nice:
        ntd = make_nice(td)
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
    import csv

    from .bench import CSV_COLUMNS, BenchDiscrepancy, run_bench

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
        import json

        print(json.dumps(payload, indent=2))
    else:
        print(f"valid: {'yes' if res.ok else 'no'}")
        print(f"cut size: {res.cut_size} (budget {res.budget})")
        print(f"residual pairs: {res.residual_pairs} (bound {res.pair_bound})")
    return 0 if res.ok else 1
