"""End-to-end acceptance checks for the whole toolkit.

Each test covers one advertised guarantee and prints a single PASS/FAIL
line with the evidence counts. Failures are collected first so the line
is printed before the assertion fires.
"""

import random
import time
import warnings
from collections import Counter
from itertools import combinations
from math import comb

import pytest

from cncut.branching import solve_branch_kx
from cncut.component_dp import solve_y
from cncut.decomposition import (
    TreeDecomposition,
    heuristic_decomposition,
    make_nice,
    validate_decomposition,
    validate_nice,
)
from cncut.families import enumerate_graphs, random_graph
from cncut.graph import (
    Graph,
    complete_graph,
    component_size_census,
    connected_pairs,
    path_graph,
    verify_solution,
)
from cncut.instance_io import CncInstance, parse_instance, serialize_instance
from cncut.kernel import kernel_bound_holds, kernelize_kx
from cncut.oracle import oracle_decides, oracle_min_pairs
from cncut.reductions import (
    CliqueInstance,
    GadgetSizes,
    build_mcc_instance,
    cross_compose,
    forward_solution_cut,
    has_clique,
    mcc_parameters,
    reduce_clique_to_cnc,
)
from cncut.treewidth_dp import compute_tables, read_decision, solve_wx

K_MAX = 3
X_MAX = 10

# Every branch-kx run in this file reports into this list so the search
# tree envelope can be asserted over all of them at once.
_branch_runs: list[tuple[int, int, int]] = []  # (nodes_visited, k, x)


def _verdict(label: str, violations: list, detail: str) -> None:
    ok = not violations
    print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}")
    assert ok, f"{label}: first violations {violations[:5]}"


def _branch(g: Graph, k: int, x: int):
    d = solve_branch_kx(g, k, x)
    _branch_runs.append((d.stats.nodes_visited, k, x))
    return d


@pytest.fixture(scope="module")
def suite() -> list[Graph]:
    """Exhaustive catalogue up to 7 vertices plus 500 seeded random graphs."""
    graphs = [g for n in range(8) for g in enumerate_graphs(n)]
    rng = random.Random(8127)
    for _ in range(500):
        n = rng.randrange(8, 13)
        m = rng.randrange(0, comb(n, 2) + 1)
        graphs.append(random_graph(n, m, rng))
    return graphs


@pytest.fixture(scope="module")
def min_residuals(suite) -> dict[tuple[int, int], int]:
    """Brute-force minimum residual pairs for every suite graph and budget."""
    answers = {}
    for gi, g in enumerate(suite):
        for k in range(K_MAX + 1):
            answers[gi, k] = oracle_min_pairs(g, k).min_residual_pairs
    return answers


def test_engine_cross_validation(suite, min_residuals):
    start = time.perf_counter()
    violations = []
    cells = 0
    for gi, g in enumerate(suite):
        total = connected_pairs(g)
        if g.n == 0:
            for k in range(K_MAX + 1):
                for x in range(X_MAX + 1):
                    cells += 1
                    if not (_branch(g, k, x).answer
                            and solve_wx(g, k, x).answer
                            and solve_y(g, k, total - x).answer):
                        violations.append((gi, k, x, "empty graph"))
            continue
        ntd = make_nice(heuristic_decomposition(g))
        tables = compute_tables(g, ntd, K_MAX, X_MAX)
        for k in range(K_MAX + 1):
            expected_from = min_residuals[gi, k]
            for x in range(X_MAX + 1):
                cells += 1
                expected = expected_from <= x
                got = {
                    "branch-kx": _branch(g, k, x).answer,
                    "dp-wx": read_decision(tables, ntd, k, x) is not None,
                    "dp-y": solve_y(g, k, total - x).answer,
                }
                for engine, answer in got.items():
                    if answer != expected:
                        violations.append((gi, g.n, k, x, engine, answer))
    elapsed = time.perf_counter() - start
    _verdict(
        "engine cross-validation vs oracle",
        violations,
        f"{len(suite)} graphs, {cells} (k,x) cells, 3 engines, {elapsed:.1f}s",
    )
    assert elapsed < 1800


def test_vertex_cover_degeneration():
    rng = random.Random(4051)
    violations = []
    checked = 0
    for _ in range(200):
        n = rng.randrange(4, 17)
        m = rng.randrange(0, min(comb(n, 2), 2 * n) + 1)
        g = random_graph(n, m, rng)
        edges = sorted(g.edges)
        for k in range(5):
            covered = not edges or any(
                all(u in c or v in c for u, v in edges)
                for c in map(set, combinations(range(n), min(k, n)))
            )
            checked += 1
            if _branch(g, k, 0).answer != covered:
                violations.append((n, edges, k))
    _verdict(
        "x=0 degenerates to vertex cover",
        violations,
        f"200 random graphs (n <= 16), {checked} budgets against brute force",
    )


def test_kernel_bound_and_equivalence(suite, min_residuals):
    violations = []
    yes_cells = 0
    for gi, g in enumerate(suite):
        for k in range(K_MAX + 1):
            expected_from = min_residuals[gi, k]
            for x in range(X_MAX + 1):
                if expected_from > x:
                    continue
                yes_cells += 1
                trace = kernelize_kx(g, k, x)
                if trace.infeasible:
                    violations.append((gi, k, x, "forced past the budget"))
                    continue
                if not kernel_bound_holds(trace.kernel_graph.n, k, x):
                    violations.append((gi, k, x, "size bound"))
                if not oracle_decides(trace.kernel_graph, trace.k_out, x):
                    violations.append((gi, k, x, "kernel flipped to NO"))
    _verdict(
        "kernel size bound and decision preservation",
        violations,
        f"{yes_cells} yes-instances, bound k(k+sqrt(x))+x+k",
    )


def test_branch_search_tree_envelope():
    rng = random.Random(6619)
    for n in range(6):
        for g in enumerate_graphs(n):
            for k in range(K_MAX + 1):
                for x in range(X_MAX + 1):
                    _branch(g, k, x)
    for _ in range(50):
        n = rng.randrange(8, 13)
        g = random_graph(n, rng.randrange(0, comb(n, 2) + 1), rng)
        _branch(g, rng.randrange(K_MAX + 1), rng.randrange(X_MAX + 1))
    violations = [
        (nodes, k, x) for nodes, k, x in _branch_runs if nodes > 3 ** (x + k)
    ]
    _verdict(
        "branching visits at most 3^(x+k) nodes",
        violations,
        f"{len(_branch_runs)} recorded runs across this file",
    )
    # Ordered pairs: a solution leaves at most x // 2 edges, and the search
    # only spends that much edge budget.
    tight = [
        (nodes, k, x) for nodes, k, x in _branch_runs if nodes > 3 ** (k + x // 2)
    ]
    _verdict(
        "branching visits at most 3^(k + x//2) nodes",
        tight,
        f"{len(_branch_runs)} recorded runs across this file",
    )


def test_clique_reduction_fidelity():
    violations = []
    checked = 0
    for n in range(1, 6):
        for g in enumerate_graphs(n):
            for ell in range(1, n + 1):
                out = reduce_clique_to_cnc(CliqueInstance(g, ell))
                x_eff = connected_pairs(out.graph) - out.y
                got = x_eff >= 0 and oracle_decides(out.graph, out.k, x_eff)
                checked += 1
                if got != has_clique(g, ell):
                    violations.append((n, sorted(g.edges), ell, got))
    example = reduce_clique_to_cnc(CliqueInstance(complete_graph(3), 3))
    if (example.graph.n, example.k, example.y) != (12, 3, 132):
        violations.append(("triangle example", example.graph.n, example.k, example.y))
    _verdict(
        "clique reduction fidelity",
        violations,
        f"{checked} (source, ell) pairs with n <= 5, triangle example N=12 k=3 y=132",
    )


def test_mcc_forward_accounting():
    rng = random.Random(2747)
    edge = CliqueInstance(Graph.from_edges(2, [(0, 1)]), 2, colors=(0, 1))
    path = CliqueInstance(path_graph(3), 2, colors=(0, 1, 0))
    violations = []
    built = 0
    for source in (edge, path):
        g = source.graph
        for _ in range(50):
            sizes = GadgetSizes(*(rng.randint(1, 5) for _ in range(7)))
            out, layout = build_mcc_instance(source, sizes)
            cut = forward_solution_cut(layout, [0, 1])
            built += 1
            report = verify_solution(out.graph, sorted(cut.vertices), out.k, out.x)
            if len(cut.vertices) != out.k or not report or report.residual_pairs != out.x:
                violations.append((g.n, sizes, "pair accounting"))
                continue
            expected = Counter()
            for size, count in mcc_parameters(g.n, g.m, 2, sizes).component_census:
                if count:
                    expected[size] += count
            census = component_size_census(out.graph, tuple(cut.vertices))
            if dict(census) != dict(expected):
                violations.append((g.n, sizes, census, dict(expected)))
    _verdict(
        "forward cuts hit the budget, the pair target, and the component census",
        violations,
        f"{built} gadget builds at ell=2, sources n=2 and n=3",
    )


def test_treewidth_machinery():
    rng = random.Random(9203)
    violations = []

    for i in range(1000):
        n = rng.randrange(1, 31)
        m = rng.randrange(0, min(comb(n, 2), 3 * n) + 1)
        g = random_graph(n, m, rng)
        td = heuristic_decomposition(g)
        if not validate_decomposition(g, td).ok:
            violations.append(("raw", i, n, m))
            continue
        if not validate_nice(g, make_nice(td)).ok:
            violations.append(("nice", i, n, m))

    for i in range(120):
        n = rng.randrange(2, 31)
        edges = [(rng.randrange(v), v) for v in range(1, n) if rng.random() < 0.8]
        if not edges:
            edges = [(0, 1)]
        forest = Graph.from_edges(n, edges)
        if heuristic_decomposition(forest).width != 1:
            violations.append(("forest width", i, n, edges))

    for i in range(100):
        n = rng.randrange(3, 8)
        g = random_graph(n, rng.randrange(0, comb(n, 2) + 1), rng)
        k = rng.randrange(0, 3)
        x = rng.randrange(0, 7)
        expected = oracle_decides(g, k, x)
        one_bag = make_nice(TreeDecomposition((frozenset(range(n)),), ()))
        fill = set(g.edges)
        while len(fill) < min(comb(n, 2), g.m + 3):
            u, v = rng.sample(range(n), 2)
            fill.add((min(u, v), max(u, v)))
        padded = heuristic_decomposition(Graph.from_edges(n, sorted(fill)))
        if not validate_decomposition(g, padded).ok:
            violations.append(("padded invalid", i))
            continue
        for tag, ntd in (("one-bag", one_bag), ("padded", make_nice(padded))):
            if solve_wx(g, k, x, ntd=ntd).answer != expected:
                violations.append((tag, i, n, k, x))
    _verdict(
        "treewidth machinery",
        violations,
        "1000 validated decompositions (n <= 30), 120 forests at width 1, "
        "100 decomposition-independent decisions",
    )


def test_component_dp_envelope():
    rng = random.Random(3319)
    violations = []
    table_runs = 0
    shortcut_runs = 0
    cases = [
        (g, k, y)
        for n in range(1, 7)
        for g in enumerate_graphs(n)
        for k in range(1, 3)
        for y in range(1, 11)
    ]
    for _ in range(300):
        n = rng.randrange(2, 13)
        g = random_graph(n, rng.randrange(0, comb(n, 2) + 1), rng)
        cases.append((g, rng.randrange(1, 4), rng.randrange(1, 13)))
    for g, k, y in cases:
        d = solve_y(g, k, y)
        census = component_size_census(g)
        largest = max(census, default=1)
        if largest > y:
            shortcut_runs += 1
            if not d.answer:
                violations.append((g.n, k, y, "oversized component not a YES"))
        if d.stats.subsets_examined:
            table_runs += 1
            for count in d.stats.subsets_examined:
                if count > 2 ** y:
                    violations.append((g.n, k, y, count))
    _verdict(
        "per-component tables stay under 2^y subsets",
        violations,
        f"{len(cases)} runs, {table_runs} built tables, "
        f"{shortcut_runs} oversized-component shortcuts",
    )


def test_cross_composition():
    tri_iso = Graph.from_edges(4, [(0, 1), (0, 2), (1, 2)])
    p4 = path_graph(4)
    p3 = path_graph(3)
    k3 = complete_graph(3)
    k2 = complete_graph(2)
    cases = [
        ([k3, k3], 3),
        ([p3, p3], 3),
        ([p3, p3, p3], 3),
        ([k2, k2], 2),
        ([k2, k2, k2], 2),
        ([tri_iso, p4], 3),
        ([p4, p4], 3),
    ]
    violations = []
    for sources, ell in cases:
        expected = any(has_clique(g, ell) for g in sources)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            out = cross_compose([CliqueInstance(g, ell) for g in sources], ell)
        x_eff = connected_pairs(out.graph) - out.y
        got = x_eff >= 0 and oracle_decides(out.graph, out.k, x_eff)
        if got != expected:
            violations.append((ell, out.graph.n, [sorted(g.edges) for g in sources]))
    _verdict(
        "cross-composition is YES iff a constituent is YES",
        violations,
        f"{len(cases)} compositions of 2-3 parts, oracle-checked up to 32 vertices",
    )


def test_round_trip_thousand():
    rng = random.Random(5101)
    violations = []
    for i in range(1000):
        n = rng.randrange(0, 13)
        g = random_graph(n, rng.randrange(0, comb(n, 2) + 1), rng)
        k = rng.randrange(0, 6)
        comments = ("generated case %d" % i,) if i % 3 == 0 else ()
        if rng.random() < 0.5:
            inst = CncInstance(g, k, x=rng.randrange(0, 200), comments=comments)
        else:
            inst = CncInstance(g, k, y=rng.randrange(0, 200), comments=comments)
        text = serialize_instance(inst)
        again = parse_instance(text)
        if serialize_instance(again) != text:
            violations.append(i)
        elif (again.k, again.x, again.y, again.comments) != (inst.k, inst.x, inst.y, inst.comments):
            violations.append(i)
        elif again.graph.n != n or set(again.graph.edges) != set(g.edges):
            violations.append(i)
    _verdict(
        "serialize/parse round trip is byte-identical",
        violations,
        "1000 random instances",
    )
