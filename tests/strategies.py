"""Shared hypothesis strategies, small deterministic graph helpers and a memory probe."""

from itertools import combinations
import os
from pathlib import Path
import random
import subprocess
import sys

from hypothesis import assume, strategies as st

from cncut.decomposition import TreeDecomposition, validate_decomposition
from cncut.graph import Graph


@st.composite
def graphs(draw, min_n=0, max_n=8, max_m=None):
    n = draw(st.integers(min_n, max_n))
    pool = list(combinations(range(n), 2))
    if not pool:
        return Graph(n, frozenset())
    cap = len(pool) if max_m is None else min(max_m, len(pool))
    edges = draw(st.lists(st.sampled_from(pool), unique=True, max_size=cap))
    return Graph(n, frozenset(edges))


@st.composite
def bag_trees(draw, max_n=6, max_bags=8):
    """A random tree of random bags over 0..n (n itself lies outside the graph)."""
    n = draw(st.integers(1, max_n))
    count = draw(st.integers(1, max_bags))
    labels = draw(st.permutations(range(count)))
    edges = []
    for i in range(1, count):
        a, b = labels[draw(st.integers(0, i - 1))], labels[i]
        edges.append((a, b) if draw(st.booleans()) else (b, a))
    bags = tuple(
        frozenset(draw(st.sets(st.integers(0, n), max_size=n))) for _ in range(count)
    )
    return n, TreeDecomposition(bags, tuple(edges))


@st.composite
def valid_bag_trees(draw, max_n=6, max_bags=8):
    """A bag tree renamed onto 0..m-1 that decomposes the edgeless graph on m
    vertices; empty and redundant bags stay. Returns (m, decomposition)."""
    _, td = draw(bag_trees(max_n=max_n, max_bags=max_bags))
    rename = {v: i for i, v in enumerate(sorted(frozenset().union(*td.bags)))}
    bags = tuple(frozenset(rename[v] for v in b) for b in td.bags)
    td = TreeDecomposition(bags, td.tree_edges)
    assume(validate_decomposition(Graph(len(rename), frozenset()), td).ok)
    return len(rename), td


@st.composite
def graphs_with_subset(draw, min_n=1, max_n=8):
    g = draw(graphs(min_n=min_n, max_n=max_n))
    subset = draw(st.sets(st.integers(0, max(g.n - 1, 0)), max_size=g.n))
    return g, frozenset(v for v in subset if v < g.n)


def seeded_random_graphs(seed, count, n_range, m_factor=2.0):
    """Deterministic list of (n, Graph) pairs for sampled sweeps."""
    from cncut.families import random_graph

    rng = random.Random(seed)
    out = []
    for _ in range(count):
        n = rng.randint(*n_range)
        max_m = n * (n - 1) // 2
        m = min(max_m, rng.randint(0, int(m_factor * n)))
        out.append(random_graph(n, m, rng))
    return out


def child_peak_rss_mb(code):
    """Run code in a fresh interpreter capped at 1 GB of address space; its peak RSS in MB."""
    script = (
        "import resource\n"
        "resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))\n"
        f"{code}\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return int(done.stdout.split()[-1]) / 1024
