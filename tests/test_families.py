import random
from itertools import combinations

import pytest

from cncut.families import (
    CLASS_COUNTS,
    MAX_EXHAUSTIVE,
    enumerate_graphs,
    random_graph,
)
from cncut.graph import Graph, InputError

from .strategies import child_peak_rss_mb


@pytest.mark.parametrize("n", range(7))
def test_class_counts(n):
    graphs = enumerate_graphs(n)
    assert len(graphs) == CLASS_COUNTS[n]
    assert all(g.n == n for g in graphs)


def test_enumeration_starts_edgeless():
    graphs = enumerate_graphs(4)
    assert graphs[0].m == 0
    assert len({g.edges for g in graphs}) == len(graphs)


def test_enumeration_bounds():
    with pytest.raises(InputError):
        enumerate_graphs(-1)
    with pytest.raises(InputError):
        enumerate_graphs(MAX_EXHAUSTIVE + 1)


def test_random_graph_exact_edges_and_determinism():
    a = random_graph(6, 7, random.Random(5))
    b = random_graph(6, 7, random.Random(5))
    assert a.m == 7
    assert a.edges == b.edges
    with pytest.raises(InputError):
        random_graph(3, 4, random.Random(0))
    with pytest.raises(InputError):
        random_graph(4, -1, random.Random(0))


def test_random_graph_matches_pair_pool_sample():
    # Sampling indices draws exactly what sampling the materialized pair
    # list drew, so seeded graphs and the rng state afterwards are unchanged.
    for n in range(0, 30):
        pool = list(combinations(range(n), 2))
        for m in sorted({0, 1, n, len(pool) // 2, len(pool)} & set(range(len(pool) + 1))):
            for seed in range(3):
                new, old = random.Random(seed), random.Random(seed)
                assert random_graph(n, m, new) == Graph.from_edges(n, old.sample(pool, m))
                assert new.random() == old.random()


def test_random_graph_memory_is_linear():
    # The C(10000, 2) pair list alone would take gigabytes.
    code = (
        "import random\n"
        "from cncut.families import random_graph\n"
        "assert random_graph(10000, 20000, random.Random(1)).m == 20000"
    )
    assert child_peak_rss_mb(code) < 100
