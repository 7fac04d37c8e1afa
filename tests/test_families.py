import hashlib
import random
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings

from cncut import families
from cncut.families import (
    CLASS_COUNTS,
    MAX_EXHAUSTIVE,
    enumerate_graphs,
    random_graph,
)
from cncut.graph import Graph, InputError

from .strategies import child_peak_rss_mb, graphs

# sha256 of ",".join(map(str, _codes(n))), as computed by a search over every
# relabelling with numpy; the catalogue's graphs and vertex labels follow from
# these codes.
CODES_SHA256 = {
    0: "5feceb66ffc86f38d952786c6d696c79c2dbc239dd4e91b46729d73a27fb57e9",
    1: "5feceb66ffc86f38d952786c6d696c79c2dbc239dd4e91b46729d73a27fb57e9",
    2: "83b97b859aa5f81b2f0f86ba2a675efaf515ad2d5e2b8652cf2de7e1c2267350",
    3: "e07a92fb5aaa979553ff4952bd4597b190f6f37b327b065caeb0272ef00c4a82",
    4: "ee8879922ff2981c1ef94a44feef8f72d7beb0c9cad9d539f0d678d3877a7d26",
    5: "0590bd47e8dd07dcaf48fca66c863cb1cb934329d93ef0563b96122174383eec",
    6: "2d01f5d8a4feb13139b83e7c225a2c04568935848b620cae2d28194fa2b246e8",
    7: "409cc39ac8b2a97b4cb375d79e3658bf2f447a0ea1f3fd5bc580ddb505f502ac",
}


@pytest.mark.parametrize("n", range(MAX_EXHAUSTIVE + 1))
def test_class_counts(n):
    graphs = enumerate_graphs(n)
    assert len(graphs) == CLASS_COUNTS[n]
    assert all(g.n == n for g in graphs)


@pytest.mark.parametrize("n", range(MAX_EXHAUSTIVE + 1))
def test_codes_are_pinned(n):
    text = ",".join(map(str, families._codes(n)))
    assert hashlib.sha256(text.encode()).hexdigest() == CODES_SHA256[n]


@settings(max_examples=100, deadline=None)
@given(graphs(max_n=6))
def test_least_code_is_the_least_over_all_relabellings(g):
    pairs = list(combinations(range(g.n), 2))
    brute = min(
        sum(1 << i for i, (a, b) in enumerate(pairs) if g.has_edge(p[a], p[b]))
        for p in permutations(range(g.n))
    )
    assert families._least_code(list(g.adjacency_masks)) == brute


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
