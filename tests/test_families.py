import random

import pytest

from cncut.families import (
    CLASS_COUNTS,
    MAX_EXHAUSTIVE,
    enumerate_graphs,
    random_graph,
)
from cncut.graph import InputError


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
