"""Undirected simple graphs with dense integer vertex ids.

Connectivity is always measured in ordered pairs: a component with s vertices
contributes s*(s-1). All solvers in this package share that convention.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator


class InputError(ValueError):
    """Raised for malformed caller input (bad vertex ids, bad edges, ...)."""


class Refusal(RuntimeError):
    """Raised when a computation declines to start because a size cap is hit."""


def _normalize_edge(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class Graph:
    """Immutable simple graph on vertices 0..n-1."""

    n: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self) -> None:
        if self.n < 0:
            raise InputError(f"vertex count must be nonnegative, got {self.n}")
        for u, v in self.edges:
            if u == v:
                raise InputError(f"self loop at vertex {u}")
            if not (0 <= u < v < self.n):
                raise InputError(f"edge ({u}, {v}) out of range for n={self.n}")

    @staticmethod
    def from_edges(n: int, edges: Iterable[tuple[int, int]]) -> Graph:
        return Graph(n, frozenset(_normalize_edge(u, v) for u, v in edges))

    @cached_property
    def adjacency(self) -> tuple[frozenset[int], ...]:
        nbrs: list[set[int]] = [set() for _ in range(self.n)]
        for u, v in self.edges:
            nbrs[u].add(v)
            nbrs[v].add(u)
        return tuple(frozenset(s) for s in nbrs)

    @cached_property
    def adjacency_masks(self) -> tuple[int, ...]:
        # Bitmask form of the adjacency, used by the subset-enumeration oracle.
        masks = [0] * self.n
        for u, v in self.edges:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return tuple(masks)

    @property
    def m(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return len(self.adjacency[v])

    def neighbors(self, v: int) -> frozenset[int]:
        self._check_vertex(v)
        return self.adjacency[v]

    def has_edge(self, u: int, v: int) -> bool:
        return _normalize_edge(u, v) in self.edges

    def vertices(self) -> range:
        return range(self.n)

    def _check_vertex(self, v: int) -> None:
        if not (0 <= v < self.n):
            raise InputError(f"unknown vertex id {v} (n={self.n})")

    def _check_vertex_set(self, c: Iterable[int]) -> frozenset[int]:
        cs = frozenset(c)
        for v in cs:
            self._check_vertex(v)
        return cs


@dataclass(frozen=True)
class ComponentLabeling:
    """Vertex -> component label plus the size of every component."""

    labels: tuple[int, ...]
    sizes: tuple[int, ...]

    @property
    def count(self) -> int:
        return len(self.sizes)


@dataclass(frozen=True)
class Cut:
    """A vertex deletion set together with the pairs left behind."""

    vertices: frozenset[int]
    residual_pairs: int


@dataclass(frozen=True)
class VerifyReport:
    ok: bool
    cut_size: int
    budget: int
    residual_pairs: int
    pair_bound: int

    def __bool__(self) -> bool:
        return self.ok


def connected_components(g: Graph) -> ComponentLabeling:
    """Label components with consecutive ints, iterative DFS, smallest root first."""
    labels = [-1] * g.n
    sizes: list[int] = []
    adj = g.adjacency
    for start in range(g.n):
        if labels[start] != -1:
            continue
        label = len(sizes)
        stack = [start]
        labels[start] = label
        size = 0
        while stack:
            v = stack.pop()
            size += 1
            for w in adj[v]:
                if labels[w] == -1:
                    labels[w] = label
                    stack.append(w)
        sizes.append(size)
    return ComponentLabeling(tuple(labels), tuple(sizes))


def connected_pairs(g: Graph) -> int:
    """Ordered connected pairs: sum of s*(s-1) over component sizes s."""
    return sum(s * (s - 1) for s in connected_components(g).sizes)


def remove_vertices(g: Graph, c: Iterable[int]) -> tuple[Graph, tuple[int, ...]]:
    """Delete a vertex set; returns the induced remainder and a new->old id table."""
    cs = g._check_vertex_set(c)
    keep = [v for v in range(g.n) if v not in cs]
    old_to_new = {old: new for new, old in enumerate(keep)}
    edges = frozenset(
        (old_to_new[u], old_to_new[v])
        for u, v in g.edges
        if u not in cs and v not in cs
    )
    return Graph(len(keep), edges), tuple(keep)


def pairs_removed(g: Graph, c: Iterable[int]) -> int:
    """How many ordered connected pairs vanish when c is deleted.

    Uniform over disconnected inputs and cuts touching isolated vertices:
    always connected_pairs(g) - connected_pairs(g - c).
    """
    h, _ = remove_vertices(g, c)
    return connected_pairs(g) - connected_pairs(h)


def remove_isolated(g: Graph) -> tuple[Graph, tuple[int, ...], tuple[int, ...]]:
    """Drop degree-0 vertices; returns (graph, removed ids, new->old table)."""
    isolated = [v for v in range(g.n) if not g.adjacency[v]]
    h, remap = remove_vertices(g, isolated)
    return h, tuple(isolated), remap


def verify_solution(g: Graph, c: Iterable[int], k: int, x: int) -> VerifyReport:
    """Check |c| <= k and connected_pairs(g - c) <= x."""
    cs = g._check_vertex_set(c)
    h, _ = remove_vertices(g, cs)
    residual = connected_pairs(h)
    return VerifyReport(
        ok=(len(cs) <= k and residual <= x),
        cut_size=len(cs),
        budget=k,
        residual_pairs=residual,
        pair_bound=x,
    )


def component_size_census(g: Graph, c: Iterable[int] = ()) -> dict[int, int]:
    """Sizes of the non-trivial components of g - c, as {size: count}."""
    h, _ = remove_vertices(g, c)
    census: dict[int, int] = {}
    for s in connected_components(h).sizes:
        if s >= 2:
            census[s] = census.get(s, 0) + 1
    return census


def is_bipartite(g: Graph) -> bool:
    color = [-1] * g.n
    adj = g.adjacency
    for start in range(g.n):
        if color[start] != -1:
            continue
        color[start] = 0
        stack = [start]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if color[w] == -1:
                    color[w] = 1 - color[v]
                    stack.append(w)
                elif color[w] == color[v]:
                    return False
    return True


def degeneracy(g: Graph) -> tuple[int, tuple[int, ...]]:
    """Graph degeneracy and a witness elimination order (repeated min-degree)."""
    adj = {v: set(g.adjacency[v]) for v in range(g.n)}
    order: list[int] = []
    best = 0
    while adj:
        v = min(adj, key=lambda u: (len(adj[u]), u))
        best = max(best, len(adj[v]))
        order.append(v)
        for w in adj[v]:
            adj[w].discard(v)
        del adj[v]
    return best, tuple(order)


# Small builders, mostly for tests and bench families.

def empty_graph(n: int) -> Graph:
    return Graph(n, frozenset())


def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise InputError("cycle needs at least 3 vertices")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def star_graph(leaves: int) -> Graph:
    return Graph.from_edges(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


def disjoint_union(graphs: Iterable[Graph]) -> tuple[Graph, tuple[tuple[int, ...], ...]]:
    """Disjoint union; also returns, per part, the new ids of its vertices."""
    offset = 0
    edges: list[tuple[int, int]] = []
    spans: list[tuple[int, ...]] = []
    for g in graphs:
        edges.extend((u + offset, v + offset) for u, v in g.edges)
        spans.append(tuple(range(offset, offset + g.n)))
        offset += g.n
    return Graph.from_edges(offset, edges), tuple(spans)


def induced_subgraph(g: Graph, vertices: Iterable[int]) -> tuple[Graph, tuple[int, ...]]:
    """Induced subgraph on the given vertices; returns (graph, new->old table)."""
    keep = g._check_vertex_set(vertices)
    others = [v for v in range(g.n) if v not in keep]
    return remove_vertices(g, others)


def iter_edges_sorted(g: Graph) -> Iterator[tuple[int, int]]:
    return iter(sorted(g.edges))
