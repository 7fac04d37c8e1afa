"""Undirected simple graphs with dense integer vertex ids.

Connectivity is always measured in ordered pairs: a component with s vertices
contributes s*(s-1). All solvers in this package share that convention.
Vertex sets are int bitmasks: a graph holds its adjacency as one mask per
vertex and finds its components once, as one mask each.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator


class InputError(ValueError):
    """Raised for malformed caller input (bad vertex ids, bad edges, ...)."""


class Refusal(RuntimeError):
    """Raised when a computation declines to start because a size cap is hit."""


def _normalize_edge(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def bits(mask: int) -> Iterator[int]:
    """The vertices of a vertex mask, smallest first."""
    while mask:
        low = mask & -mask
        mask ^= low
        yield low.bit_length() - 1


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
    def adjacency_masks(self) -> tuple[int, ...]:
        """The adjacency, one int per vertex with bit w set for each neighbour w."""
        masks = [0] * self.n
        for u, v in self.edges:
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        return tuple(masks)

    @cached_property
    def components(self) -> tuple[int, ...]:
        """One vertex mask per connected component, ordered by smallest vertex."""
        masks = self.adjacency_masks
        found: list[int] = []
        remaining = (1 << self.n) - 1
        while remaining:
            comp = frontier = remaining & -remaining
            while frontier:
                reach = 0
                for v in bits(frontier):
                    reach |= masks[v]
                frontier = reach & ~comp
                comp |= frontier
            found.append(comp)
            remaining &= ~comp
        return tuple(found)

    @property
    def m(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return self.adjacency_masks[v].bit_count()

    def neighbors(self, v: int) -> frozenset[int]:
        self._check_vertex(v)
        return frozenset(bits(self.adjacency_masks[v]))

    def has_edge(self, u: int, v: int) -> bool:
        return _normalize_edge(u, v) in self.edges

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
    """Label components with consecutive ints in order of their smallest vertex."""
    labels = [0] * g.n
    for label, comp in enumerate(g.components):
        for v in bits(comp):
            labels[v] = label
    return ComponentLabeling(tuple(labels), tuple(c.bit_count() for c in g.components))


def connected_pairs(g: Graph) -> int:
    """Ordered connected pairs: sum of s*(s-1) over component sizes s."""
    return sum(s * (s - 1) for s in (c.bit_count() for c in g.components))


def pairs_of_alive(masks: tuple[int, ...], alive: int, bound: int | None = None) -> int:
    """Ordered connected pairs among the vertices of `alive`, by a component sweep.

    With a bound, gives up once the running total provably exceeds it and
    returns some value > bound; the result is exact whenever it is <= bound.
    """
    total = 0
    remaining = alive
    while remaining:
        comp = remaining & -remaining
        frontier = comp
        while frontier:
            nxt = 0
            f = frontier
            while f:
                low = f & -f
                f ^= low
                nxt |= masks[low.bit_length() - 1]
            nxt &= alive & ~comp
            comp |= nxt
            frontier = nxt
            if bound is not None:
                s = comp.bit_count()
                partial = total + s * (s - 1)
                if partial > bound:
                    return partial
        s = comp.bit_count()
        total += s * (s - 1)
        remaining &= ~comp
    return total


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
    isolated = [v for v in range(g.n) if not g.adjacency_masks[v]]
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
    for s in (comp.bit_count() for comp in h.components):
        if s >= 2:
            census[s] = census.get(s, 0) + 1
    return census


def is_bipartite(g: Graph) -> bool:
    """Breadth-first layers per component; an odd cycle shows as an edge inside a layer."""
    masks = g.adjacency_masks
    for comp in g.components:
        seen = layer = comp & -comp
        while layer:
            reach = 0
            for v in bits(layer):
                reach |= masks[v]
            if reach & layer:
                return False
            layer = reach & ~seen
            seen |= layer
    return True


def degeneracy(g: Graph) -> tuple[int, tuple[int, ...]]:
    """Graph degeneracy and a witness elimination order (repeated min-degree)."""
    masks = g.adjacency_masks
    alive = (1 << g.n) - 1
    order: list[int] = []
    best = 0
    while alive:
        # min keeps the first of equal degrees, which is the smallest id.
        v = min(bits(alive), key=lambda u: (masks[u] & alive).bit_count())
        best = max(best, (masks[v] & alive).bit_count())
        order.append(v)
        alive ^= 1 << v
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
