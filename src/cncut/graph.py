"""Undirected simple graphs with dense integer vertex ids.

Connectivity is always measured in ordered pairs: a component with s vertices
contributes s*(s-1). All solvers in this package share that convention.
Vertex sets are int bitmasks: a graph holds its adjacency as one mask per
vertex and finds its components once, as one mask each.

The records here are `typing.NamedTuple`s and `Graph` is a plain class, not
dataclasses: every `cnc solve` loads this module, and importing `dataclasses`
and building its classes would cost more than a small solve itself.
"""

from __future__ import annotations

from functools import cached_property
from typing import Iterable, Iterator, NamedTuple


class InputError(ValueError):
    """Raised for malformed caller input (bad vertex ids, bad edges, ...)."""


class Refusal(RuntimeError):
    """Raised when a computation declines to start because a size cap is hit."""


# The candidate-set cap of the subset scans (the oracle's and dp-y's), kept
# here so that a harness default does not load the oracle.
DEFAULT_CAP = 20_000_000


def _normalize_edge(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def bits(mask: int) -> Iterator[int]:
    """The vertices of a vertex mask, smallest first."""
    while mask:
        low = mask & -mask
        mask ^= low
        yield low.bit_length() - 1


class FrozenRecord:
    """Value semantics over the annotated fields, as a frozen dataclass gives them.

    Instances compare equal when their classes and field values are, hash by
    their field values, print as `Name(field=value, ...)` and refuse
    assignment; `__init__` sets the fields once, in order, through `_set`.
    """

    __slots__ = ()

    def _set(self, *values) -> None:
        for name, value in zip(type(self).__annotations__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in type(self).__annotations__)

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in type(self).__annotations__)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to {name!r} of a frozen {type(self).__name__}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete {name!r} of a frozen {type(self).__name__}")


class Counters:
    """An engine's mutable work counters, declared as annotated class defaults.

    `Name(field=value, ...)` overrides the defaults. Every field lands in the
    instance `__dict__` in declaration order, the order in which `vars()`
    reports them. Instances compare equal when their classes and fields are.
    """

    def __init__(self, **values) -> None:
        cls = type(self)
        for name in cls.__annotations__:
            setattr(self, name, values.pop(name, getattr(cls, name)))
        if values:
            raise TypeError(f"{cls.__name__} has no field {next(iter(values))!r}")

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    __hash__ = None  # mutable

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in vars(self).items())
        return f"{type(self).__name__}({fields})"


class Graph(FrozenRecord):
    """Immutable simple graph on vertices 0..n-1."""

    n: int
    edges: frozenset[tuple[int, int]]

    def __init__(self, n: int, edges: frozenset[tuple[int, int]]) -> None:
        if n < 0:
            raise InputError(f"vertex count must be nonnegative, got {n}")
        for u, v in edges:
            if u == v:
                raise InputError(f"self loop at vertex {u}")
            if not (0 <= u < v < n):
                raise InputError(f"edge ({u}, {v}) out of range for n={n}")
        self._set(n, edges)

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


class ComponentLabeling(NamedTuple):
    """Vertex -> component label plus the size of every component."""

    labels: tuple[int, ...]
    sizes: tuple[int, ...]

    @property
    def count(self) -> int:
        return len(self.sizes)


class Cut(NamedTuple):
    """A vertex deletion set together with the pairs left behind."""

    vertices: frozenset[int]
    residual_pairs: int


class Decision(NamedTuple):
    """An engine's answer; a YES carries a cut that has passed `certify`."""

    answer: bool
    cut: Cut | None
    stats: object


class VerifyReport(NamedTuple):
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
    always connected_pairs(g) - connected_pairs(g - c). Both terms are
    counted by `pairs_by_edges`, so the memory is O(n + m).
    """
    return pairs_by_edges(g) - pairs_by_edges(g, c)


def remove_isolated(g: Graph) -> tuple[Graph, tuple[int, ...], tuple[int, ...]]:
    """Drop degree-0 vertices; returns (graph, removed ids, new->old table)."""
    isolated = [v for v in range(g.n) if not g.adjacency_masks[v]]
    h, remap = remove_vertices(g, isolated)
    return h, tuple(isolated), remap


def pairs_by_edges(g: Graph, c: Iterable[int] = ()) -> int:
    """Ordered connected pairs of g - c, by a union-find over g.edges.

    Needs O(n + m) memory: it builds neither g - c nor any adjacency mask.
    It shares no code with the engines' mask sweep, so a count made here is
    independent of theirs.
    """
    cs = g._check_vertex_set(c)
    parent = list(range(g.n))
    size = [1] * g.n

    def find(v: int) -> int:
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for u, v in g.edges:
        if u in cs or v in cs:
            continue
        ru, rv = find(u), find(v)
        if ru != rv:
            if size[ru] < size[rv]:
                ru, rv = rv, ru
            parent[rv] = ru
            size[ru] += size[rv]
    # A deleted vertex stays a singleton root of size 1 and adds no pairs.
    return sum(s * (s - 1) for v, s in enumerate(size) if parent[v] == v)


def verify_solution(g: Graph, c: Iterable[int], k: int, x: int) -> VerifyReport:
    """Check |c| <= k and connected_pairs(g - c) <= x.

    Counts the pairs with `pairs_by_edges`, so each engine's YES is checked
    by a count independent of the engines' own, in O(n + m) memory.
    """
    cs = g._check_vertex_set(c)
    residual = pairs_by_edges(g, cs)
    return VerifyReport(
        ok=(len(cs) <= k and residual <= x),
        cut_size=len(cs),
        budget=k,
        residual_pairs=residual,
        pair_bound=x,
    )


def certify(g: Graph, cut: Cut, k: int, x: int, engine: str) -> Cut:
    """Return an engine's YES cut once `verify_solution` has checked it.

    The cut must keep within k and x, and the residual the engine claims must
    equal the independent count; otherwise an AssertionError names the engine.
    """
    report = verify_solution(g, cut.vertices, k, x)
    if not report.ok or report.residual_pairs != cut.residual_pairs:
        raise AssertionError(
            f"engine {engine} produced a cut that fails verification: {report}, "
            f"claimed residual {cut.residual_pairs}"
        )
    return cut


def check_parameters(k: int, x: int = 0) -> None:
    """Reject a negative budget k or pair bound x."""
    if k < 0 or x < 0:
        raise InputError(f"parameters must be nonnegative, got k={k}, x={x}")


# Builders: `commands._parse_source` reads the first four from a `--source` spec,
# and `reductions.cross_compose` joins its parts with `disjoint_union`.

def complete_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def path_graph(n: int) -> Graph:
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise InputError("cycle needs at least 3 vertices")
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def star_graph(leaves: int) -> Graph:
    if leaves < 0:
        raise InputError(f"leaf count must be nonnegative, got {leaves}")
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
