"""Tree decompositions: heuristic construction, nice normalization, validation.

A decomposition is a tree of bags covering all vertices (condition 1), covering
every edge inside some bag (condition 2), with each vertex's bags forming a
connected subtree (condition 3). The nice form additionally types every node:
Leaf (single-vertex bag), Introduce, Forget, or Join with equal child bags.
Decompositions serialize to the PACE-style .td text format.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from .graph import InputError


class StructuralError(InputError):
    """A decomposition violates its structural contract."""


@dataclass(frozen=True)
class TreeDecomposition:
    """Raw decomposition: bags plus undirected tree edges between bag indices."""

    bags: tuple[frozenset[int], ...]
    tree_edges: tuple[tuple[int, int], ...]

    @property
    def width(self) -> int:
        return max((len(b) for b in self.bags), default=0) - 1


@dataclass(frozen=True)
class NiceNode:
    kind: str  # leaf | introduce | forget | join
    bag: frozenset[int]
    vertex: int | None
    children: tuple[int, ...]


@dataclass(frozen=True)
class NiceTreeDecomposition:
    """Nodes in an order where children precede parents; the last node is the root."""

    nodes: tuple[NiceNode, ...]

    @property
    def root(self) -> int:
        return len(self.nodes) - 1

    @property
    def width(self) -> int:
        return max((len(nd.bag) for nd in self.nodes), default=0) - 1


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    condition: str | None = None
    node: int | None = None
    message: str = ""


def heuristic_decomposition(g) -> TreeDecomposition:
    """Min-fill elimination; ties by min degree, then smallest id.

    Disconnected graphs get one subtree per component stitched under a
    synthetic empty root bag. Each vertex's (fill, degree, id) key sits in a
    heap and is recounted only when an elimination can change it.
    """
    n = g.n
    if n == 0:
        return TreeDecomposition((), ())

    adj: dict[int, set[int]] = {v: set(g.neighbors(v)) for v in range(n)}
    bags: list[frozenset[int]] = []
    position: dict[int, int] = {}
    elim_neighbors: list[set[int]] = []
    key = {v: (_fill_in(adj, adj[v]), len(adj[v]), v) for v in adj}
    heap = list(key.values())
    heapq.heapify(heap)

    for step in range(n):
        while True:
            best = heapq.heappop(heap)
            v = best[2]
            if key.get(v) == best:
                break
        nbrs = adj.pop(v)
        del key[v]
        bags.append(frozenset({v} | nbrs))
        position[v] = step
        elim_neighbors.append(nbrs)
        fill_edges = []
        for a in nbrs:
            new = nbrs - adj[a]
            new.discard(a)
            fill_edges.extend((a, b) for b in new if a < b)
            adj[a] |= new
            adj[a].discard(v)
        # A key can change only for a vertex whose neighbourhood changed (v's
        # neighbours) or that sees both ends of a fill-in edge.
        touched = set(nbrs)
        for a, b in fill_edges:
            touched |= adj[a] & adj[b]
        for u in touched:
            key[u] = (_fill_in(adj, adj[u]), len(adj[u]), u)
            heapq.heappush(heap, key[u])

    edges: list[tuple[int, int]] = []
    roots: list[int] = []
    for step, nbrs in enumerate(elim_neighbors):
        if nbrs:
            parent_vertex = min(nbrs, key=lambda u: position[u])
            edges.append((step, position[parent_vertex]))
        else:
            roots.append(step)

    bag_list = list(bags)
    if len(roots) > 1:
        hub = len(bag_list)
        bag_list.append(frozenset())
        edges.extend((hub, r) for r in roots)
    return TreeDecomposition(tuple(bag_list), tuple(edges))


def _fill_in(adj: dict[int, set[int]], nbrs: set[int]) -> int:
    """Non-adjacent pairs among nbrs: each a in nbrs misses nbrs - adj[a] - {a}."""
    return sum(len(nbrs - adj[a]) - 1 for a in nbrs) // 2


def validate_decomposition(g, td: TreeDecomposition) -> ValidationReport:
    """Conditions 1-3 plus tree shape, for raw decompositions."""
    if g.n == 0:
        if td.bags:
            return ValidationReport(False, "shape", None, "bags present for empty graph")
        return ValidationReport(True)
    if not td.bags:
        return ValidationReport(False, "1", None, "no bags")
    shape = _check_tree_shape(len(td.bags), td.tree_edges)
    if shape is not None:
        return ValidationReport(False, "shape", None, shape)
    return _check_bags(g, td.bags, td.tree_edges)


def _check_tree_shape(count: int, edges: tuple[tuple[int, int], ...]) -> str | None:
    if count == 0:
        return None
    if len(edges) != count - 1:
        return f"{len(edges)} tree edges for {count} bags"
    parent = list(range(count))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a, b in edges:
        if not (0 <= a < count and 0 <= b < count):
            return f"tree edge ({a},{b}) out of range"
        ra, rb = find(a), find(b)
        if ra == rb:
            return "tree edges contain a cycle"
        parent[ra] = rb
    return None


def _check_bags(g, bags, tree_edges) -> ValidationReport:
    """Conditions 1-3 for bags joined by tree edges that already form a tree.

    Each vertex's holding set (the indices of the bags that hold it) is built
    once; an edge lies in some bag exactly when its ends' holding sets meet.
    """
    holding: dict[int, set[int]] = {}
    for i, bag in enumerate(bags):
        for v in bag:
            held = holding.get(v)
            if held is None:
                holding[v] = {i}
            else:
                held.add(i)
    if holding.keys() != set(range(g.n)):
        return ValidationReport(False, "1", None, "bags do not cover the vertex set")
    for u, v in g.edges:
        if holding[u].isdisjoint(holding[v]):
            return ValidationReport(False, "2", None, f"edge ({u},{v}) in no bag")
    msg = _check_running_intersection(g.n, bags, tree_edges)
    if msg is not None:
        return ValidationReport(False, "3", None, msg)
    return ValidationReport(True)


def _check_running_intersection(
    n: int, bags, edges: tuple[tuple[int, int], ...]
) -> str | None:
    """First vertex below n whose holding bags are not connected in the tree.

    `edges` must form a tree over the bags. Root it at bag 0 and call a bag a
    top for v when it holds v and its parent does not (the root has no
    parent, so it is a top for each of its vertices). Each connected piece of
    the bags holding v has exactly one top, its bag closest to the root: the
    parent of any other bag of the piece holds v and lies in the same piece,
    and the parent of the top does not hold v. So the bags holding v are
    connected exactly when v has one top, and one walk over the tree that
    lists every bag's tops checks all vertices in O(sum of bag sizes).
    """
    if not bags:
        return None
    adjacency: list[list[int]] = [[] for _ in bags]
    for a, b in edges:
        adjacency[a].append(b)
        adjacency[b].append(a)
    tops: list[int] = list(bags[0])
    seen = [False] * len(bags)
    seen[0] = True
    stack = [0]
    while stack:
        i = stack.pop()
        bag = bags[i]
        for c in adjacency[i]:
            if not seen[c]:
                seen[c] = True
                tops.extend(bags[c] - bag)
                stack.append(c)
    if len(tops) == len(set(tops)):
        return None
    once: set[int] = set()
    twice: set[int] = set()
    for v in tops:
        (twice if v in once else once).add(v)
    for v in sorted(twice):
        if v < n:
            return f"bags holding vertex {v} are not connected in the tree"
    return None


def make_nice(td: TreeDecomposition) -> NiceTreeDecomposition:
    """Normalize to Leaf/Introduce/Forget/Join nodes, ending in an empty root bag.

    Width is preserved exactly; the node count is O(width * bags).
    """
    bags = [set(b) for b in td.bags]
    adjacency = {i: set() for i in range(len(bags))}
    for a, b in td.tree_edges:
        adjacency[a].add(b)
        adjacency[b].add(a)

    _splice_empty_bags(bags, adjacency)
    live = [i for i in sorted(adjacency) if bags[i]]
    if not live:
        return NiceTreeDecomposition(())
    root = live[0]

    nodes: list[NiceNode] = []

    def emit(kind: str, bag: set[int], vertex: int | None, children: tuple[int, ...]) -> int:
        nodes.append(NiceNode(kind, frozenset(bag), vertex, children))
        return len(nodes) - 1

    def leaf_chain(bag: set[int]) -> int:
        vs = sorted(bag)
        top = emit("leaf", {vs[0]}, vs[0], ())
        cur = {vs[0]}
        for v in vs[1:]:
            cur = cur | {v}
            top = emit("introduce", cur, v, (top,))
        return top

    def pad(top: int, have: set[int], want: set[int]) -> int:
        cur = set(have)
        for v in sorted(have - want):
            cur = cur - {v}
            top = emit("forget", cur, v, (top,))
        for v in sorted(want - have):
            cur = cur | {v}
            top = emit("introduce", cur, v, (top,))
        return top

    # Iterative post-order over the bag tree.
    order: list[tuple[int, int]] = []
    stack = [(root, -1)]
    while stack:
        node, parent = stack.pop()
        order.append((node, parent))
        for nb in sorted(adjacency[node]):
            if nb != parent:
                stack.append((nb, node))

    built: dict[int, int] = {}
    for node, parent in reversed(order):
        children = [nb for nb in sorted(adjacency[node]) if nb != parent]
        tops = [pad(built[c], bags[c], bags[node]) for c in children]
        if not tops:
            built[node] = leaf_chain(bags[node])
        else:
            acc = tops[0]
            for nxt in tops[1:]:
                acc = emit("join", bags[node], None, (acc, nxt))
            built[node] = acc

    # Forget everything above the root bag so the root is empty.
    top = built[root]
    cur = set(bags[root])
    for v in sorted(bags[root]):
        cur = cur - {v}
        top = emit("forget", cur, v, (top,))
    return NiceTreeDecomposition(tuple(nodes))


def _splice_empty_bags(bags: list[set[int]], adjacency: dict[int, set[int]]) -> None:
    for i in list(adjacency):
        if bags[i]:
            continue
        nbrs = sorted(adjacency[i])
        for nb in nbrs:
            adjacency[nb].discard(i)
        if len(nbrs) >= 2:
            hub = nbrs[0]
            for other in nbrs[1:]:
                adjacency[hub].add(other)
                adjacency[other].add(hub)
        del adjacency[i]


def validate_nice(g, ntd: NiceTreeDecomposition) -> ValidationReport:
    """Conditions 1-3 plus the per-kind structure of every node."""
    nodes = ntd.nodes
    if g.n == 0:
        if nodes:
            return ValidationReport(False, "shape", None, "nodes present for empty graph")
        return ValidationReport(True)
    if not nodes:
        return ValidationReport(False, "1", None, "no nodes")

    seen_as_child: set[int] = set()
    for i, nd in enumerate(nodes):
        for c in nd.children:
            if not (0 <= c < i):
                return ValidationReport(False, "shape", i, "child does not precede parent")
            if c in seen_as_child:
                return ValidationReport(False, "shape", i, f"node {c} has two parents")
            seen_as_child.add(c)
    if len(seen_as_child) != len(nodes) - 1 or ntd.root in seen_as_child:
        return ValidationReport(False, "shape", None, "not a single-rooted tree")

    for i, nd in enumerate(nodes):
        if nd.kind == "leaf":
            if nd.children or len(nd.bag) != 1:
                return ValidationReport(False, "4", i, "leaf must have a single-vertex bag")
        elif nd.kind == "introduce":
            if len(nd.children) != 1 or nd.vertex is None:
                return ValidationReport(False, "4", i, "introduce needs one child and a vertex")
            child = nodes[nd.children[0]]
            if nd.vertex in child.bag or nd.bag != child.bag | {nd.vertex}:
                return ValidationReport(False, "4", i, "introduce bag mismatch")
        elif nd.kind == "forget":
            if len(nd.children) != 1 or nd.vertex is None:
                return ValidationReport(False, "4", i, "forget needs one child and a vertex")
            child = nodes[nd.children[0]]
            if nd.vertex not in child.bag or nd.bag != child.bag - {nd.vertex}:
                return ValidationReport(False, "4", i, "forget bag mismatch")
        elif nd.kind == "join":
            if len(nd.children) != 2:
                return ValidationReport(False, "4", i, "join needs two children")
            left, right = (nodes[c] for c in nd.children)
            if nd.bag != left.bag or nd.bag != right.bag:
                return ValidationReport(False, "4", i, "join bags must match both children")
        else:
            return ValidationReport(False, "4", i, f"unknown kind {nd.kind!r}")

    tree_edges = tuple((i, c) for i, nd in enumerate(nodes) for c in nd.children)
    return _check_bags(g, [nd.bag for nd in nodes], tree_edges)


def serialize_td(td: TreeDecomposition, n_graph: int) -> str:
    """PACE-style text: s-line header, b-lines, then tree edges. 1-indexed."""
    width_plus = max((len(b) for b in td.bags), default=0)
    lines = [f"s td {len(td.bags)} {width_plus} {n_graph}"]
    for i, bag in enumerate(td.bags):
        parts = " ".join(str(v + 1) for v in sorted(bag))
        lines.append(f"b {i + 1} {parts}".rstrip())
    for a, b in td.tree_edges:
        lines.append(f"{a + 1} {b + 1}")
    return "\n".join(lines) + "\n"


def nice_annotations(ntd: NiceTreeDecomposition) -> str:
    """Comment lines describing the nice typing, appendable to a .td file."""
    lines = []
    for i, nd in enumerate(ntd.nodes):
        if nd.vertex is not None and nd.kind in ("introduce", "forget"):
            lines.append(f"c nice {i + 1} {nd.kind} {nd.vertex + 1}")
        else:
            lines.append(f"c nice {i + 1} {nd.kind}")
    if ntd.nodes:
        lines.append(f"c nice-root {ntd.root + 1}")
    return "".join(line + "\n" for line in lines)


def _td_ints(tokens: list[str], lineno: int) -> list[int]:
    try:
        return [int(t) for t in tokens]
    except ValueError:
        raise StructuralError(f"line {lineno}: not an integer in {' '.join(tokens)!r}") from None


def parse_td(text: str) -> tuple[TreeDecomposition, int]:
    """Parse the PACE-style format; returns (decomposition, declared n)."""
    header: list[int] | None = None
    bags: dict[int, frozenset[int]] = {}
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        parts = line.split()
        if parts[0] == "s":
            if header is not None:
                raise StructuralError(f"line {lineno}: duplicate s-line")
            if len(parts) != 5 or parts[1] != "td":
                raise StructuralError(f"line {lineno}: malformed s-line")
            header = _td_ints(parts[2:], lineno)
        elif parts[0] == "b":
            if header is None:
                raise StructuralError(f"line {lineno}: b-line before s-line")
            if len(parts) < 2:
                raise StructuralError(f"line {lineno}: b-line without a bag id")
            idx, *verts = (v - 1 for v in _td_ints(parts[1:], lineno))
            if idx in bags:
                raise StructuralError(f"line {lineno}: duplicate bag {idx + 1}")
            if any(not (0 <= v < header[2]) for v in verts):
                raise StructuralError(f"line {lineno}: bag vertex out of range")
            bags[idx] = frozenset(verts)
        else:
            if header is None or len(parts) != 2:
                raise StructuralError(f"line {lineno}: malformed tree edge")
            a, b = _td_ints(parts, lineno)
            edges.append((a - 1, b - 1))
    if header is None:
        raise StructuralError("missing s-line")
    count = header[0]
    if set(bags) != set(range(count)):
        raise StructuralError(f"expected bags 1..{count}")
    ordered = tuple(bags[i] for i in range(count))
    for a, b in edges:
        if not (0 <= a < count and 0 <= b < count):
            raise StructuralError(f"tree edge ({a + 1},{b + 1}) out of range")
    return TreeDecomposition(ordered, tuple(edges)), header[2]
