"""Tree decompositions: heuristic construction, nice normalization, validation.

A decomposition is a tree of bags covering all vertices (condition 1), covering
every edge inside some bag (condition 2), with each vertex's bags forming a
connected subtree (condition 3). The nice form additionally types every node:
Leaf (single-vertex bag), Introduce, Forget, or Join with equal child bags.
Decompositions serialize to the PACE-style .td text format.
"""

from __future__ import annotations

import heapq
from typing import NamedTuple

from .graph import InputError, bits


class StructuralError(InputError):
    """A decomposition violates its structural contract."""


class TreeDecomposition(NamedTuple):
    """Raw decomposition: bags plus undirected tree edges between bag indices."""

    bags: tuple[frozenset[int], ...]
    tree_edges: tuple[tuple[int, int], ...]

    @property
    def width(self) -> int:
        return max((len(b) for b in self.bags), default=0) - 1


class NiceNode(NamedTuple):
    kind: str  # leaf | introduce | forget | join
    bag: frozenset[int]
    vertex: int | None
    children: tuple[int, ...]


class NiceTreeDecomposition(NamedTuple):
    """Nodes in an order where children precede parents; the last node is the root."""

    nodes: tuple[NiceNode, ...]

    @property
    def root(self) -> int:
        return len(self.nodes) - 1

    @property
    def width(self) -> int:
        return max((len(nd.bag) for nd in self.nodes), default=0) - 1


class ValidationReport(NamedTuple):
    ok: bool
    condition: str | None = None
    node: int | None = None
    message: str = ""


def heuristic_decomposition(g) -> TreeDecomposition:
    """Min-fill elimination; ties by min degree, then smallest id.

    Disconnected graphs get one subtree per component stitched under a
    synthetic empty root bag. Elimination runs on a copy of the graph's
    adjacency masks. Each vertex's (fill, degree, id) key sits in a heap and
    is recounted only when an elimination can change it.
    """
    n = g.n
    if n == 0:
        return TreeDecomposition((), ())

    adj = list(g.adjacency_masks)
    bags: list[frozenset[int]] = []
    position = [0] * n
    elim_neighbors: list[int] = []
    key: list[tuple[int, int, int] | None] = [
        (_fill_in(adj, adj[v]), adj[v].bit_count(), v) for v in range(n)
    ]
    heap = list(key)
    heapq.heapify(heap)

    for step in range(n):
        while True:
            best = heapq.heappop(heap)
            v = best[2]
            if key[v] == best:
                break
        key[v] = None
        nbrs = adj[v]
        bags.append(frozenset(bits(nbrs | 1 << v)))
        position[v] = step
        elim_neighbors.append(nbrs)
        # A key can change only for a vertex whose neighbourhood changed (v's
        # neighbours) or that sees both ends of a fill-in edge (a, b). Read
        # before a's update, adj[a] & adj[b] differs from the common
        # neighbours after it only inside v's neighbourhood and in v itself,
        # which the recount drops.
        touched = nbrs
        for a in bits(nbrs):
            new = nbrs & ~adj[a] & ~(1 << a)
            for b in bits(new):
                touched |= adj[a] & adj[b]
            adj[a] = (adj[a] | new) & ~(1 << v)
        for u in bits(touched & ~(1 << v)):
            key[u] = (_fill_in(adj, adj[u]), adj[u].bit_count(), u)
            heapq.heappush(heap, key[u])

    # Each bag hangs from the bag of its earliest-eliminated neighbour.
    edges = [
        (step, min(position[u] for u in bits(nbrs)))
        for step, nbrs in enumerate(elim_neighbors)
        if nbrs
    ]
    roots = [step for step, nbrs in enumerate(elim_neighbors) if not nbrs]
    if len(roots) > 1:
        edges.extend((len(bags), r) for r in roots)
        bags.append(frozenset())
    return TreeDecomposition(tuple(bags), tuple(edges))


def _fill_in(adj: list[int], nbrs: int) -> int:
    """Non-adjacent pairs in the vertex mask nbrs: a misses nbrs & ~adj[a], itself included."""
    return sum((nbrs & ~adj[a]).bit_count() - 1 for a in bits(nbrs)) // 2


def validate_decomposition(g, td: TreeDecomposition) -> ValidationReport:
    """Conditions 1-3 plus tree shape, for raw decompositions."""
    if g.n == 0:
        if td.bags:
            return ValidationReport(False, "shape", None, "bags present for empty graph")
        return ValidationReport(True)
    if not td.bags:
        return ValidationReport(False, "1", None, "no bags")
    return _check_tree(g, td.bags, td.tree_edges)


def _walk(bags, tree_edges) -> tuple[list[int], list[int | None]]:
    """Breadth-first walk of the tree edges from bag 0: (walk order, parent per bag).

    Bag 0's parent is -1. In a walk that returns, every bag is reached and
    each edge makes the end walked first the parent of the other (a second
    edge to a bag already reached raises), so there are count - 1 edges and
    they form a tree. Raises StructuralError when a tree edge is out of
    range, or when the edges close a cycle or leave a bag unreached.
    """
    count = len(bags)
    adjacency: list[list[int]] = [[] for _ in bags]
    for a, b in tree_edges:
        if not (0 <= a < count and 0 <= b < count):
            raise StructuralError(f"tree edge ({a},{b}) out of range")
        adjacency[a].append(b)
        adjacency[b].append(a)
    walk = [0] if bags else []
    parent: list[int | None] = [-1] + [None] * (count - 1) if bags else []
    for i in walk:  # the walk grows as it reaches bags
        for c in adjacency[i]:
            if c == parent[i]:
                continue
            if parent[c] is not None:
                raise StructuralError(f"tree edges contain a cycle through bag {c}")
            parent[c] = i
            walk.append(c)
    if len(walk) < count:
        raise StructuralError(f"tree edges leave bag {parent.index(None)} unreached")
    return walk, parent


def _check_tree(g, bags, tree_edges) -> ValidationReport:
    """Tree shape, then conditions 1-3, for a nonempty list of bags in one walk.

    `_walk` checks the shape. Call a bag a top for v when it holds v and its
    walk parent does not (bag 0 is a top for each of its vertices).
    - Each connected piece of the bags holding v has exactly one top, its bag
      closest to bag 0: the parent of any other bag of the piece holds v and
      lies in the same piece, and the parent of the top does not hold v.
    - Condition 1: a vertex lies in some bag exactly when it has a top.
    - Condition 2: u and v share a bag exactly when a top of u holds v or a
      top of v holds u. If bag B holds both, the tops of the two pieces that
      contain B both lie on the path from B to bag 0, so the lower top lies
      between B and the upper one, inside the upper one's piece.
    - Condition 3: the bags holding v are connected exactly when v has one top.
    So one walk checks every vertex in O(sum of bag sizes), plus O(m) lookups.
    """
    try:
        walk, parent = _walk(bags, tree_edges)
    except StructuralError as exc:
        return ValidationReport(False, "shape", None, str(exc))
    tops: dict[int, list[int]] = {v: [0] for v in bags[0]}
    for i in walk[1:]:
        for v in bags[i] - bags[parent[i]]:
            tops.setdefault(v, []).append(i)
    if tops.keys() != set(range(g.n)):
        return ValidationReport(False, "1", None, "bags do not cover the vertex set")
    for u, v in g.edges:
        if v in bags[tops[u][0]] or u in bags[tops[v][0]]:
            continue  # the common case: most vertices have one top
        if not (any(v in bags[t] for t in tops[u]) or any(u in bags[t] for t in tops[v])):
            return ValidationReport(False, "2", None, f"edge ({u},{v}) in no bag")
    split = [v for v, held in tops.items() if len(held) > 1]
    if split:
        msg = f"bags holding vertex {min(split)} are not connected in the tree"
        return ValidationReport(False, "3", None, msg)
    return ValidationReport(True)


def make_nice(td: TreeDecomposition) -> NiceTreeDecomposition:
    """Normalize to Leaf/Introduce/Forget/Join nodes, ending in an empty root bag.

    One breadth-first walk from bag 0 gives each vertex its top, the first
    bag of the walk that holds it; a bag owns the vertices it is the top of,
    and a vertex that a second bag holds is shared. Vertices are eliminated
    deepest top first (the top walked last first), and within one top the
    shared ones first, then by id. Let L(v) be the part of top(v)
    eliminated after v. Vertex v gets the bag B(v) = {v} + L(v), hung below
    p(v), the first-eliminated vertex of L(v); the vertices with L(v) empty
    are roots. When conditions 1-3 hold:

    - L(v) - {p(v)} lies inside B(p(v)). By condition 3 the bags holding a
      vertex form a subtree, which the walk enters at its bag nearest bag 0;
      so the top of a vertex of bag t is t or an ancestor of t. Take u in
      L(v) other than p = p(v): top(u) and top(p) both lie on the path from
      top(v) up to bag 0. As u is eliminated after p, top(u) is walked no
      later than top(p), so it is top(p) or an ancestor of it, and top(p)
      lies between top(v) and top(u). Both ends hold u, so top(p) does too,
      and u, eliminated after p, is in L(p).
    - Each edge lies in the bag of its earlier end: if bag t holds u and v
      and v is eliminated first, top(v) lies between t and top(u) in the
      same way, so u is in L(v).
    - The width is kept exactly. B(v) lies inside top(v), and the
      first-eliminated vertex a bag owns gets the whole bag as B(v). A
      nonempty bag that owns nothing lies inside its walk parent, and bag 0
      owns all it holds, so a largest bag, or an ancestor as large, is some B(v).
    - There are at most (2w + 3) * n nodes for n vertices and width w. Each
      vertex has one forget, and one leaf when nothing hangs below it or
      else one join fewer than hangs below it; the roots take one join fewer
      than there are roots. That is at most 2n - 1 leaves and joins. Each
      leaf and each vertex hung below another takes at most w introduces.

    By the first point the nodes holding a vertex run from where it is
    introduced up to its forget, and what hangs below v reaches B(v) by
    introduces alone, so every node's bag is the one its kind derives. With
    the second point, the form passes `validate_nice`. Empty bags own no
    vertex and so add no node. Shared vertices go first so that a bag's
    vertices continue the chain hung below them: two bags joined by one tree
    edge give one leaf and no join.

    Raises StructuralError when a tree edge is out of range, or when the tree
    edges close a cycle or leave a bag unreached.
    """
    bags = td.bags
    walk, _ = _walk(bags, td.tree_edges)
    top: dict[int, int] = {}  # vertex -> walk position of its top
    shared: set[int] = set()
    for j, i in enumerate(walk):
        for v in bags[i]:
            if v in top:
                shared.add(v)
            else:
                top[v] = j

    order = sorted(top, key=lambda v: (-top[v], v not in shared, v))
    rank = {v: r for r, v in enumerate(order)}
    nodes: list[NiceNode] = []

    def emit(kind: str, bag: frozenset[int], vertex: int | None, children: tuple[int, ...]) -> int:
        nodes.append(NiceNode(kind, bag, vertex, children))
        return len(nodes) - 1

    def join(ends: list[int]) -> int:
        acc = ends[0]
        for end in ends[1:]:
            acc = emit("join", nodes[acc].bag, None, (acc, end))
        return acc

    # The ends hung below each vertex; the roots' ends hang below None.
    hung: dict[int | None, list[int]] = {}
    for v in order:
        later = frozenset(u for u in bags[walk[top[v]]] if rank[u] > rank[v])
        ends = []
        for end in hung.pop(v, None) or [emit("leaf", frozenset({v}), v, ())]:
            for u in sorted(later - nodes[end].bag):
                end = emit("introduce", nodes[end].bag | {u}, u, (end,))
            ends.append(end)
        end = emit("forget", later, v, (join(ends),))
        hung.setdefault(min(later, key=rank.__getitem__, default=None), []).append(end)
    if order:
        join(hung[None])
    return NiceTreeDecomposition(tuple(nodes))


def validate_nice(g, ntd: NiceTreeDecomposition) -> ValidationReport:
    """Conditions 1-3 plus condition 4: each node's bag is the one its kind
    derives from its children and vertex. A leaf derives {v}, an introduce
    child + {v} with v not in child, a forget child - {v} with v in child,
    and a join the common bag of two children."""
    nodes = ntd.nodes
    if g.n == 0:
        if nodes:
            return ValidationReport(False, "shape", None, "nodes present for empty graph")
        return ValidationReport(True)
    if not nodes:
        return ValidationReport(False, "1", None, "no nodes")

    seen_as_child: set[int] = set()
    tree_edges: list[tuple[int, int]] = []
    for i, nd in enumerate(nodes):
        for c in nd.children:
            if not (0 <= c < i):
                return ValidationReport(False, "shape", i, "child does not precede parent")
            if c in seen_as_child:
                return ValidationReport(False, "shape", i, f"node {c} has two parents")
            seen_as_child.add(c)
            tree_edges.append((i, c))
    if len(seen_as_child) != len(nodes) - 1 or ntd.root in seen_as_child:
        return ValidationReport(False, "shape", None, "not a single-rooted tree")

    for i, nd in enumerate(nodes):
        kids, v = nd.children, nd.vertex
        if nd.kind in ("introduce", "forget") and len(kids) == 1 and v is not None:
            child = nodes[kids[0]].bag
            derived = child ^ {v} if (v in child) == (nd.kind == "forget") else None
        elif nd.kind == "join" and len(kids) == 2 and nodes[kids[0]].bag == nodes[kids[1]].bag:
            derived = nodes[kids[0]].bag
        elif nd.kind == "leaf" and not kids:
            derived = {v}
        else:
            derived = None
        if nd.bag != derived:
            msg = f"{nd.kind!r} node's bag is not the bag its children and vertex derive"
            return ValidationReport(False, "4", i, msg)

    return _check_tree(g, [nd.bag for nd in nodes], tree_edges)


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
            if header[0] < 0:
                raise StructuralError(f"line {lineno}: negative bag count")
        elif parts[0] == "b":
            if header is None:
                raise StructuralError(f"line {lineno}: b-line before s-line")
            if len(parts) < 2:
                raise StructuralError(f"line {lineno}: b-line without a bag id")
            idx, *verts = (v - 1 for v in _td_ints(parts[1:], lineno))
            if not (0 <= idx < header[0]):
                raise StructuralError(f"line {lineno}: bag {idx + 1} outside 1..{header[0]}")
            if idx in bags:
                raise StructuralError(f"line {lineno}: duplicate bag {idx + 1}")
            if any(not (0 <= v < header[2]) for v in verts):
                raise StructuralError(f"line {lineno}: bag vertex out of range")
            bag = frozenset(verts)
            if len(bag) > header[1]:
                raise StructuralError(
                    f"line {lineno}: bag {idx + 1} holds {len(bag)} vertices, "
                    f"more than the s-line's {header[1]}"
                )
            bags[idx] = bag
        else:
            if header is None or len(parts) != 2:
                raise StructuralError(f"line {lineno}: malformed tree edge")
            a, b = _td_ints(parts, lineno)
            edges.append((a - 1, b - 1))
    if header is None:
        raise StructuralError("missing s-line")
    count = header[0]
    if len(bags) != count:  # each id is in range and unique, so all are present
        raise StructuralError(f"expected bags 1..{count}")
    ordered = tuple(bags[i] for i in range(count))
    for a, b in edges:
        if not (0 <= a < count and 0 <= b < count):
            raise StructuralError(f"tree edge ({a + 1},{b + 1}) out of range")
    return TreeDecomposition(ordered, tuple(edges)), header[2]
