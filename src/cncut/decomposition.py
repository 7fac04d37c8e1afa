"""Tree decompositions: heuristic construction, nice normalization, validation.

A decomposition is a tree of bags covering all vertices (condition 1), covering
every edge inside some bag (condition 2), with each vertex's bags forming a
connected subtree (condition 3). The nice form additionally types every node:
Leaf (single-vertex bag), Introduce, Forget, or Join with equal child bags.
Decompositions serialize to the PACE-style .td text format.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Iterator, NamedTuple

from .graph import InputError


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
    is recounted only when an elimination can change it. The keys are
    distinct, so the heap yields the same vertex whatever its layout. Masks
    are walked inline, lowest bit first, with no generator per mask.
    """
    n = g.n
    if n == 0:
        return TreeDecomposition((), ())

    adj = list(g.adjacency_masks)
    bags: list[frozenset[int]] = []
    position = [0] * n
    elim_neighbors: list[int] = []
    key: list[tuple[int, int, int] | None] = [None] * n
    heap: list[tuple[int, int, int]] = []
    touched = (1 << n) - 1  # the vertices whose key needs a count

    for step in range(n):
        # Count a key as the non-adjacent pairs among u's neighbours: each
        # neighbour a misses nbrs & ~adj[a], a itself included.
        while touched:
            low = touched & -touched
            touched ^= low
            u = low.bit_length() - 1
            nbrs = adj[u]
            missed = 0
            rest = nbrs
            while rest:
                bit = rest & -rest
                rest ^= bit
                missed += (nbrs & ~adj[bit.bit_length() - 1]).bit_count()
            degree = nbrs.bit_count()
            key[u] = entry = ((missed - degree) // 2, degree, u)
            heappush(heap, entry)
        while True:
            best = heappop(heap)
            v = best[2]
            if key[v] == best:
                break
        key[v] = None
        nbrs = adj[v]
        position[v] = step
        elim_neighbors.append(nbrs)
        # A key can change only for a vertex whose neighbourhood changed (v's
        # neighbours) or that sees both ends of a fill-in edge (a, b). Read
        # before a's update, adj[a] & adj[b] differs from the common
        # neighbours after it only inside v's neighbourhood and in v itself,
        # which the recount drops.
        bag = []
        vbit = 1 << v
        touched = nbrs
        rest = nbrs | vbit
        while rest:
            low = rest & -rest
            rest ^= low
            a = low.bit_length() - 1
            bag.append(a)
            if a == v:
                continue
            adj_a = adj[a]
            new = nbrs & ~adj_a & ~low
            adj[a] = (adj_a | new) & ~vbit
            while new:
                bit = new & -new
                new ^= bit
                touched |= adj_a & adj[bit.bit_length() - 1]
        bags.append(frozenset(bag))
        touched &= ~vbit

    # Each bag hangs from the bag of its earliest-eliminated neighbour.
    edges = []
    roots = []
    for step, nbrs in enumerate(elim_neighbors):
        if not nbrs:
            roots.append(step)
            continue
        parent = n
        while nbrs:
            low = nbrs & -nbrs
            nbrs ^= low
            parent = min(parent, position[low.bit_length() - 1])
        edges.append((step, parent))
    if len(roots) > 1:
        edges.extend((len(bags), r) for r in roots)
        bags.append(frozenset())
    return TreeDecomposition(tuple(bags), tuple(edges))


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

    Below v's forget, each vertex c hung below v brings its forget up to
    B(v) by introduces (v lies in L(c)), or a leaf of v does when nothing
    hangs below v, and a chain of joins, each the one before and the next
    end in hanging order, takes these ends together. By the first point the
    nodes holding a vertex run from where it is introduced up to its
    forget, so every node's bag is the one its kind derives. With the
    second point, the form passes `validate_nice`. Empty bags own no vertex
    and so add no node. Shared vertices go first so that a bag's vertices
    continue the chain hung below them: two bags joined by one tree edge
    give one leaf and no join.

    Walk order. Node ids are the order dp-wx builds its tables in: a
    post-order that, at each join, puts first the child with more forget
    nodes below it (ties: the first child). Each table is a function of its
    children's tables alone, so any order that builds children before
    parents gives every node the same table, cuts included, and builds the
    root exactly when no table is empty; the order only decides how soon a
    NO meets its first empty table. A forgotten vertex is deleted or kept
    for good, and its deletion or its finished component already counts
    against k or x, so the side that forgets more has settled more of the
    graph and is the likelier to run out of entries. The forgets below the
    forget of v are those of the vertices hung below v, directly or not,
    and v's own. One iterative generator emits the nodes (`stream_nice`
    hands it out unmaterialised), so a deep form needs no recursion.

    Raises StructuralError when a tree edge is out of range, or when the tree
    edges close a cycle or leave a bag unreached.
    """
    return NiceTreeDecomposition(tuple(_emit(*_skeleton(td))))


class NiceStream(NamedTuple):
    """A nice form about to be emitted: its node count, its width and its nodes.

    `nodes` yields the nodes of `make_nice` one at a time, in index order,
    so a consumer that stops early builds none of the rest.
    """

    node_count: int
    width: int
    nodes: Iterator[NiceNode]


def stream_nice(td: TreeDecomposition) -> NiceStream:
    """`make_nice(td)` with the count and the width now and the nodes on demand.

    Both come from the elimination skeleton in O(n), and a bad tree edge
    raises StructuralError here, before any node. Take a vertex v with
    s = |L(v)| and m vertices c hung below it. It has one forget, and
    either one leaf and s introduces when m = 0, or m - 1 joins and
    s - |L(c)| + 1 introduces above each c: (s + 2) * max(m, 1) nodes less
    the sum of |L(c)|. Each vertex but a root hangs below one other, and a
    root's L is empty, so over all v those sums add up to the sum of
    |L(v)|. The roots take one join fewer than there are roots. Every bag
    lies inside some B(v), which the joins and introduces below v's forget
    reach, so the width is the largest |L(v)|.
    """
    order, later, hung, roots = _skeleton(td)
    sizes = [len(lr) for lr in later]
    count = sum((s + 2) * (len(below) or 1) for s, below in zip(sizes, hung)) - sum(sizes)
    if roots:
        count += len(roots) - 1
    return NiceStream(count, max(sizes, default=-1), _emit(order, later, hung, roots))


def _skeleton(td: TreeDecomposition) -> tuple[list, list, list, list]:
    """The elimination of `make_nice`: (order, L per rank, ranks hung below
    each rank, roots).

    Ranks are positions in the elimination order; what hangs below a rank,
    and the roots, come in rank order.
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
    later: list[frozenset[int]] = []
    hung: list[list[int]] = [[] for _ in order]
    roots: list[int] = []
    for r, v in enumerate(order):
        lr = frozenset([u for u in bags[walk[top[v]]] if rank[u] > r])
        later.append(lr)
        (hung[min(map(rank.__getitem__, lr))] if lr else roots).append(r)
    return order, later, hung, roots


def _end_order(below: list[int], forgets: list[int]) -> list[int]:
    """Positions of the ends hung below one bag, in the order they are emitted.

    The joins take ends 0, 1, ... in turn, so join j's first child holds
    ends 0..j-1 and its second end j. From the last join down, end j goes
    before the rest when it has more forgets below it than ends 0..j-1
    together; the rest follow in hanging order.
    """
    weights = [forgets[c] for c in below]
    ahead = sum(weights)
    first = []
    for j in range(len(below) - 1, 0, -1):
        ahead -= weights[j]
        if ahead < weights[j]:
            first.append(j)
    return first + [j for j in range(len(below)) if j not in first]


def _emit(
    order: list[int], later: list[frozenset[int]], hung: list[list[int]], roots: list[int]
) -> Iterator[NiceNode]:
    """The nodes of `make_nice` in index order, from its skeleton.

    A depth-first walk of the hung vertices with an explicit stack. The
    frame of rank r (None at the top, where the roots hang) holds the ends
    of what hangs below r, by hanging position, and the join chain so far.
    Each vertex c hung below r is emitted whole, up to its forget, and
    lifted to r's bag; then every join whose two children are built
    follows.
    """
    forgets: list[int] = []  # the forget nodes below each rank's forget, its own included
    for below in hung:
        forgets.append(1 + sum(forgets[c] for c in below))
    new = tuple.__new__  # NiceNode(...) without its Python-level __new__
    nid = 0  # the id of the next node
    stack: list[tuple] = []
    r, below, lr = None, roots, frozenset()
    seq, pos, acc, nxt = _end_order(roots, forgets), 0, None, 1
    ends: list[int | None] = [None] * len(roots)
    while True:
        if pos < len(seq):
            j = seq[pos]
            pos += 1
            c = below[j]
            if hung[c]:
                stack.append((r, below, lr, seq, pos, ends, acc, nxt, j))
                r, below, lr = c, hung[c], later[c]
                seq, pos, acc, nxt = _end_order(below, forgets), 0, None, 1
                ends = [None] * len(below)
                continue
            v = order[c]
            bag = frozenset((v,))
            yield new(NiceNode, ("leaf", bag, v, ()))
            end = nid
            nid += 1
            for u in sorted(later[c]):
                bag = bag | {u}
                yield new(NiceNode, ("introduce", bag, u, (end,)))
                end = nid
                nid += 1
            yield new(NiceNode, ("forget", later[c], v, (end,)))
            end = nid
            nid += 1
        elif stack:
            c = r
            yield new(NiceNode, ("forget", lr, order[c], (acc,)))
            end = nid
            nid += 1
            r, below, lr, seq, pos, ends, acc, nxt, j = stack.pop()
        else:
            return
        # Node `end` is c's forget: lift it to r's bag, {r} + L(r) (r lies in
        # L(c)), then join what is ready, all in that bag.
        bag = later[c]
        for u in sorted(lr - bag):
            bag = bag | {u}
            yield new(NiceNode, ("introduce", bag, u, (end,)))
            end = nid
            nid += 1
        ends[j] = end
        if j == 0:
            acc = end
        if acc is not None:
            while nxt < len(ends) and ends[nxt] is not None:
                yield new(NiceNode, ("join", bag, None, (acc, ends[nxt])))
                acc = nid
                nid += 1
                nxt += 1


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
            for value, what in zip(header, ("bag count", "width", "vertex count")):
                if value < 0:
                    raise StructuralError(f"line {lineno}: negative {what}")
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
