"""Reference predicates and witnesses that only the tests use.

Each is a plain check, independent of the engines and of the reductions'
own bookkeeping, so a test can hold a construction's structural claims
(bipartite, degenerate, clique, component census, treewidth witness)
against it. `reference_covers` is the branch-kx search written the plain
way, copying the adjacency at every node and without the per-node
high-degree rule, so the mask-based search can be held to a subsequence of
its leaves with the same minimal covers, in no more nodes; `peeled` gives
the graph in the labelling `solve_branch_kx` searches, so that the two run
on the same one. `connected_components`
labels `Graph.components` per vertex for the graph tests,
`dominators` is `Graph.dominators` from its definition and
`dominator_counts` its popcounts, `full_scan` is the subset
scan of `oracle` written the plain way, over every subset and with the
closed ones marked, and `reference_tables` is dp-wx's table loop in node
index order, with the domination rule and the stop at the first empty
table as options.
`reference_heuristic_decomposition` and `reference_make_nice` are the
min-fill and the nice form as they were written before the min-fill ran
its bit loops inline and the nice form came out in dp-wx's walk order, so
the new ones can be held to the same decomposition and to a renumbering of
the same form, and the walk to the former index-order loop table for table.
`reference_kernelize` is the high-degree rule as it ran before it moved
onto one integer threshold and returned a mask: each step tests d > k' and
(d - k')^2 > x over the live vertices, and the kernel graph is built from
the lists of forced and isolated vertices. `reference_kernel_run` is auto's kernel route as it
ran before it settled the forced set on the input's masks: the rule once to
see whether it fires and again to build the kernel graph, whose pairs it
then counted, and the kernel instance solved by `run_instance` and mapped back.
"""

import heapq
from itertools import combinations
from typing import Iterable, Iterator, NamedTuple

from cncut.decomposition import NiceNode, NiceTreeDecomposition, TreeDecomposition, _walk
from cncut.graph import Graph, bits, connected_pairs, pairs_by_edges, remove_vertices
from cncut.harness import run_instance
from cncut.instance_io import CncInstance
from cncut.kernel import KernelTrace
from cncut.reductions import HIGH, LOW, MccLayout
from cncut.treewidth_dp import Table, forget_table, introduce_table, join_table, leaf_table


def empty_graph(n: int) -> Graph:
    return Graph(n, frozenset())


def peeled(g: Graph) -> Graph:
    """g relabelled by `Graph.peel_order`, the labelling `solve_branch_kx` searches."""
    rank = {v: i for i, v in enumerate(g.peel_order)}
    return Graph.from_edges(g.n, [(rank[u], rank[v]) for u, v in g.edges])


class ComponentLabeling(NamedTuple):
    """Vertex -> component label plus the size of every component."""

    labels: tuple[int, ...]
    sizes: tuple[int, ...]

    @property
    def count(self) -> int:
        return len(self.sizes)


def connected_components(g: Graph) -> ComponentLabeling:
    """Label components with consecutive ints in order of their smallest vertex."""
    labels = [0] * g.n
    for label, comp in enumerate(g.components):
        for v in bits(comp):
            labels[v] = label
    return ComponentLabeling(tuple(labels), tuple(c.bit_count() for c in g.components))


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


def _without(adj: list[int], w: int) -> list[int]:
    sub = adj[:]
    nbrs = sub[w]
    sub[w] = 0
    keep = ~(1 << w)
    while nbrs:
        low = nbrs & -nbrs
        nbrs ^= low
        sub[low.bit_length() - 1] &= keep
    return sub


class reference_covers:
    """The search leaves of `branching._Covers` before its high-degree rule,
    each node holding its own adjacency copy.

    Depth first, each node trying delete u, delete v, keep {u, v} in that
    order, on the smallest remaining edge {u, v}. Vertices below u stay
    edgeless in every descendant, so the next smallest edge is searched
    from u on. `nodes` counts the nodes visited as `_Covers.nodes` does.
    """

    def __init__(self, masks: tuple[int, ...], k: int, budget: int) -> None:
        self.masks, self.k, self.budget = masks, k, budget
        self.nodes = 0

    def __iter__(self) -> Iterator[int]:
        n = len(self.masks)
        stack = [(list(self.masks), 0, 0, self.k, self.budget)]
        while stack:
            adj, u, chosen, k_rem, x_rem = stack.pop()
            self.nodes += 1
            while u < n and not adj[u]:
                u += 1
            if u == n:
                yield chosen
                continue
            low = adj[u] & -adj[u]
            v = low.bit_length() - 1
            if x_rem > 0:
                kept = adj[:]
                kept[u] ^= low
                kept[v] ^= 1 << u
                stack.append((kept, u, chosen, k_rem, x_rem - 1))
            if k_rem > 0:
                stack.append((_without(adj, v), u, chosen | low, k_rem - 1, x_rem))
                stack.append((_without(adj, u), u, chosen | 1 << u, k_rem - 1, x_rem))


def dominators(g: Graph) -> tuple[int, ...]:
    """dom(v) per vertex as a mask, from the definition with neighbour sets.

    u dominates v when u != v and N(v) - {u} is inside N(u); dom(v) keeps
    the dominators that rank above v by (degree, -id).
    """
    nbrs = [g.neighbors(v) for v in range(g.n)]

    def rank(v: int) -> tuple[int, int]:
        return len(nbrs[v]), -v

    return tuple(
        sum(1 << u for u in range(g.n)
            if u != v and nbrs[v] - {u} <= nbrs[u] and rank(u) > rank(v))
        for v in range(g.n)
    )


def dominator_counts(g: Graph) -> tuple[int, ...]:
    """|dom(v)| per vertex, the popcounts of `dominators`."""
    return tuple(mask.bit_count() for mask in dominators(g))


class Scanned(NamedTuple):
    subset: frozenset[int]
    pairs: int
    closed: bool


def full_scan(
    g: Graph, candidates: Iterable[int], sizes: Iterable[int], removed: frozenset[int] = frozenset()
) -> list[Scanned]:
    """Every subset S of `candidates`, by increasing size over `sizes` and
    lexicographically within a size, with the pairs g keeps once `removed`
    and S are deleted, and whether S is closed: each v in S has in S every
    dominator of `dominators` that is not in `removed`.
    """
    candidates = list(candidates)
    doms = [set(bits(mask)) - removed for mask in dominators(g)]
    rows = []
    for size in sizes:
        for subset in combinations(candidates, size):
            s = frozenset(subset)
            rows.append(Scanned(s, pairs_by_edges(g, removed | s), all(doms[v] <= s for v in s)))
    return rows


def reference_tables(
    g: Graph, ntd: NiceTreeDecomposition, k: int, x: int,
    *, dominated: bool = False, stop: bool = False,
) -> list[Table]:
    """dp-wx's table loop in node index order, one table per node of a valid nice form.

    With neither option this is the plain DP of the w + x algorithm: each
    table holds every structure of at most k deletions and at most x pairs
    in its subtree graph, every vertex deletable. `dominated` gives a vertex
    with |dom(v)| >= k budget 0, as `compute_tables` does, and `stop` ends
    the list after the first empty table. With both, on the form of
    `reference_make_nice`, it is the loop `compute_tables` ran before it
    walked the heavier subtree first.
    """
    budget = [k if not dominated or d < k else 0 for d in dominator_counts(g)]
    tables: list[Table] = []
    for nd in ntd.nodes:
        if nd.kind == "leaf":
            tables.append(leaf_table(nd.vertex, budget[nd.vertex]))
        elif nd.kind == "introduce":
            child = nd.children[0]
            v = nd.vertex
            bag_neighbors = sum(1 << u for u in g.neighbors(v) & ntd.nodes[child].bag)
            tables.append(introduce_table(tables[child], v, bag_neighbors, budget[v], x))
        elif nd.kind == "forget":
            tables.append(forget_table(tables[nd.children[0]], nd.vertex))
        else:
            a, b = nd.children
            tables.append(join_table(tables[a], tables[b], k, x))
        if stop and not tables[-1]:
            break
    return tables


def reference_heuristic_decomposition(g) -> TreeDecomposition:
    """`heuristic_decomposition` as it ran on `bits` and a `_fill_in` per recount.

    Min-fill elimination; ties by min degree, then smallest id.

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


def reference_make_nice(td: TreeDecomposition) -> NiceTreeDecomposition:
    """`make_nice` as it emitted the form before the walk order: each vertex's
    part whole, in elimination order, and each join chain in hanging order.

    The same nodes, numbered otherwise; see `make_nice` for the construction.
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


def in_walk_order(ntd: NiceTreeDecomposition) -> bool:
    """Whether node ids follow dp-wx's walk: each subtree one run of ids
    ending at its root, and at each join the child with more forget nodes
    below it first (ties: the first child)."""
    forgets: list[int] = []  # forget nodes in each node's subtree, itself included
    span: list[int] = []  # nodes in each node's subtree
    for i, nd in enumerate(ntd.nodes):
        forgets.append((nd.kind == "forget") + sum(forgets[c] for c in nd.children))
        span.append(1 + sum(span[c] for c in nd.children))
        if nd.children and max(nd.children) != i - 1:
            return False
        if len(nd.children) == 2:
            a, b = nd.children
            first, second = sorted(nd.children)
            if (a < b) != (forgets[a] >= forgets[b]) or first != second - span[second]:
                return False
    return True


def nice_renumbering(
    old: NiceTreeDecomposition, new: NiceTreeDecomposition
) -> dict[int, int] | None:
    """The node ids of `old` mapped onto those of `new`, or None when `new`
    is not `old` renumbered.

    Roots are matched, then each matched pair's children in their order, so
    a join's children keep their (first, second) order. Every matched pair
    must agree in kind, bag and vertex, and the map must cover both forms.
    Both forms must be trees, as `validate_nice` checks.
    """
    if len(old.nodes) != len(new.nodes):
        return None
    mapping: dict[int, int] = {}
    pending = [(old.root, new.root)] if old.nodes else []
    while pending:
        i, j = pending.pop()
        a, b = old.nodes[i], new.nodes[j]
        if a._replace(children=len(a.children)) != b._replace(children=len(b.children)):
            return None
        mapping[i] = j
        pending.extend(zip(a.children, b.children))
    if sorted(mapping) != sorted(mapping.values()) or len(mapping) != len(old.nodes):
        return None
    return mapping


def has_clique(g: Graph, size: int) -> bool:
    """Plain subset check, independent of any reduction bookkeeping."""
    if size <= 1:
        return size >= 0 and g.n >= size
    for cand in combinations(range(g.n), size):
        if all(g.has_edge(u, v) for u, v in combinations(cand, 2)):
            return True
    return False


def mcc_direct_decomposition(layout: MccLayout) -> TreeDecomposition:
    """A decomposition witnessing the treewidth bound: all validation vertices
    ride in every bag, each gadget contributes small local bags."""
    val: list[int] = []
    for rng in sorted(layout.validation.items(), key=lambda kv: kv[1][0]):
        val.extend(rng[1])
    val_f = frozenset(val)

    bags: list[frozenset[int]] = []
    edges: list[tuple[int, int]] = []

    def add_bag(members: frozenset[int], parent: int | None) -> int:
        bags.append(members | val_f)
        idx = len(bags) - 1
        if parent is not None:
            edges.append((parent, idx))
        return idx

    spine_prev: int | None = None
    for u in range(layout.n):
        cu = frozenset(layout.core_clique[u])
        spine = add_bag(cu, spine_prev)
        spine_prev = spine
        for d in layout.vertex_dummies[u]:
            add_bag(cu | {d}, spine)
        for key, core in sorted(layout.selector_core.items(), key=lambda kv: kv[1][0]):
            if key[0] != u:
                continue
            core_f = frozenset(core)
            core_bag = add_bag(cu | core_f, spine)
            for gv in layout.selector_guard[key]:
                add_bag(core_f | {gv}, core_bag)

    for f in layout.source_edges:
        ev = layout.edge_vertex[f]
        spine = add_bag(frozenset([ev]), spine_prev)
        spine_prev = spine
        for d in layout.edge_dummies[f]:
            add_bag(frozenset([ev, d]), spine)
        for w in f:
            for order in (LOW, HIGH):
                core_f = frozenset(layout.edge_core[(f, w, order)])
                core_bag = add_bag(core_f | {ev}, spine)
                for gv in layout.edge_guard[(f, w, order)]:
                    add_bag(core_f | {gv}, core_bag)

    if spine_prev is None:
        add_bag(frozenset(), None)
    return TreeDecomposition(tuple(bags), tuple(edges))


def _forced_vertex(masks: tuple[int, ...], alive: int, k_cur: int, x: int) -> int | None:
    # Smallest live id whose live degree d satisfies d > k_cur and (d - k_cur)^2 > x.
    for v in bits(alive):
        d = (masks[v] & alive).bit_count()
        if d > k_cur and (d - k_cur) * (d - k_cur) > x:
            return v
    return None


def reference_kernelize(g: Graph, k: int, x: int) -> KernelTrace:
    """The high-degree rule to exhaustion, each step a scan from vertex 0, then
    the isolated vertices dropped."""
    masks, alive = g.adjacency_masks, (1 << g.n) - 1
    forced: list[int] = []
    k_cur = k
    while (v := _forced_vertex(masks, alive, k_cur, x)) is not None:
        if k_cur == 0:
            return KernelTrace(tuple(forced), (), 0, None, (), infeasible=True)
        alive &= ~(1 << v)
        forced.append(v)
        k_cur -= 1
    isolated = [v for v in bits(alive) if not masks[v] & alive]
    kernel, kernel_to_original = remove_vertices(g, forced + isolated)
    return KernelTrace(tuple(forced), tuple(isolated), k_cur, kernel, kernel_to_original)


class KernelRun(NamedTuple):
    answer: str
    cut: tuple[int, ...] | None
    residual_pairs: int | None
    pairs_removed: int | None
    algorithm: str
    kernel: dict


def reference_kernel_run(g: Graph, k: int, x: int) -> KernelRun | None:
    """What auto's kernel route reports on (g, k, x), or None where the rule
    forces nothing. x must be below g's pairs, so the target is not met."""
    if _forced_vertex(g.adjacency_masks, (1 << g.n) - 1, k, x) is None:
        return None
    trace = reference_kernelize(g, k, x)
    forced = len(trace.forced_vertices)
    if trace.infeasible:
        return KernelRun("NO", None, None, None, "kernel",
                         {"forced": forced + 1, "k_out": 0, "n_out": g.n - forced})
    kernel = trace.kernel_graph
    stats = {"forced": forced, "k_out": trace.k_out, "n_out": kernel.n}
    residual = connected_pairs(kernel)
    if residual <= x:
        cut, algorithm = frozenset(), "kernel"
    else:
        report = run_instance(CncInstance(kernel, trace.k_out, x=x))
        if report.answer == "NO":
            return KernelRun("NO", None, None, None, report.algorithm, stats)
        cut, residual, algorithm = report.cut, report.residual_pairs, report.algorithm
    lifted = tuple(sorted({*trace.forced_vertices, *(trace.kernel_to_original[v] for v in cut)}))
    return KernelRun("YES", lifted, residual, connected_pairs(g) - residual, algorithm, stats)
