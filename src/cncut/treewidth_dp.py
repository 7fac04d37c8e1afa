"""Dynamic programming over a nice tree decomposition, parameterized by w + x.

Per node, an entry says: some set C of exactly k' vertices of the subtree graph
G_X, containing exactly the bag subset x0, leaves at most x' connected pairs,
and the components meeting the bag trace the given blocks with the given true
sizes. Feasibility is monotone in x' under every rule (introduce adds a fixed
pair increment, forget preserves, join adds), so tables store one minimal x'
per structural key and expand the full feasible key set only on demand.

Every rule walks its child tables in insertion order. `offer` keeps the
least x' per key, so each table's key set and each key's x' are the same in
any order; only the back-pointer kept among entries of equal x' (and so the
certificate among equally good cuts) follows that order.

Join. Both sides have the same bag and the same deleted subset D, and each
side's blocks partition bag - D, so every bag vertex lies in exactly one
left block and one right block. Two blocks that share a vertex lie in one
component of the joined graph, and blocks that share none are not joined
through the bag, so the joined components are the classes of "shares a
vertex". Each class's true size is the sum of both sides' sizes less the
class's bag vertices, which both sides counted.
- When the two sides have the same blocks, every class is one block, so the
  blocks stay and a block B of sizes a and b gets size a + b - |B|.
- Otherwise each right block is fused, in turn, with every current group it
  meets; a group starts as a left block, and the right blocks partition
  bag - D, so the groups end as the classes, each with size the sum of its
  left sizes plus, for each right block B it took in, size(B) - |B|.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter
from typing import Iterator

from .graph import Cut, Graph, InputError, connected_pairs, verify_solution
from .decomposition import (
    NiceTreeDecomposition,
    StructuralError,
    heuristic_decomposition,
    make_nice,
    validate_nice,
)

# Structural key: (k_used, deleted bag subset, blocks, sizes), blocks ordered
# by smallest member, sizes aligned with blocks.
Struct = tuple[int, frozenset, tuple, tuple]

BackPointer = tuple


@dataclass(frozen=True)
class DpKey:
    """One feasible table entry in the expanded (per-x') view."""

    k_used: int
    x_bound: int
    deleted: frozenset[int]
    blocks: tuple[frozenset[int], ...]
    sizes: tuple[int, ...]

    def check(self) -> None:
        if len(self.blocks) != len(self.sizes):
            raise InputError("blocks and sizes must align")
        for b, s in zip(self.blocks, self.sizes):
            if s < len(b) or s * (s - 1) > self.x_bound:
                raise InputError(f"block {sorted(b)} with size {s} breaks the key invariant")


def _canon_blocks(
    blocks: list[frozenset[int]], sizes: list[int]
) -> tuple[tuple, tuple]:
    order = sorted(range(len(blocks)), key=lambda i: min(blocks[i]))
    return (
        tuple(blocks[i] for i in order),
        tuple(sizes[i] for i in order),
    )


def _struct_sort_key(struct: Struct):
    k_used, deleted, blocks, sizes = struct
    return (k_used, sorted(deleted), [sorted(b) for b in blocks], sizes)


class DpTable:
    """Sparse feasible set for one node, stored as min-x' per structural key.

    x_cap and k_cap are the bounds the table was built for: it holds every
    entry with k_used <= k_cap and x' <= x_cap, so it answers exactly the
    questions within both. k_cap is None for a table built by hand.
    """

    def __init__(self, x_cap: int, k_cap: int | None = None):
        self.x_cap = x_cap
        self.k_cap = k_cap
        self.entries: dict[Struct, tuple[int, BackPointer]] = {}

    def offer(self, struct: Struct, x_val: int, bp: BackPointer) -> None:
        if x_val > self.x_cap:
            return
        held = self.entries.get(struct)
        if held is None or x_val < held[0]:
            self.entries[struct] = (x_val, bp)

    def expanded_keys(self) -> Iterator[DpKey]:
        """Every feasible DpKey with x' up to the run bound, in key order."""
        for struct in sorted(self.entries, key=_struct_sort_key):
            k_used, deleted, blocks, sizes = struct
            min_x = self.entries[struct][0]
            for x_bound in range(min_x, self.x_cap + 1):
                yield DpKey(k_used, x_bound, deleted, blocks, sizes)

    def expanded_count(self) -> int:
        """Sum of x_cap - min_x + 1 over the entries."""
        held = self.entries.values()
        return len(held) * (self.x_cap + 1) - sum(map(itemgetter(0), held))

    def __len__(self) -> int:
        return len(self.entries)


def leaf_table(v: int, k: int, x: int) -> DpTable:
    """Two families: v kept as a singleton block, or v deleted when k allows."""
    table = DpTable(x, k)
    table.offer((0, frozenset(), (frozenset([v]),), (1,)), 0, ("leaf", v, False))
    if k >= 1:
        table.offer((1, frozenset([v]), (), ()), 0, ("leaf", v, True))
    return table


def introduce_table(
    child: DpTable, v: int, bag_neighbors: frozenset[int], k: int, x: int
) -> DpTable:
    """Add v to the bag: delete it, keep it apart, or keep it merging blocks.

    bag_neighbors are v's graph neighbors inside the child bag; by the
    decomposition's running-intersection property these are all the neighbors
    v has in the subtree graph. Keeping v apart is the merge of no blocks.
    """
    table = DpTable(x, k)
    vset = frozenset([v])
    layouts: dict[tuple, tuple] = {}
    for struct, (min_x, _) in child.entries.items():
        k_used, deleted, blocks, sizes = struct
        if k_used < k:
            table.offer(
                (k_used + 1, deleted | vset, blocks, sizes),
                min_x,
                ("intro-del", struct, v),
            )
        layout = layouts.get(blocks)
        if layout is None:
            layout = layouts[blocks] = _introduce_layout(blocks, vset, bag_neighbors)
        hits, rest, pos, nb = layout
        m_sum = x_new = 0
        if hits:
            # v joins blocks of sizes s_i into one of 1 + m_sum vertices:
            # 2 * m_sum pairs with v, and s_i * s_j for each pair of blocks.
            hit_sizes = [sizes[i] for i in hits]
            m_sum = sum(hit_sizes)
            x_new = 2 * m_sum + m_sum * m_sum - sum(s * s for s in hit_sizes)
        x_new += min_x
        if x_new <= x:
            ns = [sizes[i] for i in rest]
            ns.insert(pos, 1 + m_sum)
            table.offer((k_used, deleted, nb, tuple(ns)), x_new, ("intro-keep", struct))
    return table


def _introduce_layout(
    blocks: tuple, vset: frozenset[int], bag_neighbors: frozenset[int]
) -> tuple[tuple, tuple, int, tuple]:
    """How keeping v reshapes `blocks`, whatever the sizes.

    Returns the indices of the blocks v merges with, the indices of the other
    blocks by smallest member, the position of the merged block among them,
    and the resulting canonical blocks.
    """
    hits = tuple(i for i, b in enumerate(blocks) if not b.isdisjoint(bag_neighbors))
    rest = sorted(
        (i for i in range(len(blocks)) if i not in hits), key=lambda i: min(blocks[i])
    )
    merged = vset.union(*(blocks[i] for i in hits))
    low = min(merged)
    pos = sum(1 for i in rest if min(blocks[i]) < low)
    nb = [blocks[i] for i in rest]
    nb.insert(pos, merged)
    return hits, tuple(rest), pos, tuple(nb)


def forget_table(child: DpTable, v: int) -> DpTable:
    """Drop v from the bag; a block emptied by this is a finalized component."""
    table = DpTable(child.x_cap, child.k_cap)
    vset = frozenset([v])
    layouts: dict[tuple, tuple] = {}
    for struct, (min_x, _) in child.entries.items():
        k_used, deleted, blocks, sizes = struct
        if v in deleted:
            new_struct: Struct = (k_used, deleted - vset, blocks, sizes)
        else:
            layout = layouts.get(blocks)
            if layout is None:
                # An emptied block is dropped: its pairs are already inside x'.
                kept = sorted(
                    ((b - vset, i) for i, b in enumerate(blocks) if b != vset),
                    key=lambda bi: min(bi[0]),
                )
                layout = layouts[blocks] = (
                    tuple(b for b, _ in kept),
                    tuple(i for _, i in kept),
                )
            nb, order = layout
            new_struct = (k_used, deleted, nb, tuple([sizes[i] for i in order]))
        table.offer(new_struct, min_x, ("forget", struct))
    return table


def join_table(left: DpTable, right: DpTable, k: int, x: int) -> DpTable:
    """Combine sibling subtrees whose bags are identical.

    Only pairs with matching deleted bag subsets compose, and only while the
    shared deletions, counted on both sides, leave k_used <= k. Blocks merge
    into the classes of "shares a bag vertex" (see the module docstring); each
    merged component's size is the two sides' sizes minus the bag vertices
    counted twice.
    """
    table = DpTable(x, k)
    by_deleted_left: dict[frozenset[int], list] = {}
    for struct, (l_min, _) in left.entries.items():
        by_deleted_left.setdefault(struct[1], []).append((struct, l_min))
    for r_struct, (r_min, _) in right.entries.items():
        rk, deleted = r_struct[0], r_struct[1]
        matches = by_deleted_left.get(deleted)
        if not matches:
            continue
        k_room = k - rk + len(deleted)  # the largest left k_used that fits
        for l_struct, l_min in matches:
            if l_struct[0] > k_room:
                continue
            merged = _join_pair(l_struct, l_min, r_struct, r_min, k, x)
            if merged is not None:
                struct, x_new = merged
                table.offer(struct, x_new, ("join", l_struct, r_struct))
    return table


def _join_pair(
    l_struct: Struct, l_min: int, r_struct: Struct, r_min: int, k: int, x: int
) -> tuple[Struct, int] | None:
    lk, deleted, lblocks, lsizes = l_struct
    rk, _, rblocks, rsizes = r_struct
    k_new = lk + rk - len(deleted)
    if k_new > k:
        return None
    old_pairs = sum(s * (s - 1) for s in lsizes) + sum(s * (s - 1) for s in rsizes)
    if lblocks == rblocks:
        sizes = tuple(a + b - len(blk) for a, b, blk in zip(lsizes, rsizes, lblocks))
        x_new = l_min + r_min + sum(s * (s - 1) for s in sizes) - old_pairs
        if x_new > x:
            return None
        return (k_new, deleted, lblocks, sizes), x_new

    groups = list(zip(lblocks, lsizes))
    for rb, rs in zip(rblocks, rsizes):
        members, size = rb, rs - len(rb)
        rest = []
        for group in groups:
            if group[0].isdisjoint(rb):
                rest.append(group)
            else:
                members = members | group[0]
                size += group[1]
        rest.append((members, size))
        groups = rest
    x_new = l_min + r_min + sum(s * (s - 1) for _, s in groups) - old_pairs
    if x_new > x:
        return None
    nb, ns = _canon_blocks([b for b, _ in groups], [s for _, s in groups])
    return (k_new, deleted, nb, ns), x_new


@dataclass
class WxStats:
    node_count: int = 0
    width: int = 0
    max_table_structs: int = 0
    max_table_expanded: int = 0
    total_structs: int = 0


@dataclass(frozen=True)
class WxDecision:
    answer: bool
    cut: Cut | None
    stats: WxStats


def compute_tables(
    g: Graph, ntd: NiceTreeDecomposition, k: int, x: int
) -> list[DpTable]:
    """Bottom-up tables for every node; children precede parents by node order."""
    tables: list[DpTable] = []
    subtree_verts: list[frozenset[int]] = []
    for idx, nd in enumerate(ntd.nodes):
        if nd.kind == "leaf":
            tables.append(leaf_table(nd.vertex, k, x))
            subtree_verts.append(nd.bag)
        elif nd.kind == "introduce":
            child = nd.children[0]
            below = subtree_verts[child]
            outside = (g.neighbors(nd.vertex) & below) - ntd.nodes[child].bag
            if outside:
                raise StructuralError(
                    f"introduce of {nd.vertex} at node {idx}: neighbors "
                    f"{sorted(outside)} were already forgotten"
                )
            bag_neighbors = g.neighbors(nd.vertex) & ntd.nodes[child].bag
            tables.append(
                introduce_table(tables[child], nd.vertex, bag_neighbors, k, x)
            )
            subtree_verts.append(below | {nd.vertex})
        elif nd.kind == "forget":
            child = nd.children[0]
            tables.append(forget_table(tables[child], nd.vertex))
            subtree_verts.append(subtree_verts[child])
        elif nd.kind == "join":
            a, b = nd.children
            tables.append(join_table(tables[a], tables[b], k, x))
            subtree_verts.append(subtree_verts[a] | subtree_verts[b])
        else:
            raise StructuralError(f"unknown node kind {nd.kind!r}")
    return tables


def read_decision(
    tables: list[DpTable], ntd: NiceTreeDecomposition, k: int, x: int
) -> Struct | None:
    """Smallest accepting root entry for budgets k' <= k and bound x' <= x."""
    root_table = tables[ntd.root]
    best: tuple | None = None
    for struct, (min_x, _) in root_table.entries.items():
        k_used = struct[0]
        if k_used <= k and min_x <= x:
            cand = (k_used, min_x)
            if best is None or cand < best[0]:
                best = (cand, struct)
    return None if best is None else best[1]


def extract_cut(
    tables: list[DpTable], ntd: NiceTreeDecomposition, root_struct: Struct
) -> frozenset[int]:
    """Follow back-pointers from an accepting root entry down to the leaves."""
    cut: set[int] = set()
    stack: list[tuple[int, Struct]] = [(ntd.root, root_struct)]
    while stack:
        node_idx, struct = stack.pop()
        _, bp = tables[node_idx].entries[struct]
        node = ntd.nodes[node_idx]
        op = bp[0]
        if op == "leaf":
            if bp[2]:
                cut.add(bp[1])
        elif op == "intro-del":
            cut.add(bp[2])
            stack.append((node.children[0], bp[1]))
        elif op in ("intro-keep", "forget"):
            stack.append((node.children[0], bp[1]))
        elif op == "join":
            stack.append((node.children[0], bp[1]))
            stack.append((node.children[1], bp[2]))
        else:
            raise AssertionError(f"unknown back-pointer {op!r}")
    return frozenset(cut)


def solve_wx(
    g: Graph,
    k: int,
    x: int,
    ntd: NiceTreeDecomposition | None = None,
    precomputed: list[DpTable] | None = None,
) -> WxDecision:
    """YES/NO plus certificate, computed over a (supplied or built) decomposition."""
    if k < 0 or x < 0:
        raise InputError(f"parameters must be nonnegative, got k={k}, x={x}")
    if g.n == 0:
        return WxDecision(True, Cut(frozenset(), 0), WxStats())
    base = connected_pairs(g)
    if base <= x:
        # Every table x' range would be moot; the empty cut already certifies.
        return WxDecision(True, Cut(frozenset(), base), WxStats())

    if ntd is None:
        ntd = make_nice(heuristic_decomposition(g))
    report = validate_nice(g, ntd)
    if not report.ok:
        raise StructuralError(
            f"invalid nice decomposition (condition {report.condition}): {report.message}"
        )

    if precomputed is None:
        tables = compute_tables(g, ntd, k, x)
    else:
        tables = precomputed
        root = tables[ntd.root]
        if root.k_cap is None or k > root.k_cap or x > root.x_cap:
            raise InputError(
                f"precomputed tables were built for k <= {root.k_cap}, "
                f"x <= {root.x_cap}; asked k={k}, x={x}"
            )
    stats = WxStats(
        node_count=len(ntd.nodes),
        width=ntd.width,
        max_table_structs=max((len(t) for t in tables), default=0),
        max_table_expanded=max((t.expanded_count() for t in tables), default=0),
        total_structs=sum(len(t) for t in tables),
    )
    accept = read_decision(tables, ntd, k, x)
    if accept is None:
        return WxDecision(False, None, stats)
    cut = extract_cut(tables, ntd, accept)
    if len(cut) != accept[0]:
        raise AssertionError("certificate size disagrees with its table entry")
    check = verify_solution(g, cut, k, x)
    if not check.ok:
        raise AssertionError("table entry produced an invalid certificate")
    return WxDecision(True, Cut(cut, check.residual_pairs), stats)
