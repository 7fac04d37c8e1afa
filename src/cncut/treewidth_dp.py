"""Dynamic programming over a nice tree decomposition, parameterized by w + x.

Per node, an entry says: some set C of exactly k' vertices of the subtree graph
G_X, containing exactly the bag subset x0, leaves at most x' connected pairs,
and the components meeting the bag trace the given blocks with the given true
sizes. Feasibility is monotone in x' under every rule (introduce adds a fixed
pair increment, forget preserves, join adds), so tables store one minimal x'
per structural key; `expanded_count` sizes the full feasible key set.

Vertex sets are int bitmasks over vertex ids, as in `oracle` and `branching`.
The blocks of a key are (vertex mask, true size) pairs sorted by mask; the
masks are disjoint, so each structure has exactly one key.

Every rule walks its child tables in insertion order. `offer` keeps the
least x' per key, so each table's key set and each key's x' are the same in
any order; only the back-pointer kept among entries of equal x' (and so the
certificate among equally good cuts) follows that order.

Join. Both sides have the same bag and the same deleted subset D, and each
side's blocks partition bag - D, so every bag vertex lies in exactly one
left block and one right block. Two blocks that share a vertex lie in one
component of the joined graph, and blocks that share none are not joined
through the bag, so the joined components are the classes of "shares a
vertex". Each right block is fused, in turn, with every current group it
meets; a group starts as a left block, and the right blocks partition
bag - D, so the groups end as the classes. Each class's true size is the sum
of its left sizes plus, for each right block B it took in, size(B) - |B|:
both sides counted the class's bag vertices. The groups also end sorted by
mask, with no sort: the right blocks come in mask order, which for disjoint
masks is the order of their highest vertices, so each class is appended for
the last time by the right block that holds the class's highest vertex.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

from .graph import Cut, Graph, InputError, connected_pairs, verify_solution
from .decomposition import (
    NiceTreeDecomposition,
    StructuralError,
    heuristic_decomposition,
    make_nice,
    validate_nice,
)

# Structural key: (k_used, deleted bag subset as a mask, blocks), blocks a
# tuple of (vertex mask, true size) pairs sorted by mask.
Struct = tuple[int, int, tuple]

BackPointer = tuple


class DpTable:
    """Sparse feasible set for one node, stored as min-x' per structural key.

    x_cap is the bound the table was built for: `offer` drops any x' above it.
    """

    def __init__(self, x_cap: int):
        self.x_cap = x_cap
        self.entries: dict[Struct, tuple[int, BackPointer]] = {}

    def offer(self, struct: Struct, x_val: int, bp: BackPointer) -> None:
        if x_val > self.x_cap:
            return
        held = self.entries.get(struct)
        if held is None or x_val < held[0]:
            self.entries[struct] = (x_val, bp)

    def expanded_count(self) -> int:
        """Sum of x_cap - min_x + 1 over the entries."""
        held = self.entries.values()
        return len(held) * (self.x_cap + 1) - sum(map(itemgetter(0), held))

    def __len__(self) -> int:
        return len(self.entries)


def leaf_table(v: int, k: int, x: int) -> DpTable:
    """Two families: v kept as a singleton block, or v deleted when k allows."""
    table = DpTable(x)
    bit = 1 << v
    table.offer((0, 0, ((bit, 1),)), 0, ("leaf", v, False))
    if k >= 1:
        table.offer((1, bit, ()), 0, ("leaf", v, True))
    return table


def introduce_table(
    child: DpTable, v: int, bag_neighbors: int, k: int, x: int
) -> DpTable:
    """Add v to the bag: delete it, keep it apart, or keep it merging blocks.

    bag_neighbors is the mask of v's graph neighbors inside the child bag; by
    the decomposition's running-intersection property these are all the
    neighbors v has in the subtree graph. Keeping v apart is the merge of no
    blocks.
    """
    table = DpTable(x)
    bit = 1 << v
    for struct, (min_x, _) in child.entries.items():
        k_used, deleted, blocks = struct
        if k_used < k:
            table.offer((k_used + 1, deleted | bit, blocks), min_x, ("intro-del", struct, v))
        # v joins blocks of sizes s_i into one of 1 + m_sum vertices:
        # 2 * m_sum pairs with v, and s_i * s_j for each pair of blocks.
        merged, m_sum, squares, rest = bit, 0, 0, []
        for block in blocks:
            if block[0] & bag_neighbors:
                merged |= block[0]
                m_sum += block[1]
                squares += block[1] * block[1]
            else:
                rest.append(block)
        x_new = min_x + 2 * m_sum + m_sum * m_sum - squares
        if x_new <= x:
            rest.append((merged, 1 + m_sum))
            rest.sort()
            table.offer((k_used, deleted, tuple(rest)), x_new, ("intro-keep", struct))
    return table


def forget_table(child: DpTable, v: int) -> DpTable:
    """Drop v from the bag; a block emptied by this is a finalized component."""
    table = DpTable(child.x_cap)
    bit = 1 << v
    for struct, (min_x, _) in child.entries.items():
        k_used, deleted, blocks = struct
        if deleted & bit:
            new_struct: Struct = (k_used, deleted ^ bit, blocks)
        else:
            # An emptied block is dropped: its pairs are already inside x'.
            kept = sorted((b & ~bit, s) for b, s in blocks if b != bit)
            new_struct = (k_used, deleted, tuple(kept))
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
    table = DpTable(x)
    by_deleted_left: dict[int, list] = {}
    for struct, (l_min, _) in left.entries.items():
        by_deleted_left.setdefault(struct[1], []).append((struct, l_min))
    for r_struct, (r_min, _) in right.entries.items():
        rk, deleted = r_struct[0], r_struct[1]
        matches = by_deleted_left.get(deleted)
        if not matches:
            continue
        k_room = k - rk + deleted.bit_count()  # the largest left k_used that fits
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
    lk, deleted, lblocks = l_struct
    rk, _, rblocks = r_struct
    k_new = lk + rk - deleted.bit_count()
    if k_new > k:
        return None
    old_pairs = sum(s * (s - 1) for _, s in lblocks) + sum(s * (s - 1) for _, s in rblocks)
    groups = list(lblocks)
    for rb, rs in rblocks:
        members, size = rb, rs - rb.bit_count()
        rest = []
        for group in groups:
            if group[0] & rb:
                members |= group[0]
                size += group[1]
            else:
                rest.append(group)
        rest.append((members, size))
        groups = rest
    x_new = l_min + r_min + sum(s * (s - 1) for _, s in groups) - old_pairs
    if x_new > x:
        return None
    return (k_new, deleted, tuple(groups)), x_new


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
    """Bottom-up tables for every node; children precede parents by node order.

    `ntd` must pass `validate_nice` for `g`; `solve_wx` checks this first.
    Then every neighbor that an introduced vertex v has in its child c's
    subtree lies in bag(c), so the child bag is all `introduce_table` reads.
    Proof: let u be a neighbor of v in the bag of some node t in c's subtree.
    By condition 2 some bag B holds both u and v. The bags holding v are
    connected (condition 3) and include the introduce node's but not
    bag(c), so none lies in c's subtree, and B is outside it. The tree path
    from t to B passes through c, so by condition 3 for u, u is in bag(c).
    """
    tables: list[DpTable] = []
    for nd in ntd.nodes:
        if nd.kind == "leaf":
            tables.append(leaf_table(nd.vertex, k, x))
        elif nd.kind == "introduce":
            child = nd.children[0]
            bag_mask = sum(1 << u for u in ntd.nodes[child].bag)
            bag_neighbors = g.adjacency_masks[nd.vertex] & bag_mask
            tables.append(
                introduce_table(tables[child], nd.vertex, bag_neighbors, k, x)
            )
        elif nd.kind == "forget":
            tables.append(forget_table(tables[nd.children[0]], nd.vertex))
        elif nd.kind == "join":
            a, b = nd.children
            tables.append(join_table(tables[a], tables[b], k, x))
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
) -> WxDecision:
    """YES/NO plus certificate, computed over a (supplied or built) decomposition."""
    if k < 0 or x < 0:
        raise InputError(f"parameters must be nonnegative, got k={k}, x={x}")
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

    tables = compute_tables(g, ntd, k, x)
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
