"""Dynamic programming over a nice tree decomposition, parameterized by w + x.

Per node, an entry says: some set C of exactly k' vertices of the subtree graph
G_X, containing exactly the bag subset D, leaves at most x' connected pairs,
and the components meeting the bag trace the given blocks with the given true
sizes. Feasibility is monotone in x' under every rule (introduce adds a fixed
pair increment, forget preserves, join adds), so tables store one minimal x'
per structural key; `expanded_count` sizes the full feasible key set.

Vertex sets are int bitmasks over vertex ids, as in `oracle` and `branching`.
The blocks of a key are (vertex mask, true size) pairs sorted by mask; the
masks are disjoint, so each structure has exactly one key.

Each entry carries its C as a vertex mask, from the derivation that set its
x': a leaf's is 0 or v's bit, introduce-delete adds v's bit, a join ORs its
sides' cuts and the other rules pass C on. A join's sides share only bag
vertices, so their cuts meet in exactly D and |l | r| = lk + rk - |D| = k_new.

Every rule walks its child tables in insertion order. `offer` keeps the
least x' per key, so each table's key set and each key's x' are the same in
any order; only the cut kept among entries of equal x' (and so the
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

from operator import itemgetter

from .graph import Counters, Cut, Decision, Graph, bits, certify, check_parameters, connected_pairs
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


class DpTable:
    """Sparse feasible set for one node: min x' and its cut mask per structural key.

    x_cap is the bound the table was built for: `offer` drops any x' above it.
    """

    def __init__(self, x_cap: int):
        self.x_cap = x_cap
        self.entries: dict[Struct, tuple[int, int]] = {}

    def offer(self, struct: Struct, x_val: int, cut: int) -> None:
        if x_val > self.x_cap:
            return
        held = self.entries.get(struct)
        if held is None or x_val < held[0]:
            self.entries[struct] = (x_val, cut)

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
    table.offer((0, 0, ((bit, 1),)), 0, 0)
    if k >= 1:
        table.offer((1, bit, ()), 0, bit)
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
    for (k_used, deleted, blocks), (min_x, cut) in child.entries.items():
        if k_used < k:
            table.offer((k_used + 1, deleted | bit, blocks), min_x, cut | bit)
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
            table.offer((k_used, deleted, tuple(rest)), x_new, cut)
    return table


def forget_table(child: DpTable, v: int) -> DpTable:
    """Drop v from the bag; a block emptied by this is a finalized component."""
    table = DpTable(child.x_cap)
    bit = 1 << v
    for (k_used, deleted, blocks), (min_x, cut) in child.entries.items():
        if deleted & bit:
            new_struct: Struct = (k_used, deleted ^ bit, blocks)
        else:
            # An emptied block is dropped: its pairs are already inside x'.
            kept = sorted((b & ~bit, s) for b, s in blocks if b != bit)
            new_struct = (k_used, deleted, tuple(kept))
        table.offer(new_struct, min_x, cut)
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
    for struct, held in left.entries.items():
        by_deleted_left.setdefault(struct[1], []).append((struct, held))
    for r_struct, (r_min, r_cut) in right.entries.items():
        rk, deleted = r_struct[0], r_struct[1]
        matches = by_deleted_left.get(deleted)
        if not matches:
            continue
        k_room = k - rk + deleted.bit_count()  # the largest left k_used that fits
        for l_struct, (l_min, l_cut) in matches:
            if l_struct[0] > k_room:
                continue
            merged = _join_pair(l_struct, l_min, r_struct, r_min, x)
            if merged is not None:
                struct, x_new = merged
                table.offer(struct, x_new, l_cut | r_cut)
    return table


def _join_pair(
    l_struct: Struct, l_min: int, r_struct: Struct, r_min: int, x: int
) -> tuple[Struct, int] | None:
    lk, deleted, lblocks = l_struct
    rk, _, rblocks = r_struct
    k_new = lk + rk - deleted.bit_count()  # <= k: join_table skips the rest
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


class WxStats(Counters):
    node_count: int = 0
    width: int = 0
    max_table_structs: int = 0
    max_table_expanded: int = 0
    total_structs: int = 0


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
    root = tables[ntd.root].entries
    fits = [struct for struct, (min_x, _) in root.items() if struct[0] <= k and min_x <= x]
    return min(fits, key=lambda struct: (struct[0], root[struct][0]), default=None)


def extract_cut(
    tables: list[DpTable], ntd: NiceTreeDecomposition, root_struct: Struct
) -> frozenset[int]:
    """The cut a root entry carries; it leaves x' = connected_pairs(g - cut) pairs."""
    return frozenset(bits(tables[ntd.root].entries[root_struct][1]))


def solve_wx(
    g: Graph,
    k: int,
    x: int,
    ntd: NiceTreeDecomposition | None = None,
) -> Decision:
    """YES/NO plus certificate, computed over a (supplied or built) decomposition."""
    check_parameters(k, x)
    base = connected_pairs(g)
    if base <= x:
        # Every table x' range would be moot; the empty cut already certifies.
        return Decision(True, certify(g, Cut(frozenset(), base), k, x, "dp-wx"), WxStats())

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
        return Decision(False, None, stats)
    cut = extract_cut(tables, ntd, accept)
    if len(cut) != accept[0]:
        raise AssertionError("certificate size disagrees with its table entry")
    residual = tables[ntd.root].entries[accept][0]
    return Decision(True, certify(g, Cut(cut, residual), k, x, "dp-wx"), stats)
