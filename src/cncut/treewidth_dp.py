"""Dynamic programming over a nice tree decomposition, parameterized by w + x.

Per node, an entry says: some set C of exactly k' vertices of the subtree graph
G_X, containing exactly the bag subset D, leaves at most x' connected pairs,
and the components meeting the bag trace the given blocks with the given true
sizes. Feasibility is monotone in x' under every rule (introduce adds a fixed
pair increment, forget preserves, join adds), so a table is a dict that
holds one minimal x' per structural key. No rule makes an x' above x: a leaf
offers 0, introduce-keep tests x_new <= x, introduce-delete and forget carry
the child's x' unchanged, and a join drops x_new > x. So the keep-least rule,
`_keep_least`, has no cap test.

Vertex sets are int bitmasks over vertex ids, as in `oracle` and `branching`.
The blocks of a key are (vertex mask, true size) pairs sorted by mask; the
masks are disjoint, so each structure has exactly one key.

Each entry carries its C as a vertex mask, from the derivation that set its
x': a leaf's is 0 or v's bit, introduce-delete adds v's bit, a join ORs its
sides' cuts and the other rules pass C on. A join's sides share only bag
vertices, so their cuts meet in exactly D and |l | r| = lk + rk - |D| = k_new.

Every rule walks its child tables in insertion order. `_keep_least` keeps
the least x' per key, so each table's key set and each key's x' are the
same in any order; only the cut kept among entries of equal x' (and so the
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

Domination. `compute_tables` gives a vertex v with |dom(v)| >= k no delete
branch, where dom(v) is the set of vertices that dominate v and rank above
it, the mask `Graph.dominators[v]`. Every size has a best cut closed under
dom, by the swap argument of `Graph.dominators` that the subset scans of
`oracle` use too. A closed cut holds at least |dom(v)| + 1 vertices with
each v it holds, so one of at most k vertices avoids every filtered v. At
the least budget k* <= k that meets x, a closed cut of exactly k* vertices
has the least residual among them, so the root entry that `read_decision`
picks has the same k' and x' with or without the rule; only the cut kept
among equally good ones may differ.

Early NO. `compute_tables` stops after the first table with no entry, and
tables that stop before the root read as NO. For each node t the subtree
graph G_t is an induced subgraph of G. On a YES instance take a solution
C that avoids every filtered vertex: a closed optimal cut, as above. C
restricted to G_t deletes at most k vertices of G_t, avoids every filtered
vertex, and leaves at most x pairs there: each component of G_t - C lies
inside one of G - C. So it gives an entry in t's table, and a YES instance
never has an empty table. And every rule builds its table only from its
children's entries, so an empty table empties each ancestor, the root
included.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .graph import Cut, Decision, Graph, bits, certify, check_parameters, connected_pairs
from .decomposition import (
    NiceNode,
    NiceTreeDecomposition,
    StructuralError,
    stream_nice,
    validate_nice,
)

# Structural key: (k_used, deleted bag subset as a mask, blocks), blocks a
# tuple of (vertex mask, true size) pairs sorted by mask.
Struct = tuple[int, int, tuple]
# One node's table: the least x' per structural key, with the cut mask that
# reached it.
Table = dict[Struct, tuple[int, int]]


def _keep_least(table: Table, struct: Struct, x_val: int, cut: int) -> None:
    held = table.get(struct)
    if held is None or x_val < held[0]:
        table[struct] = (x_val, cut)


def leaf_table(v: int, k: int) -> Table:
    """Two families: v kept as a singleton block, or v deleted when k allows."""
    bit = 1 << v
    table: Table = {(0, 0, ((bit, 1),)): (0, 0)}
    if k >= 1:
        table[(1, bit, ())] = (0, bit)
    return table


def introduce_table(child: Table, v: int, bag_neighbors: int, k: int, x: int) -> Table:
    """Add v to the bag: delete it, keep it apart, or keep it merging blocks.

    bag_neighbors is the mask of v's graph neighbors inside the child bag; by
    the decomposition's running-intersection property these are all the
    neighbors v has in the subtree graph. Keeping v apart is the merge of no
    blocks.
    """
    table: Table = {}
    bit = 1 << v
    for (k_used, deleted, blocks), (min_x, cut) in child.items():
        if k_used < k:
            _keep_least(table, (k_used + 1, deleted | bit, blocks), min_x, cut | bit)
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
            _keep_least(table, (k_used, deleted, tuple(rest)), x_new, cut)
    return table


def forget_table(child: Table, v: int) -> Table:
    """Drop v from the bag; a block emptied by this is a finalized component."""
    table: Table = {}
    bit = 1 << v
    for (k_used, deleted, blocks), (min_x, cut) in child.items():
        if deleted & bit:
            new_struct: Struct = (k_used, deleted ^ bit, blocks)
        else:
            # An emptied block is dropped: its pairs are already inside x'.
            kept = sorted((b & ~bit, s) for b, s in blocks if b != bit)
            new_struct = (k_used, deleted, tuple(kept))
        _keep_least(table, new_struct, min_x, cut)
    return table


def join_table(left: Table, right: Table, k: int, x: int) -> Table:
    """Combine sibling subtrees whose bags are identical.

    Only pairs with matching deleted bag subsets compose, and only while the
    shared deletions, counted on both sides, leave k_used <= k. Blocks merge
    into the classes of "shares a bag vertex" (see the module docstring); each
    merged component's size is the two sides' sizes minus the bag vertices
    counted twice.
    """
    table: Table = {}
    # Each side's x' less the pairs inside its blocks: the join recounts
    # those pairs over the merged classes.
    by_deleted_left: dict[int, list] = {}
    for (lk, deleted, lblocks), (l_min, l_cut) in left.items():
        l_base = l_min - sum(s * (s - 1) for _, s in lblocks)
        by_deleted_left.setdefault(deleted, []).append((lk, lblocks, l_base, l_cut))
    for (rk, deleted, rblocks), (r_min, r_cut) in right.items():
        matches = by_deleted_left.get(deleted)
        if not matches:
            continue
        shared = deleted.bit_count()
        k_room = k - rk + shared  # the largest left k_used that fits
        r_base = r_min - sum(s * (s - 1) for _, s in rblocks)
        for lk, lblocks, l_base, l_cut in matches:
            if lk > k_room:
                continue
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
            x_new = l_base + r_base + sum(s * (s - 1) for _, s in groups)
            if x_new <= x:
                _keep_least(table, (lk + rk - shared, deleted, tuple(groups)), x_new,
                            l_cut | r_cut)
    return table


class WxStats(NamedTuple):
    node_count: int = 0
    tables_built: int = 0  # below node_count when a table came out empty
    width: int = 0
    max_table_structs: int = 0
    total_structs: int = 0


def compute_tables(g: Graph, nodes: Iterable[NiceNode], k: int, x: int) -> list[Table]:
    """Bottom-up tables in node index order, up to the first empty one.

    `nodes` is a nice form's node list, or `stream_nice`'s nodes, which are
    then built only as far as the walk goes. In `make_nice`'s order, the
    heavier subtree comes first at each join, as it is the likelier to come
    out empty (see "Walk order" in `make_nice`); any children-first order
    builds the same table at every node it reaches, as each rule reads only
    its children's tables.

    Returns the tables built, one per node in index order. They stop after
    the first table with no entry, so the last table is the root's exactly
    when it has an entry; an empty table means NO ("Early NO" in the module
    docstring).

    A vertex v with |dom(v)| >= k, the popcount of `Graph.dominators[v]`,
    is never deleted: its leaf or introduce table gets budget 0, so no
    delete branch. The module docstring says why no answer moves.

    The nodes must form a nice decomposition that passes `validate_nice`
    for `g`. `solve_wx` checks a supplied form first; the form it builds
    itself is valid by construction (see `make_nice`).
    Then every neighbor that an introduced vertex v has in its child c's
    subtree lies in bag(c), which is v's bag without v, so that bag is all
    `introduce_table` reads.
    Proof: let u be a neighbor of v in the bag of some node t in c's subtree.
    By condition 2 some bag B holds both u and v. The bags holding v are
    connected (condition 3) and include the introduce node's but not
    bag(c), so none lies in c's subtree, and B is outside it. The tree path
    from t to B passes through c, so by condition 3 for u, u is in bag(c).
    """
    tables: list[Table] = []
    adjacency = g.adjacency_masks
    dominators = g.dominators
    for kind, bag, v, children in nodes:
        if kind == "leaf":
            table = leaf_table(v, k if dominators[v].bit_count() < k else 0)
        elif kind == "introduce":
            bag_neighbors = adjacency[v] & sum(1 << u for u in bag)
            k_v = k if dominators[v].bit_count() < k else 0
            table = introduce_table(tables[children[0]], v, bag_neighbors, k_v, x)
        elif kind == "forget":
            table = forget_table(tables[children[0]], v)
        elif kind == "join":
            a, b = children
            table = join_table(tables[a], tables[b], k, x)
        else:
            raise StructuralError(f"unknown node kind {kind!r}")
        tables.append(table)
        if not table:
            break
    return tables


def read_decision(tables: list[Table], k: int, x: int) -> Struct | None:
    """Smallest accepting root entry for budgets k' <= k and bound x' <= x.

    `tables` comes from `compute_tables` at some budgets K >= k and X >= x.
    When its last table is empty, the walk stopped there or at an empty
    root, so the root's table would have been empty too: no cut of at most
    K vertices leaves at most X pairs, and None is the answer for every
    smaller k and x as well. Otherwise the last table is the root's.
    """
    root = tables[-1] if tables else {}
    fits = [struct for struct, (min_x, _) in root.items() if struct[0] <= k and min_x <= x]
    return min(fits, key=lambda struct: (struct[0], root[struct][0]), default=None)


def extract_cut(tables: list[Table], root_struct: Struct) -> Cut:
    """The cut a root entry carries, with its x' = connected_pairs(g - cut)."""
    residual, cut = tables[-1][root_struct]
    return Cut(frozenset(bits(cut)), residual)


def solve_wx(g: Graph, k: int, x: int, ntd: NiceTreeDecomposition | None = None) -> Decision:
    """YES/NO plus certificate, computed over a nice tree decomposition of g.

    A supplied `ntd` must pass `validate_nice`, or StructuralError is raised,
    whatever the answer would be. Without one, the form is the nice form of
    the graph's cached min-fill decomposition, `g.heuristic_td`, which is
    valid by construction and so is not checked. That form is streamed into
    `compute_tables` (`stream_nice`), so a NO builds none of it past the
    first empty table; `node_count` and `width` come from its skeleton. The
    other stats are read off the tables `compute_tables` returns, and a YES
    certificate is the root entry's cut (`extract_cut`).
    """
    check_parameters(k, x)
    if ntd is not None and not (report := validate_nice(g, ntd)).ok:
        raise StructuralError(
            f"invalid nice decomposition (condition {report.condition}): {report.message}"
        )
    base = connected_pairs(g)
    if base <= x:
        # Every table x' range would be moot; the empty cut already certifies.
        return Decision(True, certify(g, Cut(frozenset(), base), k, x, "dp-wx"), WxStats())

    if ntd is None:
        node_count, width, nodes = stream_nice(g.heuristic_td)
    else:
        node_count, width, nodes = len(ntd.nodes), ntd.width, ntd.nodes

    tables = compute_tables(g, nodes, k, x)
    sizes = list(map(len, tables))
    stats = WxStats(node_count=node_count, tables_built=len(tables), width=width,
                    max_table_structs=max(sizes, default=0), total_structs=sum(sizes))
    accept = read_decision(tables, k, x)
    if accept is None:
        return Decision(False, None, stats)
    cut = extract_cut(tables, accept)
    if len(cut.vertices) != accept[0]:
        raise AssertionError("certificate size disagrees with its table entry")
    return Decision(True, certify(g, cut, k, x, "dp-wx"), stats)
