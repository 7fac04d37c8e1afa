"""Instance generators that translate clique-style questions into cut instances.

Three families:
  * clique -> cut with target y (plus split and bipartite/2-degenerate variants),
  * multicolored clique -> cut with target x via selection/validation gadgets,
  * OR-composition of many equal-shape clique instances into one cut instance.

All size formulas take the gadget sizes as free parameters so the accounting
identities can be exercised at small scales.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from itertools import combinations
from math import comb

from .graph import Cut, Graph, InputError, Refusal, disjoint_union


class MaterializationRefused(Refusal):
    def __init__(self, total: int, cap: int):
        self.total = total
        self.cap = cap
        super().__init__(
            f"refusing to materialize {total} vertices (cap {cap}); raise the cap to proceed"
        )


@dataclass(frozen=True)
class CliqueInstance:
    """A clique question: does graph contain a clique of ell vertices?

    colors, when present, make it the multicolored variant: one vertex per
    color class, colors 0..ell-1, and no edge may join two same-colored
    vertices.
    """

    graph: Graph
    ell: int
    colors: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        if not (1 <= self.ell <= self.graph.n):
            raise InputError(f"clique size {self.ell} out of range for n={self.graph.n}")
        if self.colors is not None:
            if len(self.colors) != self.graph.n:
                raise InputError("one color per vertex required")
            if any(not (0 <= c < self.ell) for c in self.colors):
                raise InputError(f"colors must lie in 0..{self.ell - 1}")
            for u, v in self.graph.edges:
                if self.colors[u] == self.colors[v]:
                    raise InputError(
                        f"edge ({u},{v}) joins two vertices of color {self.colors[u]}"
                    )


@dataclass(frozen=True)
class ReductionOutput:
    graph: Graph
    k: int
    y: int | None
    x: int | None
    roles: tuple[str, ...]
    notes: dict


def pairs_target(n: int, big_n: int, k: int) -> int:
    """Removed-pairs target; a k-clique cut of originals achieves it exactly.

    Every term counts a pair type, so the cross term floors at zero: a source
    too sparse to hold the clique then gets a target above any achievable
    removal and the produced instance is a clean NO.
    """
    d = comb(k, 2) * n
    return k * (k - 1) + 2 * k * (big_n - k) + d * (d - 1) + 2 * d * max(0, big_n - k - d)


def _clique_reduction(source: CliqueInstance, variant: str) -> ReductionOutput:
    """Gadgets for every source edge, then each original pair by variant.

    Every source edge {u, v} gets n dummies adjacent to both u and v. Then
    each original pair gets an edge when it is a source non-edge (base),
    always (split), or a subdivided edge when it is a source non-edge
    (bipartite).
    """
    g = source.graph
    n, ell = g.n, source.ell
    edges: list[tuple[int, int]] = []
    roles = ["original"] * n
    for u, v in sorted(g.edges):
        for _ in range(n):
            edges += [(u, len(roles)), (v, len(roles))]
            roles.append("dummy")
    for u, v in combinations(range(n), 2):
        if g.has_edge(u, v) and variant != "split":
            continue
        if variant == "bipartite":
            edges += [(u, len(roles)), (v, len(roles))]
            roles.append("subdivision")
        else:
            edges.append((u, v))
    total = len(roles)
    notes = {"variant": variant, "source_n": n, "source_m": g.m, "ell": ell, "N": total}
    out_graph = Graph.from_edges(total, edges)
    return ReductionOutput(out_graph, ell, pairs_target(n, total, ell), None, tuple(roles), notes)


def reduce_clique_to_cnc(source: CliqueInstance) -> ReductionOutput:
    """Each source edge becomes n two-step paths; each source non-edge an edge.

    Deleting a k-clique of originals isolates exactly k*n dummies per chosen
    source-edge pair, which is what the y target counts; no other budget-k
    deletion reaches it.
    """
    return _clique_reduction(source, "base")


def reduce_clique_split(source: CliqueInstance) -> ReductionOutput:
    """Same construction, then every original pair is made adjacent.

    The originals form a clique and the dummies an independent set, so the
    output is a split graph; the vertex count and the y target are unchanged.
    """
    return _clique_reduction(source, "split")


def reduce_clique_bipartite(source: CliqueInstance) -> ReductionOutput:
    """Base construction with every original-original edge subdivided once.

    Originals end on one side, all dummies and subdividers on the other; every
    non-original has degree at most 2, so the output is also 2-degenerate.
    """
    return _clique_reduction(source, "bipartite")


def cross_compose(sources: list[CliqueInstance], ell: int) -> ReductionOutput:
    """Disjoint union of the base reductions of equally-shaped sources.

    One budget-k deletion can only profit inside a single part, so the union
    asks the OR of the individual clique questions; y is computed with the
    per-part vertex count.
    """
    if not sources:
        raise InputError("need at least one source instance")
    n, m = sources[0].graph.n, sources[0].graph.m
    for s in sources:
        if s.graph.n != n or s.graph.m != m:
            raise InputError(
                f"instances must share the vertex and edge counts, got "
                f"({s.graph.n},{s.graph.m}) vs ({n},{m})"
            )
    if not (ell > 3 and n > ell**4 and m >= n):
        warnings.warn(
            "composition arguments assume ell > 3, n > ell^4 and m >= n "
            f"(got ell={ell}, n={n}, m={m}); the construction proceeds anyway",
            stacklevel=2,
        )
    parts = [reduce_clique_to_cnc(CliqueInstance(s.graph, ell)) for s in sources]
    union, spans = disjoint_union([p.graph for p in parts])
    roles: list[str] = []
    for p in parts:
        roles.extend(p.roles)
    per_part = parts[0].notes["N"]
    y = pairs_target(n, per_part, ell)
    notes = {
        "variant": "cross-composition",
        "instances": len(sources),
        "per_part_vertices": per_part,
        "spans": tuple((span[0], span[-1]) for span in spans),
        "ell": ell,
    }
    return ReductionOutput(union, ell, y, None, tuple(roles), notes)


# Multicolored-clique construction.

@dataclass(frozen=True)
class GadgetSizes:
    """Free size knobs of the multicolored construction.

    The selection budget charges ell * A for the selected core cliques.
    """

    A: int
    B: int
    Cv: int
    X: int
    Y: int
    Z: int

    def __post_init__(self) -> None:
        for name in ("A", "B", "Cv", "X", "Y", "Z"):
            if getattr(self, name) <= 0:
                raise InputError(f"gadget size {name} must be strictly positive")

    @staticmethod
    def reference(n: int, ell: int) -> GadgetSizes:
        return GadgetSizes(A=ell**2, B=ell**4, Cv=ell**7, X=n**4, Y=n**9, Z=n**16)


@dataclass(frozen=True)
class MccParameters:
    k: int
    x: int
    treewidth_bound: int
    vertex_gadget_size: int
    edge_gadget_size: int
    validation_clique_size: int
    validation_clique_count: int
    component_census: tuple[tuple[int, int], ...]  # (size, count) of H - C


def mcc_parameters(n: int, m: int, ell: int, sizes: GadgetSizes) -> MccParameters:
    """All derived parameters; every formula is linear in the free sizes."""
    c2 = comb(ell, 2)
    big = 2 * sizes.Z + 2 * n + 1 + sizes.Cv + 2 * sizes.B
    k = (2 * (ell - 1) * n + 4 * m - 8 * c2) * sizes.B + ell * sizes.A + c2
    x = (
        (n - ell) * (sizes.Y + sizes.A) * (sizes.Y + sizes.A - 1)
        + (m - c2) * (sizes.X + 1) * sizes.X
        + 4 * c2 * big * (big - 1)
    )
    return MccParameters(
        k=k,
        x=x,
        treewidth_bound=4 * c2 * sizes.Cv + sizes.B + sizes.A,
        vertex_gadget_size=(ell - 1) * (2 * sizes.Z + 2 * n + 1 + 2 * sizes.B)
        + sizes.Y
        + sizes.A,
        edge_gadget_size=2 * (2 * sizes.Z + 2 * n + 1 + 2 * sizes.B) + sizes.X + 1,
        validation_clique_size=sizes.Cv,
        validation_clique_count=4 * c2,
        component_census=(
            (sizes.Y + sizes.A, n - ell),
            (sizes.X + 1, m - c2),
            (big, 4 * c2),
        ),
    )


LOW, HIGH = "low", "high"


@dataclass(frozen=True)
class MccLayout:
    """Where every gadget part lives in the output graph, as id ranges."""

    n: int
    m: int
    ell: int
    colors: tuple[int, ...]
    source_edges: tuple[tuple[int, int], ...]
    sizes: GadgetSizes
    total: int
    core_clique: dict
    vertex_dummies: dict
    selector_core: dict  # (u, other_color, order) -> range
    selector_guard: dict
    edge_vertex: dict  # edge -> id
    edge_dummies: dict
    edge_core: dict  # (edge, endpoint, order) -> range
    edge_guard: dict
    validation: dict  # (i, j, order) -> range


DEFAULT_MATERIALIZE_CAP = 100_000


def build_mcc_instance(
    source: CliqueInstance,
    sizes: GadgetSizes,
    cap: int = DEFAULT_MATERIALIZE_CAP,
) -> tuple[ReductionOutput, MccLayout]:
    """Materialize the selection/validation gadget graph for a colored source."""
    if source.colors is None:
        raise InputError("multicolored construction needs a colored source")
    g, ell, colors = source.graph, source.ell, source.colors
    n, m = g.n, g.m
    params = mcc_parameters(n, m, ell, sizes)
    total_vertices = (
        n * params.vertex_gadget_size
        + m * params.edge_gadget_size
        + params.validation_clique_count * sizes.Cv
    )
    if total_vertices > cap:
        raise MaterializationRefused(total_vertices, cap)

    roles: list[str] = []

    def take(count: int, role: str) -> range:
        r = range(len(roles), len(roles) + count)
        roles.extend([role] * count)
        return r

    core_clique: dict = {}
    vertex_dummies: dict = {}
    selector_core: dict = {}
    selector_guard: dict = {}
    edge_vertex: dict = {}
    edge_dummies: dict = {}
    edge_core: dict = {}
    edge_guard: dict = {}
    validation: dict = {}

    def low(u: int) -> int:
        return u + 1

    def high(u: int) -> int:
        return 2 * n + 1 - low(u)

    edges: list[tuple[int, int]] = []

    def clique(rng: range) -> None:
        rs = list(rng)
        for i, a in enumerate(rs):
            for b in rs[i + 1:]:
                edges.append((a, b))

    def complete_between(r1, r2) -> None:
        for a in r1:
            for b in r2:
                edges.append((a, b))

    for u in range(n):
        cu = take(sizes.A, "selector-clique")
        core_clique[u] = cu
        clique(cu)
        du = take(sizes.Y, "vertex-dummy")
        vertex_dummies[u] = du
        complete_between(cu, du)
        for other in range(ell):
            if other == colors[u]:
                continue
            for order, guard_size in ((LOW, sizes.Z + low(u)), (HIGH, sizes.Z + high(u))):
                core = take(sizes.B, "connector-core")
                guard = take(guard_size, "connector-guard")
                selector_core[(u, other, order)] = core
                selector_guard[(u, other, order)] = guard
                clique(core)
                complete_between(core, guard)
                complete_between(core, cu)

    sorted_edges = tuple(sorted(g.edges))
    for f in sorted_edges:
        u1, u2 = f
        ev = take(1, "edge-vertex")[0]
        edge_vertex[f] = ev
        df = take(sizes.X, "edge-dummy")
        edge_dummies[f] = df
        for d in df:
            edges.append((ev, d))
        for w in (u1, u2):
            for order, guard_size in ((LOW, sizes.Z + low(w)), (HIGH, sizes.Z + high(w))):
                core = take(sizes.B, "connector-core")
                guard = take(guard_size, "connector-guard")
                edge_core[(f, w, order)] = core
                edge_guard[(f, w, order)] = guard
                clique(core)
                complete_between(core, guard)
                for c in core:
                    edges.append((ev, c))

    for i in range(ell):
        for j in range(ell):
            if i == j:
                continue
            for order in (LOW, HIGH):
                vr = take(sizes.Cv, "validation")
                validation[(i, j, order)] = vr
                clique(vr)

    # Validation wiring, selector side: a vertex u of color i pairs its
    # order-o connector for color j with V_o[i, j].
    for u in range(n):
        i = colors[u]
        for j in range(ell):
            if j == i:
                continue
            complete_between(validation[(i, j, LOW)], selector_core[(u, j, LOW)])
            complete_between(validation[(i, j, HIGH)], selector_core[(u, j, HIGH)])

    # Edge side crosses the orders: V_low[i, j] meets the high connector of the
    # color-i endpoint, V_high[i, j] its low connector; same with (j, i) for
    # the other endpoint.
    for f in sorted_edges:
        u1, u2 = f
        i, j = colors[u1], colors[u2]
        complete_between(validation[(i, j, LOW)], edge_core[(f, u1, HIGH)])
        complete_between(validation[(i, j, HIGH)], edge_core[(f, u1, LOW)])
        complete_between(validation[(j, i, LOW)], edge_core[(f, u2, HIGH)])
        complete_between(validation[(j, i, HIGH)], edge_core[(f, u2, LOW)])

    if len(roles) != total_vertices:
        raise AssertionError(f"allocated {len(roles)} vertices, expected {total_vertices}")
    out_graph = Graph.from_edges(total_vertices, edges)
    layout = MccLayout(
        n=n,
        m=m,
        ell=ell,
        colors=colors,
        source_edges=sorted_edges,
        sizes=sizes,
        total=total_vertices,
        core_clique=core_clique,
        vertex_dummies=vertex_dummies,
        selector_core=selector_core,
        selector_guard=selector_guard,
        edge_vertex=edge_vertex,
        edge_dummies=edge_dummies,
        edge_core=edge_core,
        edge_guard=edge_guard,
        validation=validation,
    )
    output = ReductionOutput(
        graph=out_graph,
        k=params.k,
        y=None,
        x=params.x,
        roles=tuple(roles),
        notes={
            "variant": "multicolored",
            "source_n": n,
            "source_m": m,
            "ell": ell,
            "treewidth_bound": params.treewidth_bound,
            "component_census": params.component_census,
        },
    )
    return output, layout


def forward_solution_cut(layout: MccLayout, clique: list[int]) -> Cut:
    """The canonical cut for a claimed multicolored clique of the source.

    Deletes the chosen selector cliques, the chosen edge vertices, and every
    connector core outside the selection. Its size is exactly the budget k and
    it leaves exactly the x target of pairs; residual_pairs carries that
    target, which callers verify against the materialized graph.
    """
    s = sorted(set(clique))
    if len(s) != layout.ell:
        raise InputError(f"expected {layout.ell} distinct vertices, got {len(s)}")
    seen_colors = {layout.colors[u] for u in s}
    if len(seen_colors) != layout.ell:
        raise InputError("claimed clique must use every color once")
    edge_set = set(layout.source_edges)
    for a, b in combinations(s, 2):
        if (a, b) not in edge_set and (b, a) not in edge_set:
            raise InputError(f"claimed clique misses source edge ({a},{b})")

    chosen = set(s)
    cut: set[int] = set()
    for u in s:
        cut.update(layout.core_clique[u])
    for f in layout.source_edges:
        if f[0] in chosen and f[1] in chosen:
            cut.add(layout.edge_vertex[f])
        else:
            for w in f:
                for order in (LOW, HIGH):
                    cut.update(layout.edge_core[(f, w, order)])
    for u in range(layout.n):
        if u in chosen:
            continue
        i = layout.colors[u]
        for j in range(layout.ell):
            if j == i:
                continue
            for order in (LOW, HIGH):
                cut.update(layout.selector_core[(u, j, order)])

    params = mcc_parameters(layout.n, layout.m, layout.ell, layout.sizes)
    if len(cut) != params.k:
        raise AssertionError(f"canonical cut has {len(cut)} vertices, budget is {params.k}")
    return Cut(frozenset(cut), params.x)

