"""Seeded instance pools for the benchmark workloads, with reference answers.

Every pool is a pure function of (workload, seed): the generators draw from
one `random.Random` seeded with a string, and `digest` hashes the pool so a
run can check that repeated generation is byte-identical. Reference answers
come from an engine other than the one `--algo auto` picks for the class, or
from a planted cut that is verified when the instance is made.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from itertools import combinations

from cncut import bench, families, graph, instance_io, oracle, treewidth_dp

# random_graph(30, 90, Random(3)) with k=8, x=12: the instance that auto sends
# to branch-kx and that gives no answer within 60 s. Its answer is NO: every
# solution leaves at most floor(x/2) = 6 edges (a surviving component with s
# vertices has at most s(s-1)/2 edges and exactly s(s-1) ordered pairs), and
# the minimal-cover search with k=8 and an edge budget of 6 finds no cover
# (1,814,527 search nodes).
HANG = {"n": 30, "m": 90, "seed": 3, "k": 8, "x": 12, "answer": False}

# All four engines forced on every (graph, k, target) cell, as in `cnc bench`
# and the acceptance cross-validation.
CATALOGUE_K = "0-3"
CATALOGUE_X = "0-10"
CATALOGUE_Y = "0-12"
CATALOGUE_CLASS_N = 5


@dataclass(frozen=True)
class Item:
    """One instance of a pool plus what the benchmark knows about its answer."""

    cls: str
    n: int
    edges: tuple[tuple[int, int], ...]
    k: int
    x: int | None
    y: int | None
    witness: tuple[int, ...] | None = None  # planted cut, when there is one

    def instance(self) -> instance_io.CncInstance:
        """A fresh instance, so no cached adjacency carries over between decisions."""
        return instance_io.CncInstance(
            graph.Graph.from_edges(self.n, self.edges), self.k, x=self.x, y=self.y
        )

    def text(self) -> str:
        """The .cnc text, written here so that neither the digest nor the
        cold-cli files depend on cncut's own writer."""
        lines = [f"p cnc {self.n} {len(self.edges)}"]
        lines += [f"e {u + 1} {v + 1}" for u, v in self.edges]
        lines.append(f"k {self.k}")
        lines.append(f"x {self.x}" if self.x is not None else f"y {self.y}")
        return "\n".join(lines) + "\n"

    def x_bound(self) -> int:
        if self.x is not None:
            return self.x
        return residual_pairs(self.n, self.edges, ()) - self.y


def residual_pairs(n: int, edges, cut) -> int:
    """Ordered connected pairs left after deleting `cut`; independent of cncut."""
    removed = set(cut)
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        if u not in removed and v not in removed:
            adj[u].append(v)
            adj[v].append(u)
    seen = [False] * n
    total = 0
    for s in range(n):
        if seen[s] or s in removed:
            continue
        seen[s] = True
        stack, size = [s], 0
        while stack:
            u = stack.pop()
            size += 1
            for w in adj[u]:
                if not seen[w]:
                    seen[w] = True
                    stack.append(w)
        total += size * (size - 1)
    return total


def digest(pool) -> str:
    h = hashlib.sha256()
    for item in pool:
        h.update((item if isinstance(item, str) else item.text()).encode())
        h.update(b"\0")
    return h.hexdigest()[:16]


# ---------------------------------------------------------------- graph makers

def _relabel(n: int, edges, rng: random.Random) -> tuple[tuple[int, int], ...]:
    perm = list(range(n))
    rng.shuffle(perm)
    return tuple(sorted(
        (min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in edges
    ))


def _random_edges(n: int, m: int, rng: random.Random) -> tuple[tuple[int, int], ...]:
    return tuple(sorted(families.random_graph(n, m, rng).edges))


def _tree_with_chords(n: int, chords: int, rng: random.Random):
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    while len(edges) < n - 1 + chords:
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((u, v))
    return _relabel(n, edges, rng)


def _small_connected(s: int, extra: int, rng: random.Random, offset: int):
    edges = {(rng.randrange(v), v) for v in range(1, s)}
    pool = [e for e in combinations(range(s), 2) if e not in edges]
    edges.update(rng.sample(pool, min(extra, len(pool))))
    return [(u + offset, v + offset) for u, v in edges]


def _union(rng: random.Random, parts: int, lo: int, hi: int):
    edges, n = [], 0
    for _ in range(parts):
        s = rng.randrange(lo, hi + 1)
        edges += _small_connected(s, rng.randrange(0, 3), rng, n)
        n += s
    return n, _relabel(n, edges, rng)


def _planted(rng: random.Random, n: int, k: int, x: int, hub_links: tuple[int, int]):
    """k hub vertices whose deletion leaves pieces with at most x pairs in total.

    Non-hub vertices form paths of 1-3 vertices; each vertex of a piece is
    joined to a random number of hubs in `hub_links`, and the hubs form a path,
    so the graph is connected. Returns (edges, witness) after relabelling.
    """
    hubs = list(range(k))
    rest = list(range(k, n))
    edges: set[tuple[int, int]] = {(h, h + 1) for h in range(k - 1)}
    budget = x
    i = 0
    while i < len(rest):
        size = rng.choice((1, 1, 2, 2, 3))
        while size > 1 and size * (size - 1) > budget:
            size -= 1
        piece = rest[i:i + size]
        budget -= len(piece) * (len(piece) - 1)
        edges.update(zip(piece, piece[1:]))
        for v in piece:
            for h in rng.sample(hubs, rng.randrange(hub_links[0], hub_links[1] + 1)):
                edges.add((h, v))
        i += size
    perm = list(range(n))
    rng.shuffle(perm)
    relabelled = tuple(sorted(
        (min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in edges
    ))
    return relabelled, tuple(sorted(perm[h] for h in hubs))


# ------------------------------------------------------------------ the classes

def _item(cls, n, edges, k, x=None, y=None, witness=None) -> Item:
    return Item(cls, n, tuple(edges), k, x, y, witness)


def _grid(j: int, *axes):
    """The j-th point of a grid, first axis fastest, so that a class's sizes and
    targets are the same for every seed and only its graphs change."""
    point = []
    for values in axes:
        point.append(values[j % len(values)])
        j //= len(values)
    return point


def _sparse(rng, j):
    n, k, x = _grid(j, (24, 32, 40), (2, 3), (4, 8, 12))
    return _item("sparse", n, _random_edges(n, n + n // 10, rng), k, x=x)


def _tree(rng, j):
    n, x, chords = _grid(j, (30, 40, 50, 60), (4, 8, 12), (1, 3))
    return _item("tree", n, _tree_with_chords(n, chords, rng), 3, x=x)


def _planted_sparse(rng, j):
    n, k, x = _grid(j, (24, 32, 40), (3, 4), (6, 9, 12))
    edges, witness = _planted(rng, n, k, x, (1, 1))
    return _item("planted", n, edges, k, x=x, witness=witness)


def _union_y(rng, j):
    # y <= 2k or a component with more than y vertices trips the shortcut screens.
    parts, k, y = _grid(j, (4, 5), (2, 3), (4, 8, 14, 22))
    n, edges = _union(rng, parts, 3, 6)
    return _item("union-y", n, edges, k, y=y)


def _union_x(rng, j):
    parts, x, k = _grid(j, (4, 5), (4, 8, 12), (2, 3))
    n, edges = _union(rng, parts, 3, 6)
    return _item("union-x", n, edges, k, x=x)


def _refused(rng, j):
    # Large x and no y: n > 14, w + x > 18 and x + k > 24, so auto refuses today.
    n, edges = _union(rng, 5, 4, 6)
    return _item("refused", n, edges, 2, x=max(residual_pairs(n, edges, ()) // 2, 26))


def _small(rng, j):
    n, x, density = _grid(j, (10, 12, 14), (2, 6, 10, 14), (1.0, 1.5, 2.0))
    return _item("small", n, _random_edges(n, round(n * density), rng), 3, x=x)


def _small_sparse(rng, j):
    n, x = _grid(j, (16, 19, 22), (4, 8))
    return _item("sparse", n, _random_edges(n, n + 2, rng), 2, x=x)


def _dense(rng, j, k, ns, xs, densities):
    n, x, density = _grid(j, ns, xs, densities)
    return _item(f"dense-k{k}", n, _random_edges(n, round(n * density), rng), k, x=x)


def _planted_dense(rng, j):
    n, x = _grid(j, (16, 18, 20, 21), (17, 19))
    edges, witness = _planted(rng, n, 3, x, (2, 3))
    return _item("planted", n, edges, 3, x=x, witness=witness)


def _hang(rng, j):
    h = HANG
    edges = _random_edges(h["n"], h["m"], random.Random(h["seed"]))
    return _item("hang", h["n"], edges, h["k"], x=h["x"])


# Per workload: (maker, count per pass). Counts fix the class proportions and
# the grids fix sizes and targets, so every seed yields the same mix.
MIXES = {
    "auto-mix": [
        (_sparse, 36), (_tree, 24), (_planted_sparse, 18), (_union_y, 16),
        (_union_x, 12), (_small, 12), (_refused, 4),
    ],
    "branch-heavy": [
        (lambda rng, j: _dense(rng, j, 2, (18, 20, 22, 24), (14, 16, 18), (2.0, 2.5, 3.0)), 36),
        (lambda rng, j: _dense(rng, j, 3, (18, 22), (13, 15), (2.75,)), 6),
        (_planted_dense, 8),
        (_hang, 1),
    ],
    # Small instances only: the solve adds a few ms to the start-up cost.
    "cold-cli": [(_small, 8), (_small_sparse, 8), (_union_y, 4), (_refused, 2)],
}


def reference(item: Item) -> bool:
    """The expected answer.

    A planted cut is checked with the benchmark's own pair count. Graphs with
    n <= 14, which auto sends to the oracle, are checked against dp-wx; the
    rest against the oracle, which auto never picks for them.
    """
    if item.witness is not None:
        if len(item.witness) > item.k or residual_pairs(item.n, item.edges, item.witness) > item.x:
            raise AssertionError(f"planted cut does not solve its {item.cls} instance")
        return True
    if item.cls == "hang":
        return HANG["answer"]
    x_eff = item.x_bound()
    if x_eff < 0:
        return False
    g = graph.Graph.from_edges(item.n, item.edges)
    if item.cls == "small":
        return treewidth_dp.solve_wx(g, item.k, x_eff).answer
    return oracle.oracle_decides(g, item.k, x_eff)


def make_pool(workload: str, seed: int) -> list:
    rng = random.Random(f"{workload}:{seed}")
    if workload == "catalogue":
        return _catalogue(rng)
    return _interleave([[maker(rng, j) for j in range(count)] for maker, count in MIXES[workload]])


def _interleave(groups: list[list]) -> list:
    """Spread each class evenly over the pass."""
    keyed = [
        ((j + 0.5) / len(g), gi, item)
        for gi, g in enumerate(groups)
        for j, item in enumerate(g)
    ]
    return [item for *_, item in sorted(keyed, key=lambda t: t[:2])]


def _catalogue(rng: random.Random) -> list[str]:
    """`run_bench` family specs, one per call."""
    classes = [f"all:n={CATALOGUE_CLASS_N}:k={k}:x={CATALOGUE_X}" for k in range(4)]
    # Seeded random graphs on 8-12 vertices over a fixed grid of densities, so
    # every seed covers sparse to near-complete graphs in the same proportions.
    randoms = []
    for n in (8, 10, 12):
        for density in (0.1, 0.3, 0.5, 0.7, 0.9):
            m = round(density * n * (n - 1) / 2)
            randoms.append(
                f"random:n={n}:m={m}:count=2:seed={rng.randrange(2**31)}"
                f":k={CATALOGUE_K}:x={CATALOGUE_X}"
            )
    # The y-target family reaches the component_dp shortcut screens.
    ys = [
        f"random:n=9:m={m}:count=1:seed={rng.randrange(2**31)}:k={CATALOGUE_K}:y={CATALOGUE_Y}"
        for m in (6, 10)
    ]
    return _interleave([classes, randoms, ys])


def catalogue_references(pool: list[str]) -> dict:
    """Minimum residual pairs per (n, edges, k), from the brute-force oracle."""
    refs: dict = {}
    for spec_text in pool:
        spec = bench.parse_family(spec_text)
        for _, inst in bench.iterate_instances(spec):
            g = inst.graph
            key = (g.n, g.edges, inst.k)
            if key not in refs:
                refs[key] = oracle.oracle_min_pairs(g, inst.k).min_residual_pairs
    return refs

