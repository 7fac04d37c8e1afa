"""High-degree kernelization for the k + x parameterization.

A vertex whose degree exceeds k' + sqrt(x) must be in every solution with the
remaining budget k': keeping it leaves more than x pairs among its neighbors
alone. The check is done in exact integer arithmetic as
degree > k'  and  (degree - k')^2 > x.
"""

from __future__ import annotations

from dataclasses import dataclass

from .graph import Graph, InputError, remove_isolated, remove_vertices


@dataclass(frozen=True)
class KernelTrace:
    """What the kernel pass did, in order, plus the reduced instance.

    When infeasible is True the rule forced more than k deletions, which
    certifies a NO answer; kernel_graph then holds the residual at the point
    the budget ran out and the other invariants do not apply.
    """

    forced_vertices: tuple[int, ...]
    discarded_isolated: tuple[int, ...]
    k_out: int
    kernel_graph: Graph
    kernel_to_original: tuple[int, ...]
    infeasible: bool = False


def _forced_vertex(degrees: dict[int, int], k_cur: int, x: int) -> int | None:
    # Smallest id whose degree d satisfies d > k_cur and (d - k_cur)^2 > x.
    best = None
    for v in sorted(degrees):
        d = degrees[v]
        if d > k_cur and (d - k_cur) * (d - k_cur) > x:
            best = v
            break
    return best


def kernelize_kx(g: Graph, k: int, x: int) -> KernelTrace:
    """Apply the high-degree rule to exhaustion, then drop isolated vertices."""
    if k < 0 or x < 0:
        raise InputError(f"parameters must be nonnegative, got k={k}, x={x}")

    adj = {v: set(g.adjacency[v]) for v in range(g.n)}
    forced: list[int] = []
    k_cur = k
    while True:
        degrees = {v: len(nbrs) for v, nbrs in adj.items()}
        v = _forced_vertex(degrees, k_cur, x)
        if v is None:
            break
        if k_cur == 0:
            # Budget exhausted while a vertex still exceeds the threshold.
            residual = remove_vertices(g, forced)
            return KernelTrace(
                forced_vertices=tuple(forced),
                discarded_isolated=(),
                k_out=0,
                kernel_graph=residual[0],
                kernel_to_original=residual[1],
                infeasible=True,
            )
        for w in adj[v]:
            adj[w].discard(v)
        del adj[v]
        forced.append(v)
        k_cur -= 1

    survivors, remap = remove_vertices(g, forced)
    kernel, isolated_new, remap2 = remove_isolated(survivors)
    discarded = tuple(sorted(remap[i] for i in isolated_new))
    kernel_to_original = tuple(remap[i] for i in remap2)
    return KernelTrace(
        forced_vertices=tuple(forced),
        discarded_isolated=discarded,
        k_out=k_cur,
        kernel_graph=kernel,
        kernel_to_original=kernel_to_original,
    )


def kernel_bound_holds(n_kernel: int, k_out: int, x: int) -> bool:
    """Exact-arithmetic check of n_kernel <= k_out*(k_out + sqrt(x)) + x + k_out."""
    slack = n_kernel - k_out * k_out - x - k_out
    if slack <= 0:
        return True
    # Remaining question: slack <= k_out * sqrt(x), both sides nonnegative.
    return slack * slack <= k_out * k_out * x
