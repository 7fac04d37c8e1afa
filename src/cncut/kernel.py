"""High-degree kernelization for the k + x parameterization.

A vertex whose degree exceeds k' + sqrt(x) must be in every solution with the
remaining budget k': keeping it leaves more than x pairs among its neighbors
alone. The check is done in exact integer arithmetic as
degree > k'  and  (degree - k')^2 > x.
"""

from __future__ import annotations

from typing import NamedTuple

from .graph import Graph, bits, check_parameters, remove_vertices


class KernelTrace(NamedTuple):
    """What the kernel pass did, in order, plus the reduced instance.

    When infeasible is True the rule forced more than k deletions, which
    certifies a NO answer. Such a trace builds no graph: forced_vertices
    holds the k vertices forced before the budget ran out, discarded_isolated
    and kernel_to_original are empty, k_out is 0 and kernel_graph is None.
    """

    forced_vertices: tuple[int, ...]
    discarded_isolated: tuple[int, ...]
    k_out: int
    kernel_graph: Graph | None
    kernel_to_original: tuple[int, ...]
    infeasible: bool = False


def _forced_vertex(masks: tuple[int, ...], alive: int, k_cur: int, x: int) -> int | None:
    # Smallest live id whose live degree d satisfies d > k_cur and (d - k_cur)^2 > x.
    for v in bits(alive):
        d = (masks[v] & alive).bit_count()
        if d > k_cur and (d - k_cur) * (d - k_cur) > x:
            return v
    return None


def rule_fires(g: Graph, k: int, x: int) -> bool:
    """Whether the high-degree rule forces any vertex of g; no graph is built."""
    return _forced_vertex(g.adjacency_masks, (1 << g.n) - 1, k, x) is not None


def kernelize_kx(g: Graph, k: int, x: int) -> KernelTrace:
    """Apply the high-degree rule to exhaustion, then drop isolated vertices."""
    check_parameters(k, x)

    masks, alive = g.adjacency_masks, (1 << g.n) - 1
    forced: list[int] = []
    k_cur = k
    while True:
        v = _forced_vertex(masks, alive, k_cur, x)
        if v is None:
            break
        if k_cur == 0:
            # Budget exhausted while a vertex still exceeds the threshold.
            return KernelTrace(tuple(forced), (), 0, None, (), infeasible=True)
        alive &= ~(1 << v)
        forced.append(v)
        k_cur -= 1

    isolated = [v for v in bits(alive) if not masks[v] & alive]
    kernel, kernel_to_original = remove_vertices(g, forced + isolated)
    return KernelTrace(
        forced_vertices=tuple(forced),
        discarded_isolated=tuple(isolated),
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
