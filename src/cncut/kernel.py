"""High-degree kernelization for the k + x parameterization.

A vertex whose degree exceeds k' + sqrt(x) must be in every solution with the
remaining budget k': keeping it leaves more than x pairs among its neighbors
alone. In exact integer arithmetic, degree > k' and (degree - k')^2 > x
reads degree >= k' + isqrt(x) + 1.

`high_degree_rule` applies the rule to exhaustion on the graph's adjacency
masks and builds no graph. `cnc solve --algo auto` calls it once per solve
and builds the smaller instance only when an engine runs on it;
`kernelize_kx` builds that instance from the same call for `cnc kernelize`.
"""

from __future__ import annotations

from math import isqrt
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


class ForcedSet(NamedTuple):
    """The high-degree rule applied to exhaustion, as vertex ids and a mask.

    `alive` holds the kernel's vertices: those neither forced nor left
    without a neighbour. When infeasible is True the rule stopped at the
    vertex that would take k + 1 deletions; `forced` then holds the k forced
    before it, `alive` every other vertex, and k_out is 0.
    """

    forced: tuple[int, ...]
    alive: int
    k_out: int
    infeasible: bool


def high_degree_rule(g: Graph, k: int, x: int) -> ForcedSet:
    """Force the smallest live vertex whose live degree meets the threshold, until none does.

    Forcing a vertex lowers the budget and the threshold by one and each
    live degree by at most one, so a vertex that meets the threshold keeps
    meeting it and the forced set does not depend on the order. Taking the
    smallest id each time fixes the order of `forced` too; as the threshold
    falls, a vertex below the one just forced may meet it, so each search
    starts again at vertex 0. On dense graphs a search stops after a few
    vertices, which is why it counts degrees afresh rather than keeping them
    in a list that each forced vertex's neighbours would have to update.
    """
    masks = g.adjacency_masks
    least = k + isqrt(x) + 1
    alive = (1 << g.n) - 1
    forced: list[int] = []
    while True:
        for v, m in enumerate(masks):
            if (m & alive).bit_count() >= least and alive >> v & 1:
                break
        else:
            break
        if len(forced) == k:
            return ForcedSet(tuple(forced), alive, 0, True)
        alive ^= 1 << v
        forced.append(v)
        least -= 1
    for v in [v for v, m in enumerate(masks) if not m & alive]:
        alive &= ~(1 << v)
    return ForcedSet(tuple(forced), alive, k - len(forced), False)


def kernelize_kx(g: Graph, k: int, x: int) -> KernelTrace:
    """Apply the high-degree rule to exhaustion, then drop isolated vertices."""
    check_parameters(k, x)
    rule = high_degree_rule(g, k, x)
    if rule.infeasible:
        return KernelTrace(rule.forced, (), 0, None, (), infeasible=True)
    dropped = ((1 << g.n) - 1) & ~rule.alive
    isolated = tuple(v for v in bits(dropped) if v not in rule.forced)
    kernel, kernel_to_original = remove_vertices(g, bits(dropped))
    return KernelTrace(
        forced_vertices=rule.forced,
        discarded_isolated=isolated,
        k_out=rule.k_out,
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
