"""Engine selection and single-instance runs shared by the CLI and the bench.

Each engine's module, and the decomposition module, is imported the first
time a run needs it, so a process loads only the engines it runs.

Under auto, and when no decomposition is supplied, the k + x high-degree
rule of `cncut.kernel` runs once before an engine is picked. Each vertex it
forces (the set F) is in every solution, so it is deleted and the budget
drops by one; the vertices left isolated are dropped too. The residual is
preserved: a forced vertex is deleted and an isolated one has no neighbour
in g - F, so neither adds a pair. For every cut C' of the kernel,
g - (F | image of C') therefore has exactly the pairs of kernel - C', and
the kernel instance keeps the input's pair bound x with budget k - |F|.
Since every solution contains F and deleting an isolated vertex removes no
pair, the kernel has a solution exactly when the input does.

The rule runs on the input's adjacency masks and builds no graph. When it
forces more than k vertices the answer is NO; when g - F alone meets the
bound, counted on the input's masks, the answer is YES with the cut F.
Only otherwise is the kernel graph built, for an engine to solve. A YES maps back as F plus the image of the engine's cut, which
`certify` checks against the input graph. A named engine and a supplied
decomposition skip the rule: the former is the engine under test, and the
latter describes the input graph.
"""

from __future__ import annotations

import sys
import time
from functools import cached_property
from importlib import import_module
from typing import TYPE_CHECKING, Iterator, NamedTuple

from .graph import (
    DEFAULT_CAP, Cut, Decision, Graph, InputError, Refusal, bits, certify, connected_pairs,
    pairs_of_alive, remove_vertices, subset_count,
)
from .instance_io import CncInstance

if TYPE_CHECKING:
    from .decomposition import NiceTreeDecomposition
    from .kernel import ForcedSet


def _lazy(module: str):
    """The cncut module `module`, imported on first use.

    Callers read functions off the returned module at call time, so a patch
    of that module (a test's, the benchmark tracer's) reaches them. Once the
    module is loaded this is one dict lookup, far cheaper than an import
    statement, which matters on the bench's sub-millisecond runs.
    """
    return sys.modules.get(f"{__package__}.{module}") or import_module(f".{module}", __package__)


class EngineRefusal(Refusal):
    """No engine is willing to touch the instance at auto's thresholds."""


class HarnessConfig(NamedTuple):
    oracle_cap: int = DEFAULT_CAP


class RunReport(NamedTuple):
    answer: str  # YES or NO
    cut: tuple[int, ...] | None
    residual_pairs: int | None
    pairs_removed: int | None
    algorithm: str
    stats: dict
    wall_ms: float
    config: dict

    def to_dict(self) -> dict:
        """The fields in order, the cut 1-based; a dict, which json prints as an object."""
        d = self._asdict()
        if self.cut is not None:
            d["cut"] = [v + 1 for v in self.cut]  # 1-indexed outward
        return d


class _Plan:
    """Shared inputs of one instance.

    `total`, the input's connected pairs, is counted on first read: an
    x-spelled target that the kernel rule settles as NO never needs it.
    `ntd` is a supplied nice form, or None. Without one, auto measures the
    width of `g.heuristic_td`, the min-fill decomposition cached on the
    graph, and dp-wx runs on that decomposition's nice form, which
    `solve_wx` builds unchecked. `cap` is the run's subset-scan cap
    (`HarnessConfig.oracle_cap`), which auto's work test for dp-y and the
    oracle and dp-y solvers read; the kernel sub-plan inherits it.
    """

    def __init__(self, g: Graph, k: int, x: int | None, y: int | None = None, ntd=None,
                 cap: int = DEFAULT_CAP):
        self.g, self.k, self.ntd, self.cap = g, k, ntd, cap
        self.x_eff = x if x is not None else self.total - y

    @cached_property
    def total(self) -> int:
        return connected_pairs(self.g)

    def bound_met(self) -> bool:
        """Whether the empty cut already leaves at most x_eff pairs.

        A component with s vertices and e edges has s(s - 1) >= 2e ordered
        pairs, so total >= 2m, and an x_eff below 2m is short of the total
        without counting it.
        """
        return self.x_eff >= 2 * self.g.m and self.x_eff >= self.total


def _check_engine(algo: str) -> None:
    if algo != "auto" and algo not in _SOLVERS:
        raise InputError(f"unknown engine {algo!r}")


# Auto's engine envelopes, tried in this order; --algo overrides them per run.
# DP_Y_WORK bounds E, the subsets dp-y's scans would count (`_dp_y_terms`).
ORACLE_MAX_N = 14
DP_Y_MAX = 22
DP_Y_WORK = 200
DP_WX_MAX = 18
BRANCH_KX_MAX = 24


def _dp_y_terms(plan: _Plan, y: int) -> Iterator[int]:
    """The subsets dp-y's scan would count on each component, largest first.

    E, the subsets dp-y's scans would count, is their sum. Each component c
    is scanned over sizes 0..min(k, |c|), and `oracle._Scan` charges it
    subset_count(|c|, those sizes) against the cap; that count grows with
    |c|, so a sum that stops once it passes a bound stops soonest in this
    order. With k >= 1 and a component of more than y vertices, the
    large-component screen answers before any scan, so there are no terms
    and E is 0.
    """
    sizes = sorted((c.bit_count() for c in plan.g.components), reverse=True)
    if plan.k >= 1 and sizes[0] > y:
        return
    for s in sizes:
        yield subset_count(s, range(min(plan.k, s) + 1))


def _auto(plan: _Plan) -> str:
    # `_route` calls this only when 0 <= x_eff < total.
    if plan.g.n <= ORACLE_MAX_N:
        return "oracle"
    # y is the pairs a cut must remove, whether the target was given as x or as y.
    x_eff, y = plan.x_eff, plan.total - plan.x_eff
    if y <= DP_Y_MAX:
        return "dp-y"
    # dp-y's cost is set by component sizes and k, not by y. Components
    # partition the vertices and only the empty set is counted once per
    # component, so E exceeds the oracle's count, the sum of C(n, j) over
    # j <= k, by at most the number of components less one: for n > 14 no
    # separate oracle estimate is needed. dp-y's cap applies per component,
    # so a component whose scan the run's cap would refuse keeps the
    # instance off this route.
    # The sum stops once it passes DP_Y_WORK; short of that, term is the largest.
    work = term = 0
    for t in _dp_y_terms(plan, y):
        work += t
        term = max(term, t)
        if work > DP_Y_WORK:
            break
    if work <= DP_Y_WORK and term <= plan.cap:
        return "dp-y"
    # A supplied form is the one dp-wx would run on, so its width decides.
    width = plan.g.heuristic_td.width if plan.ntd is None else plan.ntd.width
    if width + x_eff <= DP_WX_MAX:
        return "dp-wx"
    if x_eff + plan.k <= BRANCH_KX_MAX:
        return "branch-kx"
    dp_y = (f"E={sum(_dp_y_terms(plan, y))} > {DP_Y_WORK}" if work > DP_Y_WORK
            else f"a component's {term} subsets > cap {plan.cap}")
    raise EngineRefusal(
        f"instance outside every engine envelope: n={plan.g.n} > {ORACLE_MAX_N}; "
        f"y={y} > {DP_Y_MAX} and {dp_y}; w+x={width}+{x_eff} > {DP_WX_MAX}; "
        f"x+k={x_eff}+{plan.k} > {BRANCH_KX_MAX}"
    )


def _route(plan: _Plan, algo: str) -> tuple[str, _Plan | Decision, ForcedSet | None]:
    """The one place an instance's solve path is decided.

    Returns what settles the instance ("trivial", "kernel" or an engine),
    and the forced set when the high-degree rule forced a vertex. The
    middle value is the plan an engine runs on, or, when the rule settles
    the instance, the kernel's own Decision, whose YES cut is empty.
    """
    if plan.x_eff < 0 or plan.bound_met():
        return "trivial", plan, None
    if algo != "auto":
        return algo, plan, None
    if plan.ntd is not None:
        return _auto(plan), plan, None
    rule = _lazy("kernel").high_degree_rule(plan.g, plan.k, plan.x_eff)
    if rule.infeasible:
        reason = "the high-degree rule forces more than k vertices"
        return "kernel", Decision(False, None, {"reason": reason}), rule
    if not rule.forced:
        return _auto(plan), plan, None
    # Forced and isolated vertices add no pairs, so the kernel's pairs are alive's.
    residual = pairs_of_alive(plan.g.adjacency_masks, rule.alive, plan.x_eff)
    if residual <= plan.x_eff:
        reason = "forced vertices meet the bound"
        return "kernel", Decision(True, Cut(frozenset(), residual), {"reason": reason}), rule
    kernel, _ = remove_vertices(plan.g, bits(((1 << plan.g.n) - 1) & ~rule.alive))
    sub = _Plan(kernel, rule.k_out, plan.x_eff, cap=plan.cap)
    return _auto(sub), sub, rule


def select_algorithm(
    g: Graph,
    k: int,
    x: int | None,
    y: int | None,
    user_choice: str = "auto",
) -> str:
    """What `run_instance` runs: "trivial", "kernel" or an engine.

    A target that is unsatisfiable or already met is trivial. An explicit
    choice wins otherwise. Auto runs the high-degree rule first; it settles
    the instance as "kernel" when it forces more than k vertices or when the
    forced ones alone meet the bound. Then auto walks the thresholds on the
    kernel instance: oracle by vertex count, then dp-y when y, the pairs a
    cut must remove, is small, whether the target was given as x or as y,
    or when E, the subsets its per-component scans would count, is small
    and no component's scan exceeds the default cap; then dp-wx when
    heuristic width keeps w+x small, then branch-kx on x+k. Structure is
    consulted before branching so that near-tree graphs with moderate x go
    to the width engine. The target and budget are checked as an instance
    file's are: exactly one of x and y, each nonnegative.
    """
    _check_engine(user_choice)
    CncInstance(g, k, x=x, y=y)
    return _route(_Plan(g, k, x, y), user_choice)[0]


def _solve_oracle(plan: _Plan) -> Decision:
    res = _lazy("oracle").oracle_min_pairs(plan.g, plan.k, cap=plan.cap)
    stats = {"explored": res.explored, "min_residual_pairs": res.min_residual_pairs}
    if res.min_residual_pairs > plan.x_eff:
        return Decision(False, None, stats)
    return Decision(True, certify(plan.g, res.best_cut, plan.k, plan.x_eff, "oracle"), stats)


# Engine name -> solve(plan) returning a Decision. Each loads its engine's
# module on its first call.
_SOLVERS = {
    "oracle": _solve_oracle,
    "branch-kx": lambda p: _lazy("branching").solve_branch_kx(p.g, p.k, p.x_eff),
    "dp-y": lambda p: _lazy("component_dp").solve_y(p.g, p.k, p.total - p.x_eff, cap=p.cap),
    "dp-wx": lambda p: _lazy("treewidth_dp").solve_wx(p.g, p.k, p.x_eff, p.ntd),
}
ENGINES = tuple(_SOLVERS)


def run_instance(
    inst: CncInstance,
    algo: str = "auto",
    config: HarnessConfig = HarnessConfig(),
    ntd: NiceTreeDecomposition | None = None,
) -> RunReport:
    """Solve one instance and emit a report whose YES cut has passed `certify`.

    A supplied `ntd` must pass `validate_nice`, or StructuralError is
    raised, on every route, the trivial one included. It is checked once:
    by `solve_wx` on the dp-wx route, here on the others.

    Raises Refusal subclasses when the instance is outside the engine
    envelopes or a cap is hit; those are reports for the caller, not bugs.
    wall_ms covers the whole call, the verification included.
    """
    start = time.perf_counter()
    _check_engine(algo)
    plan = _Plan(inst.graph, inst.k, inst.x, inst.y, ntd, config.oracle_cap)
    engine, sub, rule = _route(plan, algo)
    if ntd is not None and engine != "dp-wx":
        report = _lazy("decomposition").validate_nice(plan.g, ntd)
        if not report.ok:
            raise _lazy("decomposition").StructuralError(
                f"invalid nice decomposition (condition {report.condition}): {report.message}"
            )

    if engine == "trivial":
        if plan.x_eff < 0:
            d = Decision(False, None, {"reason": "x-equivalent below zero"})
        else:
            cut = certify(plan.g, Cut(frozenset(), plan.total), plan.k, plan.x_eff, engine)
            d = Decision(True, cut, {"reason": "bound already met"})
    elif engine == "kernel":
        d = sub
    else:
        d = _SOLVERS[engine](sub)
    stats = d.stats if isinstance(d.stats, dict) else d.stats._asdict()
    if rule is not None:
        # An infeasible rule counts the vertex that would take k + 1; its
        # n_out is g less the k vertices forced before it.
        stats["kernel"] = {"forced": len(rule.forced) + rule.infeasible, "k_out": rule.k_out,
                           "n_out": rule.alive.bit_count()}
        if d.answer:
            # The kernel's vertex i is the i-th of alive, as remove_vertices numbers them.
            lift = tuple(bits(rule.alive)) if d.cut.vertices else ()
            cut = Cut(frozenset(rule.forced).union(lift[v] for v in d.cut.vertices),
                      d.cut.residual_pairs)
            d = Decision(True, certify(plan.g, cut, plan.k, plan.x_eff, engine), stats)

    cut_out = residual = removed = None
    if d.answer:
        cut_out = tuple(sorted(d.cut.vertices))
        residual = d.cut.residual_pairs
        removed = plan.total - residual
    return RunReport(
        answer="YES" if d.answer else "NO",
        cut=cut_out,
        residual_pairs=residual,
        pairs_removed=removed,
        algorithm=engine,
        stats=stats,
        wall_ms=(time.perf_counter() - start) * 1e3,
        config=config._asdict(),
    )
