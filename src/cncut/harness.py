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
pair, the kernel has a solution exactly when the input does. A YES maps
back as F plus the image of the engine's cut, which `certify` checks
against the input graph. A named engine and a supplied decomposition skip
the rule: the former is the engine under test, and the latter describes
the input graph.
"""

from __future__ import annotations

import sys
import time
from functools import cached_property
from importlib import import_module
from typing import TYPE_CHECKING, NamedTuple

from .graph import DEFAULT_CAP, Cut, Decision, Graph, InputError, Refusal, certify, connected_pairs
from .instance_io import CncInstance

if TYPE_CHECKING:
    from .decomposition import NiceTreeDecomposition
    from .kernel import KernelTrace


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
    """Shared inputs of one instance; each is built once, the decompositions on first use."""

    def __init__(self, g: Graph, k: int, x: int | None, y: int | None, ntd=None):
        self.g, self.k, self.y, self._given_ntd = g, k, y, ntd
        self.total = connected_pairs(g)
        self.x_eff = x if x is not None else self.total - y

    @cached_property
    def td(self):
        return _lazy("decomposition").heuristic_decomposition(self.g)

    @cached_property
    def ntd(self):
        if self._given_ntd is not None:
            return self._given_ntd
        return _lazy("decomposition").make_nice(self.td)


def _check_engine(algo: str) -> None:
    if algo != "auto" and algo not in _SOLVERS:
        raise InputError(f"unknown engine {algo!r}")


# Auto's engine envelopes, tried in this order; --algo overrides them per run.
ORACLE_MAX_N = 14
DP_Y_MAX = 22
DP_WX_MAX = 18
BRANCH_KX_MAX = 24


def _auto(plan: _Plan) -> str:
    # `_route` calls this only when 0 <= x_eff < total.
    if plan.g.n <= ORACLE_MAX_N:
        return "oracle"
    if plan.y is not None and plan.y <= DP_Y_MAX:
        return "dp-y"
    x_eff = plan.x_eff
    # A supplied form is the one dp-wx would run on, so its width decides.
    given = plan._given_ntd
    width = plan.td.width if given is None else given.width
    if width + x_eff <= DP_WX_MAX:
        return "dp-wx"
    if x_eff + plan.k <= BRANCH_KX_MAX:
        return "branch-kx"
    reasons = [f"n={plan.g.n} > {ORACLE_MAX_N}"]
    if plan.y is not None:
        reasons.append(f"y={plan.y} > {DP_Y_MAX}")
    reasons.append(f"w+x={width}+{x_eff} > {DP_WX_MAX}")
    reasons.append(f"x+k={x_eff}+{plan.k} > {BRANCH_KX_MAX}")
    raise EngineRefusal("instance outside every engine envelope: " + "; ".join(reasons))


def _route(plan: _Plan, algo: str) -> tuple[str, _Plan, KernelTrace | None]:
    """The one place an instance's solve path is decided.

    Returns what settles the instance ("trivial", "kernel" or an engine),
    the plan it runs on, and the kernel trace when the rule forced a vertex.
    """
    if plan.x_eff < 0 or plan.x_eff >= plan.total:
        return "trivial", plan, None
    if algo != "auto":
        return algo, plan, None
    if plan._given_ntd is not None or not _lazy("kernel").rule_fires(plan.g, plan.k, plan.x_eff):
        return _auto(plan), plan, None
    trace = _lazy("kernel").kernelize_kx(plan.g, plan.k, plan.x_eff)
    if trace.infeasible:
        return "kernel", plan, trace
    sub = _Plan(trace.kernel_graph, trace.k_out, plan.x_eff, None)
    if plan.y is not None:  # the same target, over the kernel's pair total
        sub.y = sub.total - sub.x_eff
    if sub.x_eff >= sub.total:
        return "kernel", sub, trace
    return _auto(sub), sub, trace


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
    kernel instance: oracle by vertex count, then dp-y when the instance is
    y-shaped and small, then dp-wx when heuristic width keeps w+x small,
    then branch-kx on x+k. Structure is consulted before branching so that
    near-tree graphs with moderate x go to the width engine. The target and
    budget are checked as an instance file's are: exactly one of x and y,
    each nonnegative.
    """
    _check_engine(user_choice)
    CncInstance(g, k, x=x, y=y)
    return _route(_Plan(g, k, x, y), user_choice)[0]


def _solve_oracle(plan: _Plan, config: HarnessConfig) -> Decision:
    res = _lazy("oracle").oracle_min_pairs(plan.g, plan.k, cap=config.oracle_cap)
    stats = {"explored": res.explored, "min_residual_pairs": res.min_residual_pairs}
    if res.min_residual_pairs > plan.x_eff:
        return Decision(False, None, stats)
    return Decision(True, certify(plan.g, res.best_cut, plan.k, plan.x_eff, "oracle"), stats)


# Engine name -> solve(plan, config) returning a Decision. Each loads its
# engine's module on its first call.
_SOLVERS = {
    "oracle": _solve_oracle,
    "branch-kx": lambda p, c: _lazy("branching").solve_branch_kx(p.g, p.k, p.x_eff),
    "dp-y": lambda p, c: _lazy("component_dp").solve_y(
        p.g, p.k, p.total - p.x_eff, cap=c.oracle_cap),
    "dp-wx": lambda p, c: _lazy("treewidth_dp").solve_wx(p.g, p.k, p.x_eff, ntd=p.ntd),
}
ENGINES = tuple(_SOLVERS)


def run_instance(
    inst: CncInstance,
    algo: str = "auto",
    config: HarnessConfig = HarnessConfig(),
    ntd: NiceTreeDecomposition | None = None,
) -> RunReport:
    """Solve one instance and emit a report whose YES cut has passed `certify`.

    Raises Refusal subclasses when the instance is outside the engine
    envelopes or a cap is hit; those are reports for the caller, not bugs.
    wall_ms covers the whole call, the verification included.
    """
    start = time.perf_counter()
    _check_engine(algo)
    plan = _Plan(inst.graph, inst.k, inst.x, inst.y, ntd)
    engine, sub, trace = _route(plan, algo)

    if engine == "trivial":
        if plan.x_eff < 0:
            d = Decision(False, None, {"reason": "x-equivalent below zero"})
        else:
            cut = certify(plan.g, Cut(frozenset(), plan.total), plan.k, plan.x_eff, engine)
            d = Decision(True, cut, {"reason": "bound already met"})
    elif engine != "kernel":
        d = _SOLVERS[engine](sub, config)
    elif trace.infeasible:
        d = Decision(False, None, {"reason": "the high-degree rule forces more than k vertices"})
    else:
        d = Decision(True, Cut(frozenset(), sub.total), {"reason": "forced vertices meet the bound"})
    stats = d.stats if isinstance(d.stats, dict) else dict(vars(d.stats))
    if trace is not None:
        # An infeasible trace stops at the vertex that would take k + 1.
        forced = len(trace.forced_vertices) + trace.infeasible
        stats["kernel"] = {"forced": forced, "k_out": trace.k_out, "n_out": trace.kernel_graph.n}
        if d.answer:
            lift = trace.kernel_to_original
            cut = Cut(frozenset(trace.forced_vertices).union(lift[v] for v in d.cut.vertices),
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
