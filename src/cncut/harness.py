"""Engine selection and single-instance runs shared by the CLI and the bench."""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass
from functools import cached_property

from .branching import solve_branch_kx
from .component_dp import solve_y
from .decomposition import NiceTreeDecomposition, heuristic_decomposition, make_nice
from .graph import Cut, Graph, InputError, Refusal, connected_pairs, verify_solution
from .instance_io import CncInstance
from .oracle import DEFAULT_CAP, oracle_min_pairs
from .treewidth_dp import solve_wx


class EngineRefusal(Refusal):
    """No engine is willing to touch the instance at auto's thresholds."""


@dataclass(frozen=True)
class HarnessConfig:
    oracle_cap: int = DEFAULT_CAP


@dataclass(frozen=True)
class RunReport:
    answer: str  # YES or NO
    cut: tuple[int, ...] | None
    residual_pairs: int | None
    pairs_removed: int | None
    algorithm: str
    stats: dict
    wall_ms: float
    config: dict

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        if d["cut"] is not None:
            d["cut"] = [v + 1 for v in d["cut"]]  # 1-indexed outward
        return d


class _Plan:
    """Shared inputs of one instance; each is built once, the decompositions on first use."""

    def __init__(self, g: Graph, k: int, x: int | None, y: int | None, ntd=None):
        self.g, self.k, self.y, self._given_ntd = g, k, y, ntd
        self.total = connected_pairs(g)
        self.x_eff = x if x is not None else self.total - y

    @cached_property
    def td(self):
        return heuristic_decomposition(self.g)

    @cached_property
    def ntd(self):
        return self._given_ntd if self._given_ntd is not None else make_nice(self.td)


def _check_engine(algo: str) -> None:
    if algo != "auto" and algo not in _SOLVERS:
        raise InputError(f"unknown engine {algo!r}")


# Auto's engine envelopes, tried in this order; --algo overrides them per run.
ORACLE_MAX_N = 14
DP_Y_MAX = 22
DP_WX_MAX = 18
BRANCH_KX_MAX = 24


def _auto(plan: _Plan) -> str:
    if plan.g.n <= ORACLE_MAX_N:
        return "oracle"
    if plan.y is not None and plan.y <= DP_Y_MAX:
        return "dp-y"
    x_eff = max(plan.x_eff, 0)
    width = plan.td.width
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


def select_algorithm(
    g: Graph,
    k: int,
    x: int | None,
    y: int | None,
    user_choice: str = "auto",
) -> str:
    """Pick an engine. An explicit choice wins; auto walks the thresholds.

    Auto order: oracle by vertex count, then dp-y when the instance is
    y-shaped and small, then dp-wx when heuristic width keeps w+x small,
    then branch-kx on x+k. Structure is consulted before branching so that
    near-tree graphs with moderate x go to the width engine. The target and
    budget are checked as an instance file's are: exactly one of x and y,
    each nonnegative.
    """
    _check_engine(user_choice)
    CncInstance(g, k, x=x, y=y)
    if user_choice != "auto":
        return user_choice
    return _auto(_Plan(g, k, x, y))


def _solve_oracle(plan: _Plan, config: HarnessConfig):
    res = oracle_min_pairs(plan.g, plan.k, cap=config.oracle_cap)
    stats = {"explored": res.explored, "min_residual_pairs": res.min_residual_pairs}
    return res.min_residual_pairs <= plan.x_eff, res.best_cut, stats


def _decided(d):
    return d.answer, d.cut, dataclasses.asdict(d.stats)


# Engine name -> solve(plan, config) returning (answer, cut, stats). Engine
# functions are looked up at call time, so patching this module reaches them.
_SOLVERS = {
    "oracle": _solve_oracle,
    "branch-kx": lambda p, c: _decided(solve_branch_kx(p.g, p.k, p.x_eff)),
    "dp-y": lambda p, c: _decided(solve_y(p.g, p.k, p.total - p.x_eff, cap=c.oracle_cap)),
    "dp-wx": lambda p, c: _decided(solve_wx(p.g, p.k, p.x_eff, ntd=p.ntd)),
}
ENGINES = tuple(_SOLVERS)


def run_instance(
    inst: CncInstance,
    algo: str = "auto",
    config: HarnessConfig = HarnessConfig(),
    ntd: NiceTreeDecomposition | None = None,
) -> RunReport:
    """Solve one instance and emit a verified report.

    Raises Refusal subclasses when the instance is outside the engine
    envelopes or a cap is hit; those are reports for the caller, not bugs.
    wall_ms covers the whole call, the re-verification included.
    """
    start = time.perf_counter()
    _check_engine(algo)
    plan = _Plan(inst.graph, inst.k, inst.x, inst.y, ntd)

    # Degenerate targets never reach an engine.
    engine = "trivial"
    if plan.x_eff < 0:
        answer, cut, stats = False, None, {"reason": "x-equivalent below zero"}
    elif plan.x_eff >= plan.total:
        answer, cut, stats = True, Cut(frozenset(), plan.total), {"reason": "bound already met"}
    else:
        engine = algo if algo != "auto" else _auto(plan)
        answer, cut, stats = _SOLVERS[engine](plan, config)

    cut_out = residual = removed = None
    if answer:
        cut_out = tuple(sorted(cut.vertices))
        report = verify_solution(plan.g, cut_out, plan.k, plan.x_eff)
        if not report:
            raise AssertionError(f"engine {engine} produced a cut that fails verification")
        residual = report.residual_pairs
        removed = plan.total - residual
    return RunReport(
        answer="YES" if answer else "NO",
        cut=cut_out,
        residual_pairs=residual,
        pairs_removed=removed,
        algorithm=engine,
        stats=stats,
        wall_ms=(time.perf_counter() - start) * 1e3,
        config=dataclasses.asdict(config),
    )
