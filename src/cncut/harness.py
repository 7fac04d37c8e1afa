"""Engine selection and single-instance runs shared by the CLI and the bench."""

from __future__ import annotations

import dataclasses
import os
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
    """No engine is willing to touch the instance at the configured thresholds."""


@dataclass(frozen=True)
class HarnessConfig:
    oracle_max_n: int = 14
    dp_y_max: int = 22
    branch_kx_max: int = 24
    dp_wx_max: int = 18
    oracle_cap: int = DEFAULT_CAP

    @staticmethod
    def from_env(environ=None) -> HarnessConfig:
        """Read overrides from the key=value file named by CNC_CONFIG, if any."""
        environ = os.environ if environ is None else environ
        path = environ.get("CNC_CONFIG")
        if not path:
            return HarnessConfig()
        fields = {f.name for f in dataclasses.fields(HarnessConfig)}
        overrides: dict[str, int] = {}
        with open(path, encoding="utf-8") as fh:
            for line_no, raw in enumerate(fh, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise InputError(f"{path}:{line_no}: expected key=value")
                key, _, value = line.partition("=")
                key, value = key.strip(), value.strip()
                if key not in fields:
                    raise InputError(f"{path}:{line_no}: unknown config key {key!r}")
                try:
                    overrides[key] = int(value)
                except ValueError:
                    raise InputError(
                        f"{path}:{line_no}: value for {key} is not an integer"
                    ) from None
        return HarnessConfig(**overrides)


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


def _auto(plan: _Plan, config: HarnessConfig) -> str:
    if plan.g.n <= config.oracle_max_n:
        return "oracle"
    if plan.y is not None and plan.y <= config.dp_y_max:
        return "dp-y"
    x_eff = max(plan.x_eff, 0)
    width = plan.td.width
    if width + x_eff <= config.dp_wx_max:
        return "dp-wx"
    if x_eff + plan.k <= config.branch_kx_max:
        return "branch-kx"
    reasons = [f"n={plan.g.n} > {config.oracle_max_n}"]
    if plan.y is not None:
        reasons.append(f"y={plan.y} > {config.dp_y_max}")
    reasons.append(f"w+x={width}+{x_eff} > {config.dp_wx_max}")
    reasons.append(f"x+k={x_eff}+{plan.k} > {config.branch_kx_max}")
    raise EngineRefusal("instance outside every engine envelope: " + "; ".join(reasons))


def select_algorithm(
    g: Graph,
    k: int,
    x: int | None,
    y: int | None,
    user_choice: str = "auto",
    config: HarnessConfig | None = None,
) -> str:
    """Pick an engine. An explicit choice wins; auto walks the thresholds.

    Auto order: oracle by vertex count, then dp-y when the instance is
    y-shaped and small, then dp-wx when heuristic width keeps w+x small,
    then branch-kx on x+k. Structure is consulted before branching so that
    near-tree graphs with moderate x go to the width engine.
    """
    _check_engine(user_choice)
    if user_choice != "auto":
        return user_choice
    return _auto(_Plan(g, k, x, y), config or HarnessConfig())


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
    config: HarnessConfig | None = None,
    ntd: NiceTreeDecomposition | None = None,
) -> RunReport:
    """Solve one instance and emit a verified report.

    Raises Refusal subclasses when the instance is outside the engine
    envelopes or a cap is hit; those are reports for the caller, not bugs.
    wall_ms covers the whole call, the re-verification included.
    """
    start = time.perf_counter()
    _check_engine(algo)
    config = config or HarnessConfig.from_env()
    plan = _Plan(inst.graph, inst.k, inst.x, inst.y, ntd)

    # Degenerate targets never reach an engine.
    engine = "trivial"
    if plan.x_eff < 0:
        answer, cut, stats = False, None, {"reason": "x-equivalent below zero"}
    elif plan.x_eff >= plan.total:
        answer, cut, stats = True, Cut(frozenset(), plan.total), {"reason": "bound already met"}
    else:
        engine = algo if algo != "auto" else _auto(plan, config)
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
