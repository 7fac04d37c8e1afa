"""Critical node cut toolkit.

Decide whether deleting at most k vertices of an undirected simple graph can
leave at most x ordered connected pairs (equivalently, remove at least y).
Exact engines: subset oracle, bounded search tree in x+k, per-component
dynamic program in y, and a tree-decomposition dynamic program in width + x.

The exported names load lazily (PEP 562): `import cncut` imports no
submodule, and the first read of a name imports the module that defines it,
so a process pays only for the modules it uses.
"""

from importlib import import_module

# Defining module -> the names it exports from the package root.
_EXPORTS = {
    "branching": ("BranchStats", "solve_branch_kx"),
    "component_dp": ("RemovalTable", "solve_y"),
    "decomposition": (
        "NiceTreeDecomposition",
        "TreeDecomposition",
        "heuristic_decomposition",
        "make_nice",
        "parse_td",
        "serialize_td",
        "validate_decomposition",
        "validate_nice",
    ),
    "graph": (
        "Cut",
        "Decision",
        "Graph",
        "InputError",
        "Refusal",
        "VerifyReport",
        "connected_pairs",
        "pairs_removed",
        "remove_isolated",
        "remove_vertices",
        "verify_solution",
    ),
    "harness": ("HarnessConfig", "RunReport", "run_instance", "select_algorithm"),
    "instance_io": ("CncInstance", "ParseError", "parse_instance", "serialize_instance"),
    "kernel": ("KernelTrace", "kernel_bound_holds", "kernelize_kx"),
    "oracle": (
        "CapExceeded",
        "OracleResult",
        "oracle_decides",
        "oracle_max_removed_exact",
        "oracle_min_pairs",
    ),
    "reductions": (
        "CliqueInstance",
        "GadgetSizes",
        "MccLayout",
        "ReductionOutput",
        "build_mcc_instance",
        "cross_compose",
        "forward_solution_cut",
        "mcc_parameters",
        "reduce_clique_bipartite",
        "reduce_clique_split",
        "reduce_clique_to_cnc",
    ),
    "treewidth_dp": ("solve_wx",),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
