"""The package's public names: each module's __all__ is the one list of its
own, and the package joins them."""

import importlib

import corekit

MODULES = ("budgets", "corpus", "critical", "errors", "graph", "independence", "matching",
           "theorems", "unicyclic")

# the names the package exported while it listed them itself
_EARLIER_EXPORTS = {
    "BudgetExceededError", "Budgets", "CorekitError", "CriticalReport", "DEFAULT_BUDGETS",
    "Decomposition", "DomainError", "FIXTURE_NAMES", "Graph", "KeClassification", "Matching",
    "NotUnicyclicError", "OwnershipError", "ParseError", "PendantTree", "PreconditionError",
    "Problem1Report", "ShapeClass", "SweepSummary", "THEOREM_IDS", "TheoremReport",
    "VertexSet", "__version__", "alpha", "check", "classify_ke_unicyclic", "classify_shape",
    "classify_sum_defect", "core", "corona", "critical_difference",
    "critical_difference_bruteforce", "decompose", "diff", "enumerate_connected_graphs",
    "enumerate_maximum_matchings", "enumerate_mis", "enumerate_trees", "enumerate_unicyclic",
    "family_items", "find_cycle", "fixture", "fixture_text", "is_alpha_critical_edge",
    "is_independent", "is_koenig_egervary", "is_mu_critical_edge", "ker", "kernel_gap_family",
    "maximum_matching", "mu", "parse_edge_list", "prufer_decode", "random_connected",
    "random_tree", "random_unicyclic", "saturating_matching", "search_problem1", "serialize",
    "structural_core", "structural_corona", "structural_ker", "sum_defect_histogram", "sweep",
    "tree_code", "unicyclic_code",
}


def test_package_exports_join_the_module_lists():
    modules = [importlib.import_module(f"corekit.{name}") for name in MODULES]
    joined = [name for module in modules for name in module.__all__]
    assert corekit.__all__ == [*joined, "__version__"]
    assert len(set(corekit.__all__)) == len(corekit.__all__)
    for module in modules:
        for name in module.__all__:
            assert getattr(corekit, name) is getattr(module, name), (module.__name__, name)
    assert len(_EARLIER_EXPORTS) == 66
    assert _EARLIER_EXPORTS <= set(corekit.__all__)
