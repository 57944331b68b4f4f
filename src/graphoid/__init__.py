"""Graphoid-based relevance reasoning over discrete and Gaussian distributions.

Public names load on first access (PEP 562); ``import graphoid`` loads no submodule.
"""

import importlib

__version__ = "0.1.0"

# Public names, grouped by the submodule that defines them.
_EXPORTS = {
    "bayesnet": (
        "Dag",
        "SeparationQuery",
        "Trail",
        "build_network",
        "connected_components",
        "d_separated",
        "factorization_max_error",
    ),
    "dist_oracle": (
        "CiOracle",
        "GaussianModel",
        "JointTable",
        "ci_holds_discrete",
        "condition_on",
        "extract_model",
        "marginalize",
        "product_table",
        "random_gaussian",
        "random_spb",
        "xor_table",
    ),
    "model_core": (
        "AxiomViolation",
        "DependencyModel",
        "Triplet",
        "Universe",
        "check_graphoid_axioms",
        "graphoid_closure",
    ),
    "relevance": (
        "CheckResult",
        "PartitionTriple",
        "PtBinBlocks",
        "RelationVerdict",
        "TransitivityResult",
        "check_clean",
        "check_pt_bin",
        "gaussian_axioms_check",
        "is_transitive",
        "mutually_irrelevant",
        "uncoupled",
        "unrelated",
    ),
    "simnet": (
        "HypothesisCover",
        "LocalNetwork",
        "SimilarityNetwork",
        "build_local",
        "build_similarity",
        "restrict_to_hypotheses",
        "types_equivalent",
    ),
    "suites": ("SuiteReport", "run_suite"),
}

__all__ = sorted(name for names in _EXPORTS.values() for name in names)


def __getattr__(name: str):
    # The first read imports all six modules and binds every public name at
    # once, never one module at a time; later reads are plain dict lookups.
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    for module, names in _EXPORTS.items():
        defining = importlib.import_module(f".{module}", __name__)
        globals().update((n, getattr(defining, n)) for n in names)
    return globals()[name]


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
