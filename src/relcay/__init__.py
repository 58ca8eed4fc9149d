"""Relative Cayley graphs of finite groups.

Construction, exact invariants, theorem-as-predicate evaluation, and an
audit harness that compares predictions against brute-force oracles.

Submodules load on first use: ``import relcay`` imports none of them, and
each public name below is resolved from its submodule the first time it is
read (PEP 562), so a caller that never touches the audit never pays for it.
"""
from __future__ import annotations

from importlib import import_module

__version__ = "0.1.0"

# Public name -> the submodule that defines it.
_EXPORTS = {
    # groups
    "GroupTable": "group_core",
    "ElementSet": "group_core",
    "Subgroup": "group_core",
    "make_group": "group_core",
    "default_max_order": "group_core",
    "enumerate_subgroups": "group_core",
    "generated_subgroup": "group_core",
    "coset_partition": "group_core",
    "product_set": "group_core",
    "element_order": "group_core",
    # graphs
    "ConnectionSet": "graphs",
    "RelCayGraph": "graphs",
    "InducedCayleyGraph": "graphs",
    "build_relcay": "graphs",
    "inverse_orbits": "graphs",
    "enumerate_connection_sets": "graphs",
    "connection_set_count": "graphs",
    # oracles
    "InvariantReport": "oracles",
    "StructureFlags": "oracles",
    "invariant_report": "oracles",
    "structure_flags": "oracles",
    "max_clique": "oracles",
    "max_independent_set": "oracles",
    "max_matching": "oracles",
    "min_dominating_set": "oracles",
    "min_vertex_cover": "oracles",
    "min_edge_cover": "oracles",
    "chromatic_number": "oracles",
    "edge_chromatic_number": "oracles",
    "diameter_components": "oracles",
    # theorems
    "PredictionSet": "theorems",
    "ValencyPredictions": "theorems",
    "ConnectivityPredictions": "theorems",
    "CliquePredictions": "theorems",
    "AlphaBetaPredictions": "theorems",
    "ChromaticPredictions": "theorems",
    "ForbiddenPrediction": "theorems",
    "EdgeColoring": "theorems",
    "predict_all": "theorems",
    "predict_valencies": "theorems",
    "predict_connectivity": "theorems",
    "predict_clique": "theorems",
    "predict_alpha_beta": "theorems",
    "predict_chromatic": "theorems",
    "predict_forbidden": "theorems",
    "build_class_one_coloring": "theorems",
    # audit
    "Limits": "audit",
    "AuditRecord": "audit",
    "MismatchEntry": "audit",
    "AuditReport": "audit",
    "RecordTable": "audit",
    "ALL_CHECKS": "audit",
    "AUDITED_CHECKS": "audit",
    "DEFAULT_CATALOG": "audit",
    "catalog_up_to": "audit",
    "run_audit": "audit",
    "shrink_counterexample": "audit",
    # errors
    "RelCayError": "errors",
    "GroupSpecError": "errors",
    "CapacityError": "errors",
    "GroupMismatchError": "errors",
    "ImproperSubgroupError": "errors",
    "ConnectionSetError": "errors",
    "PreconditionError": "errors",
    "InternalConsistencyError": "errors",
    "UnknownCheckError": "errors",
}

__all__ = ["__version__", *_EXPORTS]


def __getattr__(name: str):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later reads find it without calling here
    return value


def __dir__() -> list[str]:
    return list(__all__)
