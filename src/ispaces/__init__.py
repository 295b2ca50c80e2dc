"""Finite interval spaces: betweenness axioms, abstract convexity, and
order-geometry property checkers with exhaustive verification tooling.

Each exported name is imported from its submodule on first access (PEP 562),
so ``import ispaces`` loads no submodule and a command loads only its layers.
"""

from importlib import import_module

__version__ = "0.1.0"

#: Exported name -> the submodule that defines it.
_EXPORTS = {
    name: module
    for module, names in {
        "base": ("ANTISYMMETRY_CONDITIONS", "TRANSITIVITY_CONDITIONS", "WORK_BUDGET", "CapExceededError"),
        "core": (
            "Axiom", "AxiomViolation", "BetweennessTable", "BinaryRelation", "FiniteIntervalSpace", "PointSet",
            "ValidationError", "axiom_violations", "validate",
        ),
        "closure": (
            "ClosureSystem", "HypothesisNotMetError", "antiexchange_witness", "antimatroid_witness",
            "convex_closure_system",
        ),
        "models": (
            "Graph", "RationalPoint", "complete_bipartite_graph", "complete_graph", "geodesic_space_from_graph",
            "linear_order_space", "path_graph", "rational_between", "rational_point", "vector_space_on_points",
        ),
        "properties": (
            "PROPERTIES", "ConditionVector", "PropertyReport", "antisymmetry_conditions",
            "base_interval_antisymmetry_prop_witness", "base_interval_transitivity_prop_witness",
            "entailment_reverse_witness", "interval_antisymmetry_witness", "interval_convexity_witness",
            "interval_transitivity_witness", "point_antisymmetry_witness", "point_transitivity_witness",
            "property_report", "resolve_properties", "stiff_convex_antisymmetry_witness", "stiffness_witness",
            "transitivity_conditions",
        ),
        "search": (
            "CensusReport", "EquivalenceViolation", "ExhaustivePopulation", "FreeOrbitEncoding",
            "SampledPopulation", "enumerate_spaces", "find_separating", "random_encoding", "random_space",
            "verify_antisymmetry_theorem", "verify_transitivity_theorem",
        ),
    }.items()
    for name in names
}
__all__ = list(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
