"""Finite interval spaces: betweenness axioms, abstract convexity, and
order-geometry property checkers with exhaustive verification tooling."""

from .core import (
    WORK_BUDGET,
    Axiom,
    AxiomViolation,
    BetweennessTable,
    BinaryRelation,
    CapExceededError,
    FiniteIntervalSpace,
    PointSet,
    ValidationError,
    axiom_violations,
    validate,
)
from .closure import (
    ClosureSystem,
    HypothesisNotMetError,
    antiexchange_witness,
    antimatroid_witness,
    convex_closure_system,
    entailment_reverse_witness,
)
from .models import (
    Graph,
    RationalPoint,
    complete_bipartite_graph,
    complete_graph,
    geodesic_space_from_graph,
    linear_order_space,
    path_graph,
    rational_between,
    rational_point,
    vector_space_on_points,
)
from .properties import (
    ANTISYMMETRY_CONDITIONS,
    PROPERTIES,
    TRANSITIVITY_CONDITIONS,
    ConditionVector,
    PropertyReport,
    antisymmetry_conditions,
    base_interval_antisymmetry_prop_witness,
    base_interval_transitivity_prop_witness,
    interval_antisymmetry_witness,
    interval_convexity_witness,
    interval_transitivity_witness,
    point_antisymmetry_witness,
    point_transitivity_witness,
    property_report,
    resolve_properties,
    stiff_convex_antisymmetry_witness,
    stiffness_witness,
    transitivity_conditions,
)
from .search import (
    CensusReport,
    EquivalenceViolation,
    ExhaustivePopulation,
    FreeOrbitEncoding,
    SampledPopulation,
    enumerate_spaces,
    find_separating,
    free_orbit_encoding,
    random_encoding,
    random_space,
    verify_antisymmetry_theorem,
    verify_transitivity_theorem,
)

__version__ = "0.1.0"
