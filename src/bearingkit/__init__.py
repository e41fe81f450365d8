"""Toolkit for directed bearing-constrained formations.

Builds the matrices of bearing rigidity theory (rigidity matrix, bearing
Laplacian), classifies formations (infinitesimal bearing rigidity, bearing
persistence), probes Laplacian spectra, predicts closed-loop limits, and
simulates the linear bearing-based formation control law.
"""

__version__ = "0.1.0"

from .analysis import (
    AnalysisReport,
    EquivalenceCheck,
    LimitPrediction,
    PersistenceCondition,
    Realization,
    SpectrumSummary,
    check_bearing_equivalence,
    classify,
    is_bearing_persistent,
    is_infinitesimally_bearing_rigid,
    laplacian_spectrum,
    predict_limit,
    realize_constraints,
    sufficient_persistence_2d,
)
from .errors import (
    BearingKitError,
    ConfigError,
    CriteriaDisagreeError,
    DefectiveZeroEigenvalueError,
    DegenerateEdgeError,
    DimensionMismatchError,
    InconsistentRankTestsError,
    NotConvergedError,
    NumericalInconsistencyError,
    ParseError,
    ScenarioError,
    ValidationError,
    WrongDimensionError,
    ZeroVectorError,
)
from .formation import BearingConstraintSet, Formation
from .graph import (
    DirectedGraph,
    expanded_incidence,
    incidence_matrix,
    is_weakly_connected,
)
from .linalg import (
    numeric_rank,
    nullspace_basis,
    projector,
    span_basis,
    spectral_projector_zero,
    subspace_contains,
    subspaces_equal,
)
from .scenario import (
    Scenario,
    list_fixtures,
    load_fixture,
    parse_scenario,
    resolve_scenario,
    scenario_from_dict,
    scenario_to_dict,
)
from .simulation import (
    ShapeCheck,
    SimulationConfig,
    Trajectory,
    expm_oracle,
    final_shape_check,
    simulate,
    step_agentwise,
)

__all__ = [
    "AnalysisReport",
    "BearingConstraintSet",
    "BearingKitError",
    "ConfigError",
    "CriteriaDisagreeError",
    "DefectiveZeroEigenvalueError",
    "DegenerateEdgeError",
    "DimensionMismatchError",
    "DirectedGraph",
    "EquivalenceCheck",
    "Formation",
    "InconsistentRankTestsError",
    "LimitPrediction",
    "NotConvergedError",
    "NumericalInconsistencyError",
    "ParseError",
    "PersistenceCondition",
    "Realization",
    "Scenario",
    "ScenarioError",
    "ShapeCheck",
    "SimulationConfig",
    "SpectrumSummary",
    "Trajectory",
    "ValidationError",
    "WrongDimensionError",
    "ZeroVectorError",
    "check_bearing_equivalence",
    "classify",
    "expanded_incidence",
    "expm_oracle",
    "final_shape_check",
    "incidence_matrix",
    "is_bearing_persistent",
    "is_infinitesimally_bearing_rigid",
    "is_weakly_connected",
    "laplacian_spectrum",
    "list_fixtures",
    "load_fixture",
    "numeric_rank",
    "nullspace_basis",
    "parse_scenario",
    "predict_limit",
    "projector",
    "realize_constraints",
    "resolve_scenario",
    "scenario_from_dict",
    "scenario_to_dict",
    "simulate",
    "span_basis",
    "spectral_projector_zero",
    "step_agentwise",
    "subspace_contains",
    "subspaces_equal",
    "sufficient_persistence_2d",
]
