"""Exception types shared across the toolkit."""

from __future__ import annotations


class BearingKitError(Exception):
    """Base class for all toolkit errors."""


class ZeroVectorError(BearingKitError):
    """A direction vector with (numerically) zero norm was supplied."""


class DimensionMismatchError(BearingKitError):
    """Operands live in different ambient dimensions."""


class DegenerateEdgeError(BearingKitError):
    """An edge's endpoints (numerically) coincide, so its bearing is undefined."""

    def __init__(self, edge_index: int, tail: int, head: int, length: float):
        self.edge_index = edge_index
        self.tail = tail
        self.head = head
        self.length = length
        super().__init__(
            f"edge {edge_index} ({tail} -> {head}) has length {length:.3e}; "
            "bearing undefined"
        )


class DefectiveZeroEigenvalueError(BearingKitError):
    """The zero eigenvalue is defective: geometric multiplicity is below algebraic."""


class WrongDimensionError(BearingKitError):
    """An operation defined only for a specific spatial dimension was misapplied."""


class NotConvergedError(BearingKitError):
    """A trajectory-level check requires a converged simulation."""


class ConfigError(BearingKitError):
    """Invalid simulation or batch configuration."""


class NumericalInconsistencyError(BearingKitError):
    """Two redundant numerical criteria that must agree did not.

    Usually a sign that ranks or residuals sit right at the configured
    tolerance; inputs should be rescaled or the tolerance revisited.
    """


class InconsistentRankTestsError(NumericalInconsistencyError):
    """Rank-based and subspace-based classification criteria disagree."""


class CriteriaDisagreeError(NumericalInconsistencyError):
    """Edgewise and matrix-level bearing-equivalence criteria disagree."""


class ScenarioError(BearingKitError):
    """Base class for scenario file problems."""


class ParseError(ScenarioError):
    """Scenario file is not syntactically valid."""


class ValidationError(ScenarioError):
    """Scenario file parsed but violates a structural invariant."""
