"""Classification engine: rigidity, persistence, equivalence, spectra, limits.

A formation is infinitesimally bearing rigid when its only bearing-preserving
infinitesimal motions are translations and uniform scaling, and bearing
persistent when the null space of the bearing Laplacian (built from its own
bearings) matches the null space of the bearing rigidity matrix.  The two
properties are independent, and both are necessary for the linear control
law to steer arbitrary initial conditions to the target shape.  For an
undirected graph they are also sufficient, since L is then symmetric
positive semidefinite.  For a directed graph stability is a separate
question, answered by `laplacian_spectrum`: a rigid and persistent formation
can still have an eigenvalue of L with negative real part (trial 13 of the
seed-42 conjecture batch has n = 4, d = 2, m = 6 and the eigenvalue -0.0168).

Every boolean verdict here is computed twice, through a rank test and
through a subspace test; disagreement raises instead of silently picking
one, because rank decisions near the tolerance are the main numerical
hazard of this kind of analysis.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    CriteriaDisagreeError,
    DefectiveZeroEigenvalueError,
    InconsistentRankTestsError,
    WrongDimensionError,
)
from .formation import BearingConstraintSet, Formation, edge_block_matrix
from .linalg import (
    DEFAULT_RANK_TOL,
    SUBSPACE_TOL,
    containment_residual,
    nullspace_basis,
    numeric_rank,
    span_basis,
    spectral_projector_zero,
    subspace_contains,
    subspaces_equal,
)

#: Eigenvalues with modulus below this count as zero when probing spectra.
ZERO_EIG_TOL = 1e-8

#: Two outgoing bearings are collinear when either annihilates the other
#: up to this norm; matches the degenerate-edge scale.
COLLINEARITY_TOL = 1e-9

#: Default residual tolerance for bearing-equivalence checks.
EQUIVALENCE_TOL = 1e-8


@dataclass
class AnalysisReport:
    """Full classification record for one formation."""

    n: int
    d: int
    m: int
    rank_rigidity: int
    rank_laplacian: int
    nullity_rigidity: int
    nullity_laplacian: int
    is_rigid: bool
    is_persistent: bool
    #: Residuals for the chain trivial-motions <= Null(R) <= Null(L):
    #: (max |R v| over trivial basis vectors, max |L v| over Null(R) basis
    #: vectors, max |L v| over trivial basis vectors).
    null_chain_residuals: tuple[float, float, float]
    eigenvalues: np.ndarray
    min_real_part: float
    trivial_space_dim: int
    null_basis_rigidity: np.ndarray = field(repr=False)
    null_basis_laplacian: np.ndarray = field(repr=False)
    #: "positions" when classified from given positions, or
    #: "realized-from-constraints" when a configuration was synthesized
    #: from raw bearing constraints first.
    mode: str = "positions"


@dataclass
class EquivalenceCheck:
    """Outcome of a bearing-equivalence test between two configurations."""

    equivalent: bool
    max_edge_residual: float
    rigidity_residual: float
    #: +1 where the candidate bearing points along the reference bearing,
    #: -1 where it is flipped; only meaningful when `equivalent` is true.
    edge_signs: np.ndarray


@dataclass
class PersistenceCondition:
    """Result of the 2-D out-degree/non-collinearity sufficient condition."""

    condition_holds: bool
    violating_agents: list[int]


@dataclass
class SpectrumSummary:
    """All eigenvalues of a bearing Laplacian, sorted by real part."""

    eigenvalues: np.ndarray
    min_real_part: float

    def count_zero(self, tol: float = ZERO_EIG_TOL) -> int:
        return int(np.sum(np.abs(self.eigenvalues) < tol))


@dataclass
class LimitPrediction:
    """Predicted steady state of the closed loop, when one exists."""

    p_inf: np.ndarray | None
    valid: bool
    reason: str = ""


@dataclass
class Realization:
    """A configuration synthesized from raw bearing constraints."""

    positions: np.ndarray | None
    feasible: bool
    min_residual: float


def is_infinitesimally_bearing_rigid(
    f: Formation, tol_rel: float = DEFAULT_RANK_TOL
) -> bool:
    """True when only translations and scaling preserve all bearings.

    Decided by the rank of the rigidity matrix reaching d*n - d - 1 and,
    redundantly, by its null space equalling the trivial-motion span; the
    two must agree.
    """
    R = f.bearing_rigidity_matrix
    expected = f.d * f.n - f.d - 1
    by_rank = numeric_rank(R, tol_rel) == expected
    by_space = subspaces_equal(nullspace_basis(R, tol_rel), f.trivial_motion_basis)
    if by_rank != by_space:
        raise InconsistentRankTestsError(
            f"rigidity rank test ({by_rank}) and null-space test ({by_space}) "
            "disagree; rank tolerance is likely sitting on a singular value"
        )
    return by_rank


def is_bearing_persistent(f: Formation, tol_rel: float = DEFAULT_RANK_TOL) -> bool:
    """True when Null of the bearing Laplacian equals Null of the rigidity matrix.

    The Laplacian is built from the formation's own bearings.  Because the
    rigidity null space is always contained in the Laplacian null space,
    equal ranks force equal subspaces; the containment is still verified
    directly and any disagreement raises.
    """
    R = f.bearing_rigidity_matrix
    L = BearingConstraintSet.from_formation(f).bearing_laplacian
    rank_R = numeric_rank(R, tol_rel)
    rank_L = numeric_rank(L, tol_rel)
    if rank_L > rank_R:
        raise InconsistentRankTestsError(
            f"Laplacian rank {rank_L} exceeds rigidity rank {rank_R}, which "
            "contradicts the null-space containment; rank tolerance is suspect"
        )
    by_rank = rank_L == rank_R
    null_R = nullspace_basis(R, tol_rel)
    null_L = nullspace_basis(L, tol_rel)
    contained = subspace_contains(null_R, null_L)
    if by_rank and not contained:
        raise InconsistentRankTestsError(
            "equal ranks but the Laplacian null space is not contained in "
            "the rigidity null space; rank tolerance is suspect"
        )
    return by_rank


def check_bearing_equivalence(
    f: Formation, q: np.ndarray, tol: float = EQUIVALENCE_TOL
) -> EquivalenceCheck:
    """Do the positions q induce bearings pairwise parallel to f's?

    Runs the edgewise criterion (each of f's bearing projectors annihilates
    the corresponding bearing of q) and the matrix criterion (the rigidity
    matrix of f annihilates q, relative to |q|).  Both must agree; sign
    flips per edge are permitted and reported.
    """
    other = Formation(f.graph, f.d, q)  # raises DegenerateEdgeError on bad q
    g_ref = f.bearings.reshape(f.m, f.d)
    g_new = other.bearings.reshape(f.m, f.d)
    cosines = np.einsum("kd,kd->k", g_ref, g_new)
    residuals = np.linalg.norm(g_new - cosines[:, None] * g_ref, axis=1)
    max_edge_residual = float(residuals.max()) if f.m else 0.0
    rigidity_residual = float(
        np.linalg.norm(f.bearing_rigidity_matrix @ other.p) / np.linalg.norm(other.p)
    )
    edgewise = max_edge_residual < tol
    matrixwise = rigidity_residual < tol
    if edgewise != matrixwise:
        raise CriteriaDisagreeError(
            f"edgewise criterion ({max_edge_residual:.3e}) and rigidity-matrix "
            f"criterion ({rigidity_residual:.3e}) disagree at tol {tol:.1e}"
        )
    return EquivalenceCheck(edgewise, max_edge_residual, rigidity_residual, np.sign(cosines))


def outgoing_pair_separation(f: Formation) -> tuple[np.ndarray, np.ndarray]:
    """Per-agent out-degree, and how far apart two outgoing bearings are.

    Returns (degree, separation), both of length n and indexed by 0-based
    agent.  For an agent with exactly two outgoing edges, whose bearings
    are a and b in edge order, separation is |b - (a.b) a|, the norm of b
    projected off a; it is zero when the two are collinear.  Other agents
    get NaN.
    """
    tails = f.graph.tails
    degree = np.bincount(tails, minlength=f.n)
    separation = np.full(f.n, np.nan)
    pairs = np.flatnonzero(degree == 2)
    if pairs.size:
        g = f.bearings.reshape(f.m, f.d)
        by_tail = np.argsort(tails, kind="stable")
        first = (np.cumsum(degree) - degree)[pairs]
        a, b = g[by_tail[first]], g[by_tail[first + 1]]
        cosines = np.einsum("kd,kd->k", a, b)
        separation[pairs] = np.linalg.norm(b - cosines[:, None] * a, axis=1)
    return degree, separation


def sufficient_persistence_2d(f: Formation) -> PersistenceCondition:
    """Out-degree condition that guarantees persistence in the plane.

    Holds when every agent has at most two outgoing edges and any agent
    with exactly two has non-collinear outgoing bearings.  One-directional:
    formations failing the condition may still be persistent.
    """
    if f.d != 2:
        raise WrongDimensionError(f"condition is specific to d=2, got d={f.d}")
    degree, separation = outgoing_pair_separation(f)
    collinear = separation <= COLLINEARITY_TOL  # False where separation is NaN
    violating = (np.flatnonzero((degree > 2) | collinear) + 1).tolist()
    return PersistenceCondition(not violating, violating)


def laplacian_spectrum(c: BearingConstraintSet) -> SpectrumSummary:
    """All eigenvalues of the bearing Laplacian of a constraint set.

    Sorted by real part (then imaginary part) ascending.  Whether directed
    bearing Laplacians always have nonnegative real parts is an open
    question; this probe reports, it never asserts.
    """
    eigs = np.linalg.eigvals(c.bearing_laplacian)
    eigs = eigs[np.lexsort((eigs.imag, eigs.real))]
    return SpectrumSummary(eigs, float(eigs.real.min()) if eigs.size else 0.0)


def predict_limit(
    c: BearingConstraintSet, p0: np.ndarray, tol_rel: float = DEFAULT_RANK_TOL
) -> LimitPrediction:
    """Steady state of pdot = -L p from p0, when the spectrum allows one.

    Valid only when the zero eigenvalue is semisimple and every nonzero
    eigenvalue has strictly positive real part; then the trajectory
    converges to the spectral projection of p0 onto the Laplacian null
    space.  Otherwise returns valid=False with the reason rather than
    extrapolating.
    """
    L = c.bearing_laplacian
    p0 = np.asarray(p0, dtype=float).reshape(-1)
    eigs = np.linalg.eigvals(L)
    zero_mask = np.abs(eigs) < ZERO_EIG_TOL
    try:
        P, nullity = spectral_projector_zero(L, tol_rel)
    except DefectiveZeroEigenvalueError:
        return LimitPrediction(None, False, "defective zero eigenvalue")
    if int(zero_mask.sum()) != nullity:
        return LimitPrediction(
            None, False, "defective zero eigenvalue (algebraic multiplicity exceeds geometric)"
        )
    nonzero = eigs[~zero_mask]
    if nonzero.size and float(nonzero.real.min()) < ZERO_EIG_TOL:
        reason = (
            "unstable spectrum: eigenvalue with negative real part"
            if float(nonzero.real.min()) < -ZERO_EIG_TOL
            else "marginal nonzero eigenvalue on the imaginary axis"
        )
        return LimitPrediction(None, False, reason)
    return LimitPrediction(P @ p0, True)


def classify(
    f: Formation, tol_rel: float = DEFAULT_RANK_TOL, mode: str = "positions"
) -> AnalysisReport:
    """Full rigidity/persistence/spectrum report for one formation.

    The Laplacian is built from the formation's own bearings, so the
    containment chain trivial-motions <= Null(R) <= Null(L) applies and its
    residuals are recorded.  The combined verdict (rigid and persistent) is
    cross-checked against the direct test that the Laplacian null space is
    exactly the (d+1)-dimensional trivial-motion span.
    """
    R = f.bearing_rigidity_matrix
    L = BearingConstraintSet.from_formation(f).bearing_laplacian
    dn = f.d * f.n
    rank_R = numeric_rank(R, tol_rel)
    rank_L = numeric_rank(L, tol_rel)
    null_R = nullspace_basis(R, tol_rel)
    null_L = nullspace_basis(L, tol_rel)
    trivial = f.trivial_motion_basis

    rigid = is_infinitesimally_bearing_rigid(f, tol_rel)
    persistent = is_bearing_persistent(f, tol_rel)

    direct = (dn - rank_L) == trivial.shape[1] and subspaces_equal(null_L, trivial)
    if (rigid and persistent) != direct:
        raise InconsistentRankTestsError(
            "combined rigid-and-persistent verdict disagrees with the direct "
            "Laplacian null-space test"
        )

    chain = (
        float(np.abs(R @ trivial).max()) if trivial.size else 0.0,
        float(np.abs(L @ null_R).max()) if null_R.size else 0.0,
        float(np.abs(L @ trivial).max()) if trivial.size else 0.0,
    )
    spectrum = laplacian_spectrum(BearingConstraintSet.from_formation(f))
    return AnalysisReport(
        n=f.n,
        d=f.d,
        m=f.m,
        rank_rigidity=rank_R,
        rank_laplacian=rank_L,
        nullity_rigidity=dn - rank_R,
        nullity_laplacian=dn - rank_L,
        is_rigid=rigid,
        is_persistent=persistent,
        null_chain_residuals=chain,
        eigenvalues=spectrum.eigenvalues,
        min_real_part=spectrum.min_real_part,
        trivial_space_dim=trivial.shape[1],
        null_basis_rigidity=null_R,
        null_basis_laplacian=null_L,
        mode=mode,
    )


def realize_constraints(
    c: BearingConstraintSet,
    seed: int = 0,
    tol: float = SUBSPACE_TOL,
    tol_rel: float = DEFAULT_RANK_TOL,
) -> Realization:
    """Synthesize positions whose edges are parallel to the given constraints.

    Searches the null space of the stacked constraint projectors applied to
    the expanded incidence matrix for a direction that is not a pure
    translation and keeps every edge nondegenerate.  Edge directions may
    come out flipped relative to the constraints; that never changes any
    projector, so the realization classifies identically.

    When no such direction exists the set is infeasible and `min_residual`
    reports how far the best non-translation shape stays from satisfying
    the constraints (smallest singular value over unit shapes orthogonal to
    the translations).  `tol_rel` is the relative rank tolerance that cuts
    that null space; the translation bases have equal singular values, so
    no tolerance changes them.
    """
    n, d = c.graph.n, c.d
    tails, heads = c.graph.tails, c.graph.heads
    A = edge_block_matrix(c.graph, c.edge_projectors)

    translations = span_basis(np.kron(np.ones(n), np.eye(d)).T)
    complement = nullspace_basis(translations.T)
    restricted = A @ complement
    svals = np.linalg.svd(restricted, compute_uv=False)
    min_residual = float(svals.min()) if svals.size else 0.0

    directions = complement @ nullspace_basis(restricted, tol_rel)
    if directions.shape[1] == 0:
        return Realization(None, False, min_residual)

    rng = np.random.default_rng(seed)
    for _ in range(16):
        candidate = directions @ rng.standard_normal(directions.shape[1])
        pts = candidate.reshape(n, d)
        lengths = np.linalg.norm(pts[heads] - pts[tails], axis=1)
        scale = np.linalg.norm(candidate)
        if scale > 0 and lengths.min() > 1e-6 * scale:
            positions = candidate * (2.0 / scale) * np.sqrt(n)
            parallel = c.satisfaction_residuals(positions)
            pts = positions.reshape(n, d)
            rel = float((parallel / np.linalg.norm(pts[heads] - pts[tails], axis=1)).max())
            if rel < tol:
                return Realization(positions, True, min_residual)
    # Some edge collapses on the entire admissible null space: no
    # configuration with well-defined bearings satisfies the constraints.
    return Realization(None, False, min_residual)
