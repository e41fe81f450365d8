"""Formations, bearing constraint sets, and the matrices built from them.

A formation binds a directed graph to agent positions in R^d.  From it we
derive the stacked edge vectors, the unit bearings, and the bearing rigidity
matrix (the Jacobian of the stacked bearings with respect to the stacked
positions).  A bearing constraint set carries per-edge desired unit bearings
and yields the bearing Laplacian, the matrix-weighted graph Laplacian that
drives the closed-loop dynamics.

All per-edge work is array work over the graph's 0-based `tails`/`heads`
index arrays: edge vectors are `points[heads] - points[tails]`, and the
rigidity matrix and Laplacian are scattered block by block from one stack
of edge projectors, never through a dense Kronecker-expanded incidence
matrix or a scan of the edge list per agent.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegenerateEdgeError, DimensionMismatchError
from .graph import DirectedGraph
from .linalg import projectors, span_basis

#: Edges shorter than this have numerically meaningless bearings.
DEGENERATE_EDGE_TOL = 1e-9

#: How far a supplied constraint bearing may deviate from unit length.
UNIT_BEARING_TOL = 1e-12


def _check_stacked(p: np.ndarray, n: int, d: int) -> np.ndarray:
    p = np.asarray(p, dtype=float).reshape(-1)
    if p.size != n * d:
        raise DimensionMismatchError(
            f"stacked positions must have length {n * d}, got {p.size}"
        )
    if not np.all(np.isfinite(p)):
        raise ValueError("positions must be finite")
    return p


def edge_block_matrix(graph: DirectedGraph, blocks: np.ndarray) -> np.ndarray:
    """(d*m, d*n) matrix whose block row k is blocks[k] applied to edge k.

    Block (k, head of k) is blocks[k] and block (k, tail of k) is
    -blocks[k]; every other block is zero.  This is the block-diagonal
    stack of `blocks` times the expanded incidence matrix, built by
    scattering into the two nonzero blocks of each row.
    """
    m, d, _ = blocks.shape
    M = np.zeros((m, d, graph.n, d))
    k = np.arange(m)
    M[k, :, graph.heads, :] = blocks
    M[k, :, graph.tails, :] -= blocks
    return M.reshape(m * d, graph.n * d)


@dataclass(frozen=True, eq=False)
class Formation:
    """A directed graph with stacked agent positions p in R^(d*n).

    Agent i occupies components (i-1)*d .. i*d-1 of p.  Construction fails
    with DegenerateEdgeError if any edge is shorter than the degeneracy
    threshold, so bearings are always well defined on a live instance.
    Instances are immutable; derived matrices are computed once and cached.
    """

    graph: DirectedGraph
    d: int
    p: np.ndarray

    def __post_init__(self):
        if self.d < 2:
            raise ValueError(f"dimension must be >= 2, got {self.d}")
        p = _check_stacked(self.p, self.graph.n, self.d)
        object.__setattr__(self, "p", p)
        short = np.flatnonzero(self.edge_lengths <= DEGENERATE_EDGE_TOL)
        if short.size:
            k = int(short[0])
            i, j = self.graph.edges[k]
            raise DegenerateEdgeError(k, i, j, float(self.edge_lengths[k]))

    @classmethod
    def from_points(cls, graph: DirectedGraph, points: np.ndarray) -> "Formation":
        """Build from an (n, d) array of agent positions."""
        points = np.asarray(points, dtype=float)
        if points.ndim != 2 or points.shape[0] != graph.n:
            raise DimensionMismatchError(
                f"expected a ({graph.n}, d) position array, got shape {points.shape}"
            )
        return cls(graph, points.shape[1], points.reshape(-1))

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def m(self) -> int:
        return self.graph.m

    @property
    def points(self) -> np.ndarray:
        """Positions as an (n, d) array (a reshaped view of p)."""
        return self.p.reshape(self.graph.n, self.d)

    @cached_property
    def edge_vectors(self) -> np.ndarray:
        """Stacked edge vectors (head minus tail), length d*m."""
        points = self.points
        return (points[self.graph.heads] - points[self.graph.tails]).reshape(-1)

    @cached_property
    def edge_lengths(self) -> np.ndarray:
        return np.linalg.norm(self.edge_vectors.reshape(self.m, self.d), axis=1)

    @cached_property
    def bearings(self) -> np.ndarray:
        """Stacked unit bearings, length d*m: the bearing function at p."""
        e = self.edge_vectors.reshape(self.m, self.d)
        return (e / self.edge_lengths[:, None]).reshape(-1)

    @cached_property
    def bearing_rigidity_matrix(self) -> np.ndarray:
        """Jacobian of the stacked bearings with respect to p, shape (dm, dn).

        Closed form: block-diagonal stack of P_g_k / |e_k| applied to the
        expanded incidence matrix, where P is the orthogonal projector that
        annihilates the bearing of edge k.  Built by `edge_block_matrix`,
        which writes P_g_k / |e_k| into block (k, head) and its negative
        into block (k, tail).
        """
        g = self.bearings.reshape(self.m, self.d)
        blocks = projectors(g) / self.edge_lengths[:, None, None]
        return edge_block_matrix(self.graph, blocks)

    @cached_property
    def trivial_motion_basis(self) -> np.ndarray:
        """Orthonormal basis of the translations-plus-scaling span, (dn, d+1).

        Spanned by the d columns of ones-kron-identity together with p
        itself; these directions never change any bearing.  The span has
        dimension d + 1 on every nondegenerate formation, so it is cut at
        the default rank tolerance, never at a caller's `tol_rel`: a coarse
        cut would drop p for a formation far from the origin and make the
        verdicts depend on translation.
        """
        translations = np.kron(np.ones(self.graph.n), np.eye(self.d)).T
        return span_basis(np.column_stack([translations, self.p]))

    def translated(self, t: np.ndarray) -> "Formation":
        """New formation with every agent shifted by the d-vector t."""
        t = np.asarray(t, dtype=float).reshape(-1)
        if t.size != self.d:
            raise DimensionMismatchError(f"translation must have length {self.d}")
        return Formation(self.graph, self.d, self.p + np.tile(t, self.graph.n))

    def scaled(self, factor: float) -> "Formation":
        """New formation with positions scaled about the origin."""
        return Formation(self.graph, self.d, float(factor) * self.p)


@dataclass(frozen=True, eq=False)
class BearingConstraintSet:
    """Per-edge desired unit bearings defining a target formation shape.

    Targets are usually produced from a realizing formation, but raw unit
    vectors are accepted too, which is why this is a type of its own.
    """

    graph: DirectedGraph
    d: int
    bearings: np.ndarray  # (m, d), unit rows in edge order

    def __post_init__(self):
        if self.d < 2:
            raise ValueError(f"dimension must be >= 2, got {self.d}")
        b = np.asarray(self.bearings, dtype=float)
        if b.shape != (self.graph.m, self.d):
            raise DimensionMismatchError(
                f"bearings must have shape ({self.graph.m}, {self.d}), got {b.shape}"
            )
        if not np.all(np.isfinite(b)):
            raise ValueError("bearings must be finite")
        norms = np.linalg.norm(b, axis=1)
        bad = np.where(np.abs(norms - 1.0) > UNIT_BEARING_TOL)[0]
        if bad.size:
            k = int(bad[0])
            raise ValueError(
                f"bearing {k} has norm {norms[k]:.15g}; constraints must be unit vectors"
            )
        object.__setattr__(self, "bearings", b)

    @classmethod
    def from_formation(cls, f: Formation) -> "BearingConstraintSet":
        """Constraint set realized by a formation's own bearings."""
        return cls(f.graph, f.d, f.bearings.reshape(f.m, f.d))

    @property
    def n(self) -> int:
        return self.graph.n

    @property
    def m(self) -> int:
        return self.graph.m

    @cached_property
    def edge_projectors(self) -> np.ndarray:
        """(m, d, d) stack of orthogonal projectors, one per constraint bearing."""
        return projectors(self.bearings)

    @cached_property
    def bearing_laplacian(self) -> np.ndarray:
        """Matrix-weighted graph Laplacian of the constraints, shape (dn, dn).

        Off-diagonal block (i, j) is minus the projector of edge (i, j);
        diagonal block i sums the projectors of agent i's outgoing edges.
        An agent with no outgoing edges contributes an all-zero block row,
        which is what makes the matrix asymmetric for directed graphs.
        Built from the tails/heads arrays: the off-diagonal blocks are
        written directly (no directed edge repeats), and the diagonal
        blocks are summed with `np.add.at` in edge order.
        """
        n, d = self.graph.n, self.d
        tails, heads = self.graph.tails, self.graph.heads
        P = self.edge_projectors
        L = np.zeros((n, d, n, d))
        L[tails, :, heads, :] -= P
        np.add.at(L, (tails, slice(None), tails, slice(None)), P)
        return L.reshape(d * n, d * n)

    def satisfaction_residuals(self, p: np.ndarray) -> np.ndarray:
        """Per-edge norms of the constraint projectors applied to p_i - p_j.

        Zero exactly when the relative position of each constrained pair is
        parallel to its desired bearing.  Well defined for any p, including
        configurations with coincident agents.
        """
        return self._residuals(p)[0]

    def bearing_error(self, p: np.ndarray) -> float:
        """Sum of the satisfaction residuals, or NaN if p has a degenerate edge.

        The trajectory metric of `simulate`: bearings are undefined on an
        edge shorter than DEGENERATE_EDGE_TOL, so the error is NaN there
        (the dynamics themselves stay well defined).
        """
        residuals, lengths = self._residuals(p)
        if lengths.size and lengths.min() < DEGENERATE_EDGE_TOL:
            return float("nan")
        return float(residuals.sum())

    def _residuals(self, p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per-edge (|P_k (p_i - p_j)|, |p_i - p_j|) for edges k = (i, j)."""
        p = _check_stacked(p, self.graph.n, self.d)
        pts = p.reshape(self.graph.n, self.d)
        rel = pts[self.graph.tails] - pts[self.graph.heads]
        projected = np.einsum("kab,kb->ka", self.edge_projectors, rel)
        return np.linalg.norm(projected, axis=1), np.linalg.norm(rel, axis=1)
