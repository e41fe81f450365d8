"""Dense linear-algebra primitives used throughout the toolkit.

Everything here is dimension-generic and SVD-based: orthogonal projectors,
numeric rank at a relative tolerance, orthonormal null-space bases, subspace
comparison by projection residuals, and the (generally oblique) spectral
projector onto a zero eigenspace.

Rank and null space come from one private factorization that returns the
singular values and the full right basis and never forms the left factor.
A tall M (rows > cols) is first reduced to the cols-by-cols triangle of its
QR factorization, which has the same singular values and right singular
vectors, and only that triangle is decomposed (Chan's R-SVD, ACM TOMS 8(1),
1982).  For the d*m-by-d*n rigidity matrix this costs memory of order
d*n^2 instead of the d*m-by-d*m left factor, whose size grows with the
square of the edge count.
"""

from __future__ import annotations

import numpy as np

from .errors import (
    DefectiveZeroEigenvalueError,
    DimensionMismatchError,
    ZeroVectorError,
)

#: Default rank cutoff, relative to the largest singular value: the default
#: of every `tol_rel` in the toolkit.  Rigidity and persistence are rank
#: decisions, so the tolerance passed down decides every verdict.
DEFAULT_RANK_TOL = 1e-10

#: Vectors shorter than this cannot define a projection direction.
ZERO_VECTOR_TOL = 1e-12

#: Default residual tolerance for subspace containment checks.
SUBSPACE_TOL = 1e-8

#: Condition-number ceiling for the left/right null-space pairing matrix;
#: beyond this the zero eigenvalue is treated as defective.
DEFECTIVE_COND_LIMIT = 1e8


def check_rank_tolerance(tol: float) -> float:
    """`tol` as a float, or ValueError unless it lies in (0, 1)."""
    tol = float(tol)
    if not (0.0 < tol < 1.0):
        raise ValueError(f"rank tolerance must be in (0, 1), got {tol}")
    return tol


def as_matrix(M: np.ndarray) -> np.ndarray:
    """Coerce to a 2-D float array, rejecting NaN/Inf entries."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2:
        raise ValueError(f"expected a 2-D array, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise ValueError("matrix entries must be finite")
    return M


def projectors(X: np.ndarray) -> np.ndarray:
    """Stack of orthogonal projectors, one per row of the (k, d) array X.

    Entry i is I - x_i x_i^T / |x_i|^2 for row x_i, the symmetric
    idempotent matrix that annihilates x_i and fixes everything orthogonal
    to it.  Its eigenvalues are 0 (once) and 1 (d - 1 times).  Built for
    the whole stack with array operations; shape (k, d, d).
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise ValueError(f"expected a (k, d) array of vectors, got shape {X.shape}")
    if not np.all(np.isfinite(X)):
        raise ValueError("vector entries must be finite")
    norms = np.linalg.norm(X, axis=1)
    short = np.flatnonzero(norms <= ZERO_VECTOR_TOL)
    if short.size:
        raise ZeroVectorError(
            f"cannot project along a vector of norm {norms[short[0]]:.3e}"
        )
    outer = X[:, :, None] * X[:, None, :]
    return np.eye(X.shape[1]) - outer / (norms * norms)[:, None, None]


def projector(x: np.ndarray) -> np.ndarray:
    """Orthogonal projector onto the complement of a nonzero vector.

    Returns I - x x^T / |x|^2; the single-vector case of `projectors`.
    """
    return projectors(np.asarray(x, dtype=float).reshape(1, -1))[0]


def _svd_rank(s: np.ndarray, tol_rel: float) -> int:
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.sum(s > tol_rel * s[0]))


def _right_svd(M: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Singular values of M and its full right basis Vh (cols x cols).

    M's left factor is never formed: a tall M is replaced by the triangle
    of its QR factorization, which has the same singular values and right
    singular vectors, so only a cols-by-cols problem is decomposed.  M must
    have at least one row and one column.
    """
    if M.shape[0] > M.shape[1]:
        M = np.linalg.qr(M, mode="r")
    _, s, vh = np.linalg.svd(M, full_matrices=True)
    return s, vh


def numeric_rank(M: np.ndarray, tol_rel: float = DEFAULT_RANK_TOL) -> int:
    """Number of singular values above tol_rel times the largest one."""
    M = as_matrix(M)
    if min(M.shape) == 0:
        return 0
    s, _ = _right_svd(M)
    return _svd_rank(s, tol_rel)


def nullspace_basis(M: np.ndarray, tol_rel: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """Orthonormal basis of the right null space, columns as basis vectors.

    Shape is (cols, nullity).  Rank and basis come from the same
    factorization as `numeric_rank`, so the nullity is cols - numeric_rank(M)
    at the same tolerance by construction.  A tall M is reduced by QR first
    and M's left factor is never formed, so the working memory is of order
    cols^2 rather than rows^2 (for the rigidity matrix, d*n^2 rather than
    d*m^2).
    """
    M = as_matrix(M)
    n = M.shape[1]
    if M.shape[0] == 0 or n == 0:
        return np.eye(n)
    s, vh = _right_svd(M)
    rank = _svd_rank(s, tol_rel)
    return vh[rank:].T.copy()


def span_basis(vectors: np.ndarray, tol_rel: float = DEFAULT_RANK_TOL) -> np.ndarray:
    """Orthonormal basis of the column span of `vectors` (possibly dependent)."""
    V = as_matrix(vectors)
    if V.shape[1] == 0:
        return V.copy()
    u, s, _ = np.linalg.svd(V, full_matrices=False)
    rank = _svd_rank(s, tol_rel)
    return u[:, :rank].copy()


def containment_residual(A: np.ndarray, B: np.ndarray) -> float:
    """Largest residual of B's columns after projecting onto span(A).

    A and B hold orthonormal basis vectors as columns in the same ambient
    space.  Zero means span(B) is contained in span(A).
    """
    A = as_matrix(A)
    B = as_matrix(B)
    if A.shape[0] != B.shape[0]:
        raise DimensionMismatchError(
            f"ambient dimensions differ: {A.shape[0]} vs {B.shape[0]}"
        )
    if B.shape[1] == 0:
        return 0.0
    residual = B - A @ (A.T @ B)
    return float(np.linalg.norm(residual, axis=0).max())


def subspace_contains(A: np.ndarray, B: np.ndarray, tol: float = SUBSPACE_TOL) -> bool:
    """True when every basis vector of B lies in span(A) up to `tol`."""
    return containment_residual(A, B) < tol


def subspaces_equal(A: np.ndarray, B: np.ndarray, tol: float = SUBSPACE_TOL) -> bool:
    """Mutual containment at `tol`; basis choice does not matter."""
    return subspace_contains(A, B, tol) and subspace_contains(B, A, tol)


def spectral_projector_zero(
    M: np.ndarray, tol_rel: float = DEFAULT_RANK_TOL
) -> tuple[np.ndarray, int]:
    """Projector onto the zero eigenspace of a square matrix M.

    Built as V (W^T V)^-1 W^T from right (V) and left (W) null-space bases,
    which avoids complex arithmetic entirely.  The result is idempotent,
    annihilated by M, and generally oblique; for symmetric M it reduces to
    the orthogonal projector onto the null space.

    Returns (P, nullity).  A matrix with no zero eigenvalue yields the zero
    matrix and nullity 0.  Raises DefectiveZeroEigenvalueError when W^T V is
    singular at the configured conditioning limit, which happens exactly
    when the zero eigenvalue has fewer eigenvectors than its multiplicity.
    """
    M = as_matrix(M)
    if M.shape[0] != M.shape[1]:
        raise DimensionMismatchError(f"matrix must be square, got {M.shape}")
    V = nullspace_basis(M, tol_rel)
    k = V.shape[1]
    if k == 0:
        return np.zeros_like(M), 0
    W = nullspace_basis(M.T, tol_rel)
    # Row rank equals column rank, so W always has k columns as well.
    C = W.T @ V
    s = np.linalg.svd(C, compute_uv=False)
    if s[-1] == 0.0 or s[0] / s[-1] > DEFECTIVE_COND_LIMIT:
        raise DefectiveZeroEigenvalueError(
            "zero eigenvalue is defective: left/right null spaces are "
            f"(numerically) orthogonal, cond(W^T V) > {DEFECTIVE_COND_LIMIT:.0e}"
        )
    return V @ np.linalg.solve(C, W.T), k
