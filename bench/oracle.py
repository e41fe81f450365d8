"""Independent reference computations for the benchmark's output checks.

Nothing here calls `bearingkit`: the rigidity matrix and bearing Laplacian
are rebuilt with array expressions from positions and an edge list, ranks
come from one singular-value decomposition each, and the closed-loop end
state from `scipy.linalg.expm`, the method `bearingkit.expm_oracle` uses.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

RANK_TOL = 1e-10  # bearingkit's default relative rank tolerance
VIOLATION_THRESHOLD = -1e-8  # a min real part below this is a violation


@dataclass
class Expected:
    rigidity: np.ndarray  # (d*m, d*n)
    laplacian: np.ndarray  # (d*n, d*n)
    rank_rigidity: int
    rank_laplacian: int
    is_rigid: bool
    is_persistent: bool
    min_real_part: float
    #: Decades between the rank tolerance and the nearest relative singular
    #: value of either matrix: how clearly both rank decisions are made.
    rank_margin: float


def _blocks_to_matrix(blocks: np.ndarray) -> np.ndarray:
    rows, cols, d, _ = blocks.shape
    return blocks.transpose(0, 2, 1, 3).reshape(rows * d, cols * d)


def _rank(M: np.ndarray) -> tuple[int, float]:
    """Numeric rank, and the decades between its cut and the nearest singular value."""
    s = np.linalg.svd(M, compute_uv=False)
    if not s.size or s[0] == 0:
        return 0, math.inf
    relative = s / s[0]
    with np.errstate(divide="ignore"):
        margin = float(np.abs(np.log10(relative / RANK_TOL)).min())
    return int(np.sum(relative > RANK_TOL)), margin


def matrices(points: np.ndarray, edges) -> tuple[np.ndarray, np.ndarray]:
    """Rigidity matrix and bearing Laplacian of an (n, d) point set.

    `edges` holds 1-based (tail, head) pairs.  Rigidity block (k, head) is
    P_k / |e_k| and block (k, tail) its negative; Laplacian block (i, j) is
    -P_k for edge k = (i, j) and block (i, i) sums P_k over i's out-edges.
    """
    n, d = points.shape
    tails, heads = (np.array(e) - 1 for e in zip(*edges))
    m = tails.size
    vectors = points[heads] - points[tails]
    lengths = np.linalg.norm(vectors, axis=1)
    g = vectors / lengths[:, None]
    P = np.eye(d) - g[:, :, None] * g[:, None, :]
    R = np.zeros((m, n, d, d))
    R[np.arange(m), heads] = P / lengths[:, None, None]
    R[np.arange(m), tails] = -P / lengths[:, None, None]
    L = np.zeros((n, n, d, d))
    np.add.at(L, (tails, heads), -P)
    np.add.at(L, (tails, tails), P)
    return _blocks_to_matrix(R), _blocks_to_matrix(L)


def expected(points: np.ndarray, edges) -> Expected:
    n, d = points.shape
    R, L = matrices(points, edges)
    (rank_R, margin_R), (rank_L, margin_L) = _rank(R), _rank(L)
    return Expected(
        rigidity=R,
        laplacian=L,
        rank_rigidity=rank_R,
        rank_laplacian=rank_L,
        is_rigid=rank_R == d * n - d - 1,
        is_persistent=rank_L == rank_R,
        min_real_part=float(np.linalg.eigvals(L).real.min()),
        rank_margin=min(margin_R, margin_L),
    )


def closed_loop(points: np.ndarray, edges, p0: np.ndarray, t: float) -> np.ndarray:
    """Exact state of pdot = -L p at time t from the stacked positions p0."""
    _, L = matrices(points, edges)
    return scipy.linalg.expm(-L * t) @ p0
