import tracemalloc

import numpy as np
import pytest

from bearingkit import (
    DefectiveZeroEigenvalueError,
    DimensionMismatchError,
    ZeroVectorError,
    numeric_rank,
    nullspace_basis,
    projector,
    span_basis,
    spectral_projector_zero,
    subspace_contains,
    subspaces_equal,
)


class TestProjector:
    def test_axis_aligned(self):
        assert np.allclose(projector([1.0, 0.0]), [[0.0, 0.0], [0.0, 1.0]])

    def test_diagonal_direction(self):
        # I - x x^T / |x|^2 for x = (1, 1), expanded by hand
        expected = [[0.5, -0.5], [-0.5, 0.5]]
        assert np.allclose(projector([1.0, 1.0]), expected, atol=1e-15)

    def test_annihilates_its_vector(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            d = int(rng.integers(2, 6))
            x = rng.standard_normal(d)
            assert np.linalg.norm(projector(x) @ x) < 1e-12

    def test_symmetric_idempotent_psd(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            d = int(rng.integers(2, 7))
            P = projector(rng.standard_normal(d))
            assert np.abs(P - P.T).max() < 1e-12
            assert np.linalg.norm(P @ P - P) < 1e-10
            eigs = np.sort(np.linalg.eigvalsh(P))
            expected = np.concatenate([[0.0], np.ones(d - 1)])
            assert np.abs(eigs - expected).max() < 1e-9

    def test_kernel_detects_parallel_vectors(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            d = int(rng.integers(2, 6))
            x = rng.standard_normal(d)
            P = projector(x)
            assert np.linalg.norm(P @ (3.7 * x)) < 1e-10
            y = rng.standard_normal(d)
            # almost surely not parallel
            if np.linalg.norm(P @ y) < 1e-10:
                assert np.linalg.norm(np.cross(x[:3], y[:3])) < 1e-8

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVectorError):
            projector([0.0, 0.0])
        with pytest.raises(ZeroVectorError):
            projector([1e-13, 0.0])

    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            projector([np.nan, 1.0])


def _shapes(rng):
    """30 small (rows, cols) draws, then 10 tall ones with up to 300 rows and
    at most 12 columns, then 10 wide ones, their transposes."""
    for _ in range(30):
        rows, cols = rng.integers(2, 9, size=2)
        yield int(rows), int(cols)
    for wide in (False, True):
        for _ in range(10):
            shape = int(rng.integers(13, 301)), int(rng.integers(2, 13))
            yield shape[::-1] if wide else shape


class TestNumericRank:
    def test_identity(self):
        assert numeric_rank(np.eye(3)) == 3

    def test_zero_matrix(self):
        assert numeric_rank(np.zeros((4, 4))) == 0

    def test_rank_one(self):
        # singular values of [[1,1],[1,1]] are {2, 0}
        assert numeric_rank([[1.0, 1.0], [1.0, 1.0]]) == 1

    def test_tolerance_knob(self):
        M = np.diag([1.0, 1e-6])
        assert numeric_rank(M) == 2
        assert numeric_rank(M, tol_rel=1e-3) == 1

    def test_nonfinite_rejected(self):
        with pytest.raises(ValueError):
            numeric_rank([[np.inf, 0.0], [0.0, 1.0]])


class TestNullspaceBasis:
    def test_full_rank_empty(self):
        assert nullspace_basis(np.eye(2)).shape == (2, 0)

    def test_one_dimensional(self):
        N = nullspace_basis([[1.0, 1.0]])
        assert N.shape == (2, 1)
        # orthogonal complement of (1, 1)
        assert abs(abs(N[:, 0] @ np.array([1.0, -1.0]) / np.sqrt(2)) - 1.0) < 1e-12

    def test_zero_matrix_full_basis(self):
        N = nullspace_basis(np.zeros((2, 2)))
        assert N.shape == (2, 2)
        assert np.allclose(N.T @ N, np.eye(2))

    def test_residual_and_orthonormality(self):
        rng = np.random.default_rng(17)
        for rows, cols in _shapes(rng):
            rank = int(rng.integers(1, min(rows, cols) + 1))
            M = rng.standard_normal((rows, rank)) @ rng.standard_normal((rank, cols))
            N = nullspace_basis(M)
            s_max = np.linalg.svd(M, compute_uv=False)[0]
            if N.shape[1]:
                assert np.abs(M @ N).max() < 1e-9 * s_max
                assert np.allclose(N.T @ N, np.eye(N.shape[1]), atol=1e-12)

    def test_rank_nullity_consistency(self):
        rng = np.random.default_rng(19)
        for rows, cols in _shapes(rng):
            rank = int(rng.integers(0, min(rows, cols) + 1))
            M = (rng.standard_normal((rows, rank)) @ rng.standard_normal((rank, cols))
                 if rank else np.zeros((rows, cols)))
            assert numeric_rank(M) + nullspace_basis(M).shape[1] == cols

    def test_tall_matrix_never_forms_left_factor(self):
        # The 6000 x 6000 left singular factor alone would take 288 MB.
        rng = np.random.default_rng(43)
        M = rng.standard_normal((6000, 3)) @ rng.standard_normal((3, 6))
        tracemalloc.start()
        try:
            N = nullspace_basis(M)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert N.shape == (6, 3)
        assert np.abs(M @ N).max() < 1e-9 * np.abs(M).max()
        assert peak < 20e6


class TestSubspaces:
    def test_full_space_contains_everything(self):
        rng = np.random.default_rng(23)
        B = span_basis(rng.standard_normal((5, 2)))
        assert subspace_contains(np.eye(5), B)

    def test_disjoint_axes(self):
        e1 = np.eye(3)[:, :1]
        e2 = np.eye(3)[:, 1:2]
        assert not subspace_contains(e1, e2)

    def test_linear_combination_contained(self):
        A = np.eye(3)[:, :2]
        B = np.array([[1.0], [1.0], [0.0]]) / np.sqrt(2)
        assert subspace_contains(A, B)
        assert not subspaces_equal(A, B)

    def test_basis_choice_irrelevant(self):
        rng = np.random.default_rng(29)
        raw = rng.standard_normal((6, 3))
        A = span_basis(raw)
        # a different orthonormal basis of the same span
        mix = raw @ rng.standard_normal((3, 3))
        B = span_basis(mix)
        assert subspaces_equal(A, B)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            subspace_contains(np.eye(3), np.eye(4))

    def test_span_basis_drops_dependent_columns(self):
        V = np.array([[1.0, 2.0], [0.0, 0.0], [1.0, 2.0]])
        assert span_basis(V).shape == (3, 1)


class TestSpectralProjectorZero:
    def test_symmetric_reduces_to_orthogonal(self):
        rng = np.random.default_rng(31)
        Q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        M = Q @ np.diag([0.0, 0.0, 1.0, 2.0, 3.0]) @ Q.T
        P, nullity = spectral_projector_zero(M)
        assert nullity == 2
        V = nullspace_basis(M)
        assert np.allclose(P, V @ V.T, atol=1e-10)
        assert np.abs(P - P.T).max() < 1e-10

    def test_asymmetric_two_by_two(self):
        # right null (1,0), left null (1,-1): oblique projector by hand
        M = np.array([[0.0, 1.0], [0.0, 1.0]])
        P, nullity = spectral_projector_zero(M)
        assert nullity == 1
        assert np.allclose(P, [[1.0, -1.0], [0.0, 0.0]], atol=1e-12)
        assert np.linalg.norm(P @ P - P) < 1e-8
        assert np.abs(M @ P).max() < 1e-12

    def test_invertible_gives_zero_matrix(self):
        P, nullity = spectral_projector_zero(np.diag([1.0, 2.0]))
        assert nullity == 0
        assert np.all(P == 0.0)

    def test_defective_zero_rejected(self):
        with pytest.raises(DefectiveZeroEigenvalueError):
            spectral_projector_zero(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_range_equals_nullspace(self):
        rng = np.random.default_rng(37)
        for _ in range(20):
            n = int(rng.integers(3, 8))
            k = int(rng.integers(1, n))
            S = rng.standard_normal((n, n)) + np.eye(n) * 3.0
            eigs = np.concatenate([np.zeros(k), rng.uniform(0.5, 3.0, n - k)])
            M = S @ np.diag(eigs) @ np.linalg.inv(S)  # semisimple by construction
            P, nullity = spectral_projector_zero(M)
            assert nullity == k
            assert np.linalg.norm(P @ P - P) < 1e-8
            range_basis = span_basis(P)
            assert subspaces_equal(range_basis, nullspace_basis(M), tol=1e-8)

    def test_non_square_rejected(self):
        with pytest.raises(DimensionMismatchError):
            spectral_projector_zero(np.zeros((2, 3)))
