import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bearingkit import (
    BearingConstraintSet,
    DegenerateEdgeError,
    DirectedGraph,
    Formation,
    WrongDimensionError,
    check_bearing_equivalence,
    classify,
    is_bearing_persistent,
    is_infinitesimally_bearing_rigid,
    laplacian_spectrum,
    list_fixtures,
    nullspace_basis,
    predict_limit,
    realize_constraints,
    subspaces_equal,
    sufficient_persistence_2d,
)
from bearingkit.conjecture import random_capped_formation, random_formation
from bearingkit.simulation import expm_oracle


class TestRigidity:
    def test_square_fixtures_rigid(self, formations):
        assert is_infinitesimally_bearing_rigid(formations["fig2a"])
        assert is_infinitesimally_bearing_rigid(formations["fig3a"])

    def test_four_cycle_not_rigid(self, formations):
        assert not is_infinitesimally_bearing_rigid(formations["fig2b"])

    def test_two_agents_single_edge_rigid(self):
        f = Formation.from_points(DirectedGraph(2, ((1, 2),)), [[0.0, 0.0], [1.0, 0.0]])
        # rank must hit 2*2 - 2 - 1 = 1: only translation and scale remain
        assert is_infinitesimally_bearing_rigid(f)


class TestPersistence:
    def test_fig2a_persistent(self, formations):
        assert is_bearing_persistent(formations["fig2a"])

    def test_fig3a_not_persistent(self, formations):
        f = formations["fig3a"]
        assert not is_bearing_persistent(f)
        report = classify(f)
        assert (report.nullity_laplacian, report.nullity_rigidity) == (4, 3)

    def test_undirected_always_persistent(self):
        rng = np.random.default_rng(97)
        for _ in range(15):
            f = random_formation(rng, int(rng.integers(3, 7)), int(rng.integers(2, 4)),
                                 graph_model="erdos-renyi-undirected")
            assert is_bearing_persistent(f)


class TestEquivalence:
    def test_self_equivalent(self, formations):
        f = formations["fig2a"]
        result = check_bearing_equivalence(f, f.p)
        assert result.equivalent
        assert result.max_edge_residual < 1e-12
        assert np.all(result.edge_signs == 1.0)

    def test_scaled_translated_equivalent(self, formations):
        f = formations["fig2a"]
        q = 2.0 * f.p + np.tile([5.0, -3.0], f.n)
        result = check_bearing_equivalence(f, q)
        assert result.equivalent
        assert np.all(result.edge_signs == 1.0)

    def test_point_reflection_equivalent_with_flipped_signs(self, formations):
        fa, fb = formations["fig1a"], formations["fig1b"]
        result = check_bearing_equivalence(fa, fb.p)
        assert result.equivalent
        assert np.all(result.edge_signs == -1.0)

    def test_generic_positions_not_equivalent(self, formations):
        f = formations["fig2a"]
        rng = np.random.default_rng(101)
        result = check_bearing_equivalence(f, rng.uniform(-2, 2, size=f.d * f.n))
        assert not result.equivalent

    def test_symmetry(self, formations):
        # parallelism is symmetric: checking f against q agrees with
        # checking the q-formation against f's positions
        f = formations["fig2a"]
        rng = np.random.default_rng(103)
        for _ in range(10):
            q = rng.uniform(-2, 2, size=f.d * f.n)
            forward = check_bearing_equivalence(f, q)
            backward = check_bearing_equivalence(Formation(f.graph, f.d, q), f.p)
            assert forward.equivalent == backward.equivalent

    def test_degenerate_candidate_rejected(self, formations):
        f = formations["fig2a"]
        with pytest.raises(DegenerateEdgeError):
            check_bearing_equivalence(f, np.zeros(f.d * f.n))


class TestSufficientCondition2d:
    def test_fig2a_holds(self, formations):
        result = sufficient_persistence_2d(formations["fig2a"])
        assert result.condition_holds
        assert result.violating_agents == []

    def test_fig2b_holds(self, formations):
        assert sufficient_persistence_2d(formations["fig2b"]).condition_holds

    def test_fig3a_fails_on_out_degree(self, formations):
        result = sufficient_persistence_2d(formations["fig3a"])
        assert not result.condition_holds
        assert result.violating_agents == [2]  # three outgoing constraints

    def test_fig3b_fails_on_collinearity(self, formations):
        result = sufficient_persistence_2d(formations["fig3b"])
        assert not result.condition_holds
        assert 3 in result.violating_agents  # two exactly opposite bearings

    def test_matches_per_agent_scan(self, formations):
        def reference(f):
            g = f.bearings.reshape(f.m, f.d)
            violating = []
            for i in range(1, f.n + 1):
                ks = [k for k, (a, _) in enumerate(f.graph.edges) if a == i]
                if len(ks) > 2:
                    violating.append(i)
                elif len(ks) == 2:
                    a, b = g[ks[0]], g[ks[1]]
                    if np.linalg.norm(b - (a @ b) * a) <= 1e-9:
                        violating.append(i)
            return violating

        rng = np.random.default_rng(109)
        cases = [f for f in formations.values() if f.d == 2]
        cases += [random_formation(rng, int(rng.integers(3, 9)), 2) for _ in range(20)]
        cases += [random_capped_formation(rng, int(rng.integers(3, 9))) for _ in range(10)]
        for f in cases:
            assert sufficient_persistence_2d(f).violating_agents == reference(f)

    def test_wrong_dimension(self):
        rng = np.random.default_rng(107)
        f = random_formation(rng, 4, 3)
        with pytest.raises(WrongDimensionError):
            sufficient_persistence_2d(f)

    def test_implies_persistence(self):
        rng = np.random.default_rng(109)
        for _ in range(30):
            f = random_capped_formation(rng, int(rng.integers(3, 8)))
            assert sufficient_persistence_2d(f).condition_holds
            assert is_bearing_persistent(f)


class TestSpectrum:
    def test_undirected_real_nonnegative(self):
        rng = np.random.default_rng(113)
        f = random_formation(rng, 5, 2, graph_model="erdos-renyi-undirected")
        summary = laplacian_spectrum(BearingConstraintSet.from_formation(f))
        assert np.abs(summary.eigenvalues.imag).max() < 1e-10
        assert summary.min_real_part >= -1e-10

    def test_single_edge_spectrum(self):
        c = BearingConstraintSet(DirectedGraph(2, ((1, 2),)), 2, np.array([[1.0, 0.0]]))
        summary = laplacian_spectrum(c)
        assert np.allclose(np.sort(summary.eigenvalues.real), [0.0, 0.0, 0.0, 1.0],
                           atol=1e-12)
        assert np.abs(summary.eigenvalues.imag).max() < 1e-12

    def test_fig3a_regression_values(self, formations):
        # nullity 4 and nonzero eigenvalues {1, 1, 1, 2}, all real
        summary = laplacian_spectrum(
            BearingConstraintSet.from_formation(formations["fig3a"])
        )
        assert summary.count_zero() == 4
        nonzero = np.sort(summary.eigenvalues[np.abs(summary.eigenvalues) > 1e-8].real)
        assert np.allclose(nonzero, [1.0, 1.0, 1.0, 2.0], atol=1e-9)
        assert np.abs(summary.eigenvalues.imag).max() < 1e-9

    def test_fig2a_slow_mode(self, formations):
        # slowest stable mode 1 - sqrt(2)/2, fastest 1 + sqrt(2)/2
        summary = laplacian_spectrum(
            BearingConstraintSet.from_formation(formations["fig2a"])
        )
        nonzero = np.sort(summary.eigenvalues[np.abs(summary.eigenvalues) > 1e-8].real)
        expected = [1 - np.sqrt(2) / 2, 1.0, 1.0, 1.0, 1 + np.sqrt(2) / 2]
        assert np.allclose(nonzero, expected, atol=1e-9)

    def test_sorted_by_real_part(self, formations):
        for f in formations.values():
            eigs = laplacian_spectrum(BearingConstraintSet.from_formation(f)).eigenvalues
            assert np.all(np.diff(eigs.real) >= -1e-15)

    def test_zero_count_matches_nullity(self):
        rng = np.random.default_rng(127)
        from bearingkit import DefectiveZeroEigenvalueError, spectral_projector_zero

        for _ in range(20):
            f = random_formation(rng, int(rng.integers(3, 7)), 2)
            c = BearingConstraintSet.from_formation(f)
            try:
                _, nullity = spectral_projector_zero(c.bearing_laplacian)
            except DefectiveZeroEigenvalueError:
                continue  # the consistency claim applies to semisimple cases
            assert laplacian_spectrum(c).count_zero() == nullity


class TestPredictLimit:
    def test_fixed_point_of_null_space(self, formations):
        f = formations["fig2a"]
        c = BearingConstraintSet.from_formation(f)
        result = predict_limit(c, f.p)  # target satisfies its own constraints
        assert result.valid
        assert np.linalg.norm(result.p_inf - f.p) < 1e-9

    def test_undirected_is_orthogonal_projection(self):
        rng = np.random.default_rng(131)
        f = random_formation(rng, 4, 2, graph_model="erdos-renyi-undirected")
        c = BearingConstraintSet.from_formation(f)
        p0 = rng.uniform(-2, 2, size=f.d * f.n)
        result = predict_limit(c, p0)
        assert result.valid
        N = nullspace_basis(c.bearing_laplacian)
        assert np.allclose(result.p_inf, N @ (N.T @ p0), atol=1e-8)

    def test_matches_long_horizon_oracle(self, fixtures):
        s = fixtures["fig2a"]
        c = s.constraint_set()
        p0, _ = s.initial_positions(seed=1)
        result = predict_limit(c, p0)
        assert result.valid
        assert np.linalg.norm(c.bearing_laplacian @ result.p_inf) < 1e-9
        far = expm_oracle(c, p0, 200.0)
        assert np.linalg.norm(far - result.p_inf) < 1e-10

    def test_unstable_spectrum_refused(self):
        # directed formation with a provably negative-real-part eigenvalue
        g = DirectedGraph(4, ((1, 2), (2, 4), (3, 1), (4, 1), (4, 2), (4, 3)))
        pts = np.array([
            [0.5467325914955219, -0.3531934102788967],
            [-1.0726694994088115, -1.757272006853281],
            [-0.21153720291434563, 1.1547851055589633],
            [-0.018071983702612204, -0.9770913110336061],
        ])
        f = Formation.from_points(g, pts)
        c = BearingConstraintSet.from_formation(f)
        assert laplacian_spectrum(c).min_real_part < -1e-3
        result = predict_limit(c, f.p + 0.1)
        assert not result.valid
        assert "unstable" in result.reason


class TestClassify:
    def test_two_by_two_verdict_table(self, formations):
        expected = {
            "fig2a": (True, True),
            "fig2b": (False, True),
            "fig3a": (True, False),
            "fig3b": (False, False),
        }
        for name, (rigid, persistent) in expected.items():
            report = classify(formations[name])
            assert (report.is_rigid, report.is_persistent) == (rigid, persistent), name

    def test_counts_and_residuals(self, formations):
        report = classify(formations["fig2a"])
        assert (report.n, report.d, report.m) == (4, 2, 5)
        assert report.rank_rigidity == 5
        assert report.trivial_space_dim == 3
        assert max(report.null_chain_residuals) < 1e-12

    def test_nullity_ordering_invariant(self):
        rng = np.random.default_rng(137)
        for _ in range(25):
            f = random_formation(rng, int(rng.integers(3, 8)), int(rng.integers(2, 4)))
            report = classify(f)
            assert report.nullity_rigidity <= report.nullity_laplacian
            if report.is_persistent:
                assert report.nullity_rigidity == report.nullity_laplacian

    def test_rigid_and_persistent_iff_minimal_null_space(self):
        rng = np.random.default_rng(139)
        for _ in range(25):
            f = random_formation(rng, int(rng.integers(3, 7)), 2)
            report = classify(f)
            minimal = (
                report.nullity_laplacian == f.d + 1
                and subspaces_equal(report.null_basis_laplacian, f.trivial_motion_basis)
            )
            assert (report.is_rigid and report.is_persistent) == minimal

    def test_triangle_cycle_rigid_and_persistent(self, formations):
        for name in ("fig1a", "fig1b"):
            report = classify(formations[name])
            assert report.is_rigid and report.is_persistent


_shift = st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False)


def _verdicts(report):
    return (report.rank_rigidity, report.rank_laplacian, report.trivial_space_dim,
            report.is_rigid, report.is_persistent)


class TestVerdictInvariance:
    """R and L change only by orthogonal factors and a uniform scale under
    a similarity, a relabelling of the agents or a reordering of the edges,
    so no verdict may change, at the default or at a coarse tolerance."""

    @settings(derandomize=True, deadline=None, database=None, max_examples=150)
    @given(
        name=st.sampled_from(list_fixtures()),
        shift=st.tuples(_shift, _shift),
        scale=st.floats(0.01, 100.0),
        angle=st.floats(-np.pi, np.pi),
        data=st.data(),
    )
    def test_similarity_relabelling_and_edge_order(
        self, formations, name, shift, scale, angle, data
    ):
        f = formations[name]
        relabel = data.draw(st.permutations(range(f.n)), label="relabel")
        order = data.draw(st.permutations(range(f.m)), label="edge order")
        rotation = np.array([[np.cos(angle), -np.sin(angle)],
                             [np.sin(angle), np.cos(angle)]])
        points = np.empty_like(f.points)
        points[relabel] = scale * f.points @ rotation.T + np.array(shift)
        edges = tuple((relabel[i - 1] + 1, relabel[j - 1] + 1)
                      for i, j in (f.graph.edges[k] for k in order))
        moved = Formation.from_points(DirectedGraph(f.n, edges), points)
        for tol_rel in (1e-10, 1e-3):
            assert _verdicts(classify(moved, tol_rel)) == _verdicts(classify(f, tol_rel))


class TestRealizeConstraints:
    def test_realizes_square_constraints(self, formations):
        f = formations["fig2a"]
        c = BearingConstraintSet.from_formation(f)
        result = realize_constraints(c)
        assert result.feasible
        realized = Formation(f.graph, f.d, result.positions)
        report = classify(realized, mode="realized-from-constraints")
        assert report.is_rigid and report.is_persistent
        assert check_bearing_equivalence(f, result.positions).equivalent

    def test_infeasible_perpendicular_pair(self):
        g = DirectedGraph(2, ((1, 2), (2, 1)))
        c = BearingConstraintSet(g, 2, np.array([[1.0, 0.0], [0.0, 1.0]]))
        result = realize_constraints(c)
        assert not result.feasible
        assert result.min_residual > 0.1

    def test_realization_of_nonrigid_constraints(self, formations):
        c = BearingConstraintSet.from_formation(formations["fig2b"])
        result = realize_constraints(c)
        assert result.feasible
        realized = Formation(c.graph, c.d, result.positions)
        report = classify(realized)
        assert not report.is_rigid and report.is_persistent
