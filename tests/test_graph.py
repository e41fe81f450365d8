import numpy as np
import pytest

from bearingkit import (
    DirectedGraph,
    expanded_incidence,
    incidence_matrix,
    is_weakly_connected,
    numeric_rank,
)

FIG2A_EDGES = ((1, 4), (1, 2), (2, 3), (3, 4), (2, 4))
FIG3A_EDGES = ((1, 4), (2, 1), (2, 3), (3, 4), (2, 4))


class TestDirectedGraph:
    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            DirectedGraph(3, ((1, 1),))

    def test_duplicate_edge_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            DirectedGraph(3, ((1, 2), (1, 2)))

    def test_reverse_edge_allowed(self):
        g = DirectedGraph(2, ((1, 2), (2, 1)))
        assert g.m == 2
        assert g.is_undirected

    def test_vertex_out_of_range(self):
        with pytest.raises(ValueError, match="outside"):
            DirectedGraph(3, ((1, 4),))

    def test_too_few_vertices(self):
        with pytest.raises(ValueError):
            DirectedGraph(1, ())

    def test_tails_and_heads_zero_based_in_edge_order(self):
        g = DirectedGraph(4, ((2, 1), (2, 3), (4, 2)))
        assert g.tails.tolist() == [1, 1, 3]
        assert g.heads.tolist() == [0, 2, 1]
        with pytest.raises(ValueError):
            g.tails[0] = 0  # cached and shared, so read-only

    def test_is_undirected_false_for_partial(self):
        assert not DirectedGraph(3, ((1, 2), (2, 1), (2, 3))).is_undirected


class TestIncidenceMatrix:
    def test_single_edge(self):
        H = incidence_matrix(DirectedGraph(2, ((1, 2),)))
        assert np.array_equal(H, [[-1.0, 1.0]])

    def test_path(self):
        H = incidence_matrix(DirectedGraph(3, ((1, 2), (2, 3))))
        assert np.array_equal(H, [[-1.0, 1.0, 0.0], [0.0, -1.0, 1.0]])

    def test_row_structure(self):
        H = incidence_matrix(DirectedGraph(4, FIG2A_EDGES))
        assert H.shape == (5, 4)
        for row in H:
            assert sorted(row) == [-1.0, 0.0, 0.0, 1.0]
            assert row.sum() == 0.0

    def test_rank_detects_connectivity(self):
        rng = np.random.default_rng(41)
        for _ in range(30):
            n = int(rng.integers(3, 8))
            mask = rng.random((n, n)) < 0.3
            edges = tuple(
                (i + 1, j + 1) for i in range(n) for j in range(n) if i != j and mask[i, j]
            )
            if not edges:
                continue
            g = DirectedGraph(n, edges)
            rank = numeric_rank(incidence_matrix(g))
            assert (rank == n - 1) == is_weakly_connected(g)


class TestExpandedIncidence:
    def test_single_edge_d2(self):
        M = expanded_incidence(DirectedGraph(2, ((1, 2),)), 2)
        assert np.array_equal(M, [[-1.0, 0.0, 1.0, 0.0], [0.0, -1.0, 0.0, 1.0]])

    def test_path_d2(self):
        M = expanded_incidence(DirectedGraph(3, ((1, 2), (2, 3))), 2)
        expected = [
            [-1.0, 0.0, 1.0, 0.0, 0.0, 0.0],
            [0.0, -1.0, 0.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, -1.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 0.0, -1.0, 0.0, 1.0],
        ]
        assert np.array_equal(M, expected)

    def test_annihilates_uniform_translations(self):
        rng = np.random.default_rng(43)
        g = DirectedGraph(4, FIG3A_EDGES)
        for d in (2, 3):
            M = expanded_incidence(g, d)
            v = rng.standard_normal(d)
            assert np.abs(M @ np.kron(np.ones(4), v)).max() == 0.0

    def test_rank_scales_with_dimension(self):
        g = DirectedGraph(4, FIG2A_EDGES)
        base = numeric_rank(incidence_matrix(g))
        for d in (2, 3, 4):
            assert numeric_rank(expanded_incidence(g, d)) == d * base

    def test_dimension_below_two_rejected(self):
        with pytest.raises(ValueError):
            expanded_incidence(DirectedGraph(2, ((1, 2),)), 1)


class TestConnectivity:
    def test_single_edge_connected(self):
        assert is_weakly_connected(DirectedGraph(2, ((1, 2),)))

    def test_isolated_vertex(self):
        assert not is_weakly_connected(DirectedGraph(3, ((1, 2),)))

    def test_fig2b_topology(self):
        assert is_weakly_connected(DirectedGraph(4, ((1, 4), (2, 1), (2, 3), (3, 4))))

    def test_direction_irrelevant(self):
        # all edges point at vertex 1; still weakly connected
        assert is_weakly_connected(DirectedGraph(4, ((2, 1), (3, 1), (4, 1))))

