import numpy as np
import pytest

from bearingkit import (
    BearingConstraintSet,
    ConfigError,
    DirectedGraph,
    Formation,
    NotConvergedError,
    SimulationConfig,
    expm_oracle,
    final_shape_check,
    predict_limit,
    simulate,
    step_agentwise,
)
from bearingkit.conjecture import random_formation


class TestConfig:
    def test_defaults_valid(self):
        cfg = SimulationConfig()
        assert cfg.dt == 0.01 and cfg.t_max == 50.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"dt": 0.0},
            {"dt": -1.0},
            {"t_max": 0.001, "dt": 0.01},
            {"integrator": "leapfrog"},
            {"record_stride": 0},
            {"convergence_threshold": 0.0},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            SimulationConfig(**kwargs)


class TestStepAgentwise:
    def test_matches_matrix_form(self):
        rng = np.random.default_rng(149)
        for _ in range(10):
            f = random_formation(rng, int(rng.integers(3, 7)), 2)
            c = BearingConstraintSet.from_formation(f)
            p = rng.uniform(-2, 2, size=f.d * f.n)
            agentwise = step_agentwise(c, p, 0.01)
            matrix = p - 0.01 * (c.bearing_laplacian @ p)
            assert np.abs(agentwise - matrix).max() < 1e-12

    def test_satisfied_constraints_stationary(self, formations):
        f = formations["fig2a"]
        c = BearingConstraintSet.from_formation(f)
        assert np.abs(step_agentwise(c, f.p, 0.05) - f.p).max() < 1e-12

    def test_agent_without_out_edges_fixed(self, formations):
        c = BearingConstraintSet.from_formation(formations["fig2a"])
        rng = np.random.default_rng(151)
        p = rng.uniform(-2, 2, size=8)
        stepped = step_agentwise(c, p, 0.1)
        assert np.array_equal(stepped[6:8], p[6:8])  # agent 4 is a sink


class TestSimulate:
    def test_constant_from_target(self, formations):
        f = formations["fig2a"]
        c = BearingConstraintSet.from_formation(f)
        traj = simulate(c, f.p, SimulationConfig(t_max=1.0))
        assert np.abs(traj.positions - f.p).max() < 1e-12
        assert np.nanmax(traj.bearing_error) < 1e-12
        assert traj.converged_at == 0.0

    def test_converged_control_norm_below_threshold(self, fixtures):
        s = fixtures["fig3a"]
        traj = simulate(s.constraint_set(), s.initial_positions(seed=1)[0])
        assert traj.converged_at is not None
        assert traj.control_norm[-1] < traj.config.convergence_threshold

    def test_times_strictly_increasing_and_lengths_match(self, fixtures):
        s = fixtures["fig1a"]
        traj = simulate(s.constraint_set(), s.initial_positions(seed=3)[0],
                        SimulationConfig(t_max=2.0, record_stride=7))
        assert np.all(np.diff(traj.times) > 0)
        assert traj.times[-1] == pytest.approx(2.0)
        count = len(traj.times)
        assert traj.positions.shape[0] == count
        assert len(traj.control_norm) == len(traj.bearing_error) == count

    def test_integrators_agree_on_all_fixtures(self, fixtures):
        for name, s in fixtures.items():
            c = s.constraint_set()
            p0, _ = s.initial_positions()
            results = {}
            for integrator, dt in (("euler", 1e-3), ("rk4", 0.01), ("expm-oracle", 0.01)):
                cfg = SimulationConfig(dt=dt, t_max=10.0, integrator=integrator)
                results[integrator] = simulate(c, p0, cfg).final_positions
            for integrator in ("euler", "rk4"):
                diff = np.abs(results[integrator] - results["expm-oracle"]).max()
                assert diff < 1e-5, f"{name}/{integrator}: {diff:.3e}"

    def test_undirected_energy_monotone(self):
        rng = np.random.default_rng(157)
        f = random_formation(rng, 5, 2, graph_model="erdos-renyi-undirected")
        c = BearingConstraintSet.from_formation(f)
        p0 = rng.uniform(-2, 2, size=f.d * f.n)
        traj = simulate(c, p0, SimulationConfig(t_max=5.0))
        L = c.bearing_laplacian
        energy = np.einsum("ij,jk,ik->i", traj.positions, L, traj.positions)
        assert np.all(np.diff(energy) <= 1e-10)

    def test_limit_consistency_on_fixtures(self, fixtures):
        for name, s in fixtures.items():
            c = s.constraint_set()
            p0, _ = s.initial_positions()
            prediction = predict_limit(c, p0)
            assert prediction.valid, name
            traj = simulate(c, p0)
            assert np.linalg.norm(traj.final_positions - prediction.p_inf) < 1e-4, name

    def test_wrong_p0_length(self, fixtures):
        with pytest.raises(ConfigError):
            simulate(fixtures["fig1a"].constraint_set(), np.zeros(5))


class TestBearingErrorMetric:
    def test_nan_on_degenerate_current_edge(self):
        g = DirectedGraph(2, ((1, 2),))
        c = BearingConstraintSet(g, 2, np.array([[1.0, 0.0]]))
        assert np.isnan(c.bearing_error(np.zeros(4)))

    def test_zero_on_satisfying_positions(self, formations):
        f = formations["fig2b"]
        c = BearingConstraintSet.from_formation(f)
        assert c.bearing_error(3.0 * f.p + 1.0) < 1e-12


class TestExpmOracle:
    def test_time_zero_identity(self, fixtures):
        s = fixtures["fig2a"]
        c = s.constraint_set()
        p0, _ = s.initial_positions(seed=5)
        assert np.allclose(expm_oracle(c, p0, 0.0), p0, atol=1e-14)

    def test_single_edge_closed_form(self):
        # one edge with bearing (1, 0): only the tail's y-offset relative to
        # the head decays, at rate exp(-t); everything else is constant
        g = DirectedGraph(2, ((1, 2),))
        c = BearingConstraintSet(g, 2, np.array([[1.0, 0.0]]))
        p0 = np.array([0.3, 1.7, -0.4, 0.2])
        t = 1.3
        out = expm_oracle(c, p0, t)
        expected = np.array([
            0.3,
            0.2 + (1.7 - 0.2) * np.exp(-t),
            -0.4,
            0.2,
        ])
        assert np.allclose(out, expected, atol=1e-12)

    def test_negative_time_rejected(self, fixtures):
        c = fixtures["fig1a"].constraint_set()
        with pytest.raises(ValueError):
            expm_oracle(c, np.zeros(6), -1.0)

    def test_rk4_against_oracle(self, fixtures):
        s = fixtures["fig2b"]
        c = s.constraint_set()
        p0, _ = s.initial_positions()
        traj = simulate(c, p0, SimulationConfig(dt=0.01, t_max=10.0, integrator="rk4"))
        assert np.abs(traj.final_positions - expm_oracle(c, p0, 10.0)).max() < 1e-6


class TestFinalShapeCheck:
    def test_exact_target(self, formations):
        f = formations["fig2a"]
        c = BearingConstraintSet.from_formation(f)
        traj = simulate(c, f.p, SimulationConfig(t_max=1.0))
        check = final_shape_check(traj, c, f)
        assert check.equivalent and check.same_shape
        assert check.scale_ratio == pytest.approx(1.0, abs=1e-9)
        assert np.abs(check.translation).max() < 1e-9

    def test_scaled_translated_target(self, formations):
        f = formations["fig2a"]
        c = BearingConstraintSet.from_formation(f)
        start = 3.0 * f.p + np.tile([5.0, 5.0], f.n)
        traj = simulate(c, start, SimulationConfig(t_max=1.0))
        check = final_shape_check(traj, c, f)
        assert check.equivalent and check.same_shape
        assert check.scale_ratio == pytest.approx(3.0, abs=1e-9)
        assert np.allclose(check.translation, [5.0, 5.0], atol=1e-9)

    def test_non_persistent_limit_not_equivalent(self, fixtures):
        s = fixtures["fig3a"]
        c = s.constraint_set()
        traj = simulate(c, s.initial_positions(seed=1)[0])
        check = final_shape_check(traj, c, s.target_formation())
        assert not check.equivalent
        assert not check.same_shape

    def test_not_converged_raises(self, fixtures):
        s = fixtures["fig2a"]
        c = s.constraint_set()
        p0, _ = s.initial_positions(seed=1)
        traj = simulate(c, p0, SimulationConfig(t_max=0.5))
        assert traj.converged_at is None
        with pytest.raises(NotConvergedError):
            final_shape_check(traj, c, s.target_formation())


class TestExports:
    def test_csv_deterministic_and_well_formed(self, fixtures, tmp_path):
        s = fixtures["fig1b"]
        c = s.constraint_set()
        p0, seed = s.initial_positions()
        paths = []
        for run in range(2):
            traj = simulate(c, p0, SimulationConfig(t_max=2.0), seed=seed)
            path = tmp_path / f"run{run}.csv"
            traj.write_csv(path)
            paths.append(path.read_bytes())
        assert paths[0] == paths[1]

        text = paths[0].decode()
        header = text.splitlines()[0].split(",")
        assert header == ["t", "p1_x", "p1_y", "p2_x", "p2_y", "p3_x", "p3_y",
                          "control_norm", "bearing_error"]
        # 17-significant-digit floats round-trip exactly
        first = text.splitlines()[1].split(",")
        assert float(first[1]) == p0[0]

    def test_json_mirrors_csv_fields(self, fixtures, tmp_path):
        import json

        s = fixtures["fig1a"]
        c = s.constraint_set()
        p0, seed = s.initial_positions()
        traj = simulate(c, p0, SimulationConfig(t_max=1.0), seed=seed, scenario=s.name)
        path = tmp_path / "traj.json"
        traj.write_json(path)
        data = json.loads(path.read_text())
        assert data["scenario"] == "fig1a"
        assert data["seed"] == seed
        assert data["config"]["integrator"] == "rk4"
        assert data["columns"][0] == "t"
        assert len(data["times"]) == len(data["positions"])
        assert len(data["centroid"]) == len(data["times"])
        assert data["converged_at"] == traj.converged_at
