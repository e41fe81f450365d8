import functools
import json
import multiprocessing
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

import bearingkit.conjecture

from bearingkit import (
    BearingConstraintSet,
    ConfigError,
    is_weakly_connected,
    laplacian_spectrum,
    scenario_from_dict,
)
from bearingkit.conjecture import (
    ConjectureBatchConfig,
    random_capped_formation,
    random_capped_graph,
    random_directed_graph,
    random_formation,
    random_undirected_graph,
    run_batch,
    run_trial,
)
from bearingkit.graph import out_neighbors
from bearingkit.linalg import set_rank_tolerance


class TestGenerators:
    def test_directed_graphs_weakly_connected(self):
        rng = np.random.default_rng(163)
        for _ in range(20):
            g = random_directed_graph(rng, int(rng.integers(3, 9)))
            assert is_weakly_connected(g)

    def test_undirected_graphs_reciprocal(self):
        rng = np.random.default_rng(167)
        for _ in range(10):
            g = random_undirected_graph(rng, int(rng.integers(3, 8)))
            assert g.is_undirected
            assert is_weakly_connected(g)

    def test_capped_graph_degree_bound(self):
        rng = np.random.default_rng(173)
        for _ in range(20):
            n = int(rng.integers(3, 10))
            g = random_capped_graph(rng, n)
            assert is_weakly_connected(g)
            assert all(len(out_neighbors(g, i)) <= 2 for i in range(1, n + 1))

    def test_random_formation_nondegenerate(self):
        rng = np.random.default_rng(179)
        for _ in range(10):
            f = random_formation(rng, 6, int(rng.integers(2, 4)))
            assert f.edge_lengths.min() > 1e-3

    def test_capped_formation_separation_margin(self):
        rng = np.random.default_rng(181)
        for _ in range(10):
            f = random_capped_formation(rng, 6)
            bearings = f.bearings.reshape(f.m, 2)
            for i in range(1, f.n + 1):
                ks = [k for k, (a, _) in enumerate(f.graph.edges) if a == i]
                assert len(ks) <= 2
                if len(ks) == 2:
                    a, b = bearings[ks[0]], bearings[ks[1]]
                    assert np.linalg.norm(b - (a @ b) * a) > 1e-3


class TestConfig:
    def test_bad_trials(self):
        with pytest.raises(ConfigError):
            ConjectureBatchConfig(trials=0)

    def test_bad_model(self):
        with pytest.raises(ConfigError):
            ConjectureBatchConfig(trials=1, graph_model="small-world")

    def test_bad_ranges(self):
        with pytest.raises(ConfigError):
            ConjectureBatchConfig(trials=1, n_range=(5, 3))
        with pytest.raises(ConfigError):
            ConjectureBatchConfig(trials=1, box=(1.0, -1.0))

    def test_rank_tolerance_validated_and_defaulted(self):
        for bad in (0.0, 1.0, -1e-3):
            with pytest.raises(ConfigError):
                ConjectureBatchConfig(trials=1, tol_rel=bad)
        assert ConjectureBatchConfig(trials=1, tol_rel=1e-6).tol_rel == 1e-6
        set_rank_tolerance(1e-4)
        assert ConjectureBatchConfig(trials=1).tol_rel == 1e-4


class TestBatch:
    def test_trials_reproducible_and_order_independent(self):
        cfg = ConjectureBatchConfig(trials=12, seed=123)
        serial = run_batch(cfg, jobs=1)
        parallel = run_batch(cfg, jobs=2)
        assert [r.min_real_part for r in serial.records] == [
            r.min_real_part for r in parallel.records
        ]
        assert serial.min_real_part == parallel.min_real_part
        assert [r.index for r in serial.records] == list(range(12))

    def test_rank_tolerance_reaches_spawned_workers(self, monkeypatch):
        # A spawned worker starts from a fresh import and sees no tolerance
        # set in this process; the verdicts must still match the serial run.
        spawn = functools.partial(
            ProcessPoolExecutor, mp_context=multiprocessing.get_context("spawn"))
        monkeypatch.setattr(bearingkit.conjecture, "ProcessPoolExecutor", spawn)

        def verdicts(report):
            return [(r.rigid, r.persistent) for r in report.records]

        cfg = ConjectureBatchConfig(trials=200, seed=1, tol_rel=1e-3)
        serial = verdicts(run_batch(cfg))
        assert verdicts(run_batch(cfg, jobs=2)) == serial
        # the tolerance decides some of these verdicts
        assert verdicts(run_batch(ConjectureBatchConfig(trials=200, seed=1))) != serial

    def test_undirected_model_min_real_part(self):
        cfg = ConjectureBatchConfig(
            trials=30, seed=5, graph_model="erdos-renyi-undirected"
        )
        report = run_batch(cfg)
        assert report.min_real_part >= -1e-10
        assert report.violations == []

    def test_capped_model_all_persistent(self):
        cfg = ConjectureBatchConfig(
            trials=100, seed=42, d_range=(2, 2),
            graph_model="random-out-degree-capped",
        )
        report = run_batch(cfg)
        assert all(r.persistent for r in report.records)

    def test_violation_dump_replays(self, tmp_path):
        # seed 42 is known to produce a negative real part within 20 trials
        cfg = ConjectureBatchConfig(trials=20, seed=42)
        report = run_batch(cfg, out_dir=tmp_path)
        assert report.min_real_part < -1e-8
        assert report.violations
        index = report.violations[0]
        dumped = tmp_path / f"conjecture_violation_trial_{index}.json"
        assert dumped.is_file()
        s = scenario_from_dict(json.loads(dumped.read_text()))
        c = BearingConstraintSet.from_formation(s.target_formation())
        replayed = laplacian_spectrum(c).min_real_part
        recorded = next(r for r in report.records if r.index == index).min_real_part
        assert replayed == pytest.approx(recorded, abs=1e-12)

    def test_rigid_and_persistent_yet_unstable_trial(self):
        # Rigidity and persistence are necessary for convergence, not
        # sufficient: on a directed graph L can still have an eigenvalue
        # with negative real part (-0.016832 here).
        record, replay = run_trial(ConjectureBatchConfig(trials=1000, seed=42), 13)
        assert (record.n, record.d, record.m) == (4, 2, 6)
        assert record.rigid and record.persistent
        assert record.min_real_part < -1e-2
        assert replay is not None

    def test_trial_records_complete(self):
        cfg = ConjectureBatchConfig(trials=3, seed=9)
        record, _ = run_trial(cfg, 1)
        assert record.seed == [9, 1]
        assert cfg.n_range[0] <= record.n <= cfg.n_range[1]
        assert cfg.d_range[0] <= record.d <= cfg.d_range[1]
        assert record.m >= record.n - 1
        assert isinstance(record.persistent, bool) and isinstance(record.rigid, bool)

    def test_report_json_shape(self):
        cfg = ConjectureBatchConfig(trials=4, seed=2)
        data = run_batch(cfg).to_json_dict()
        assert data["config"]["trials"] == 4
        assert len(data["trials"]) == 4
        assert "aggregate_min_real_part" in data
