import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bearingkit
from bearingkit import expm_oracle, load_fixture
from bearingkit.cli import _write_matrix_txt, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_fig2a_report(self, capsys, tmp_path):
        code, out, err = run(capsys, "analyze", "fig2a", "--out", str(tmp_path))
        assert code == 0
        assert "infinitesimally bearing rigid  True" in out
        assert "bearing persistent             True" in out
        data = json.loads((tmp_path / "fig2a_analysis.json").read_text())
        assert data["is_rigid"] and data["is_persistent"]
        assert data["rank_rigidity"] == 5
        assert data["sufficient_condition_2d"]["condition_holds"]

    def test_fig3b_report(self, capsys, tmp_path):
        code, out, _ = run(capsys, "analyze", "fig3b", "--out", str(tmp_path))
        assert code == 0
        data = json.loads((tmp_path / "fig3b_analysis.json").read_text())
        assert not data["is_rigid"] and not data["is_persistent"]
        assert data["sufficient_condition_2d"]["violating_agents"] == [3]

    def test_explicit_bearings_scenario_realized(self, capsys, tmp_path):
        r = 1.0 / np.sqrt(2.0)
        scenario = {
            "version": 1,
            "name": "square-by-bearings",
            "dimension": 2,
            "nodes": [
                {"id": 1, "position": [-1.0, 1.0]},
                {"id": 2, "position": [1.0, 1.0]},
                {"id": 3, "position": [1.0, -1.0]},
                {"id": 4, "position": [-1.0, -1.0]},
            ],
            "edges": [[1, 4], [1, 2], [2, 3], [3, 4], [2, 4]],
            "target": {"bearings": [[0.0, -1.0], [1.0, 0.0], [0.0, -1.0],
                                    [-1.0, 0.0], [-r, -r]]},
        }
        path = tmp_path / "square.json"
        path.write_text(json.dumps(scenario))
        code, out, _ = run(capsys, "analyze", str(path), "--out", str(tmp_path))
        assert code == 0
        data = json.loads((tmp_path / "square-by-bearings_analysis.json").read_text())
        assert data["mode"] == "realized-from-constraints"
        assert data["is_rigid"] and data["is_persistent"]

    def test_infeasible_bearings_exit_one(self, capsys, tmp_path):
        scenario = {
            "version": 1,
            "name": "infeasible",
            "dimension": 2,
            "nodes": [
                {"id": 1, "position": [0.0, 0.0]},
                {"id": 2, "position": [1.0, 0.0]},
            ],
            "edges": [[1, 2], [2, 1]],
            "target": {"bearings": [[1.0, 0.0], [0.0, 1.0]]},
        }
        path = tmp_path / "infeasible.json"
        path.write_text(json.dumps(scenario))
        code, _, err = run(capsys, "analyze", str(path), "--out", str(tmp_path))
        assert code == 1
        assert "infeasible" in err

    def test_disconnected_graph_warns(self, capsys, tmp_path):
        scenario = {
            "version": 1,
            "name": "split",
            "dimension": 2,
            "nodes": [
                {"id": 1, "position": [0.0, 0.0]},
                {"id": 2, "position": [1.0, 0.0]},
                {"id": 3, "position": [0.0, 1.0]},
                {"id": 4, "position": [1.0, 1.0]},
            ],
            "edges": [[1, 2], [3, 4]],
            "target": {"from_positions": True},
        }
        path = tmp_path / "split.json"
        path.write_text(json.dumps(scenario))
        code, _, err = run(capsys, "analyze", str(path), "--out", str(tmp_path))
        assert code == 0
        assert "not weakly connected" in err


class TestSimulate:
    def test_fig2a_summary(self, capsys, tmp_path):
        code, out, _ = run(capsys, "simulate", "fig2a", "--seed", "1",
                           "--out", str(tmp_path))
        assert code == 0
        assert "equivalent=True" in out
        assert (tmp_path / "fig2a_trajectory.csv").is_file()
        assert (tmp_path / "fig2a_trajectory.json").is_file()

    def test_fig3a_not_equivalent(self, capsys, tmp_path):
        code, out, _ = run(capsys, "simulate", "fig3a", "--seed", "1",
                           "--out", str(tmp_path))
        assert code == 0
        assert "equivalent=False" in out

    def test_csv_only_format(self, capsys, tmp_path):
        code, _, _ = run(capsys, "simulate", "fig1a", "--format", "csv",
                         "--t-max", "2", "--out", str(tmp_path))
        assert code == 0
        assert (tmp_path / "fig1a_trajectory.csv").is_file()
        assert not (tmp_path / "fig1a_trajectory.json").exists()

    def test_byte_identical_across_runs(self, capsys, tmp_path):
        blobs = []
        for run_dir in ("a", "b"):
            out_dir = tmp_path / run_dir
            code, _, _ = run(capsys, "simulate", "fig2b", "--seed", "4",
                             "--t-max", "3", "--out", str(out_dir))
            assert code == 0
            blobs.append((
                (out_dir / "fig2b_trajectory.csv").read_bytes(),
                (out_dir / "fig2b_trajectory.json").read_bytes(),
            ))
        assert blobs[0] == blobs[1]

    def test_oracle_integrator_same_verdict(self, capsys, tmp_path):
        verdicts = []
        for integrator in ("rk4", "expm-oracle"):
            code, out, _ = run(capsys, "simulate", "fig3a", "--seed", "1",
                               "--integrator", integrator,
                               "--out", str(tmp_path / integrator))
            assert code == 0
            verdicts.append(out.split("shape check:")[1].split("\n")[0].split("scale")[0])
        assert verdicts[0] == verdicts[1]

    def test_large_dt_warns(self, capsys, tmp_path):
        code, _, err = run(capsys, "simulate", "fig1a", "--dt", "0.2",
                           "--t-max", "5", "--out", str(tmp_path))
        assert code == 0
        assert "spectral radius" in err

    def test_bad_integrator_usage_error(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "fig1a", "--integrator", "verlet"])
        assert exc.value.code == 1


class TestStartUp:
    #: Runs in a fresh interpreter: the verbs below must not load scipy,
    #: which costs over half of the CLI's start-up; expm-oracle still works.
    SCRIPT = """
import json, sys
from bearingkit.cli import main
out = sys.argv[1]
codes = [main(["analyze", "fig2a", "--out", out]),
         main(["simulate", "fig2a", "--integrator", "rk4", "--t-max", "1", "--out", out])]
scipy = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
codes.append(main(["simulate", "fig2a", "--integrator", "expm-oracle", "--t-max", "1",
                   "--format", "json", "--out", out + "/expm"]))
print(json.dumps({"codes": codes, "scipy": scipy}))
"""

    def test_scipy_loaded_only_by_expm_paths(self, tmp_path):
        src = str(Path(bearingkit.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        proc = subprocess.run([sys.executable, "-c", self.SCRIPT, str(tmp_path)],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert result["codes"] == [0, 0, 0]
        assert result["scipy"] == []

        traj = json.loads((tmp_path / "expm" / "fig2a_trajectory.json").read_text())
        assert traj["times"][-1] == pytest.approx(1.0)
        c = load_fixture("fig2a").constraint_set()
        expected = expm_oracle(c, np.array(traj["positions"][0]), 1.0)
        np.testing.assert_allclose(traj["positions"][-1], expected, rtol=1e-12, atol=1e-12)


class TestExportMatrices:
    def test_fig2a_files(self, capsys, tmp_path):
        code, out, _ = run(capsys, "export-matrices", "fig2a", "--out", str(tmp_path))
        assert code == 0
        H = (tmp_path / "fig2a_H.txt").read_text().splitlines()
        assert H[0] == "5 4"
        first_row = [float(v) for v in H[1].split()]
        assert first_row == [-1.0, 0.0, 0.0, 1.0]
        LB = (tmp_path / "fig2a_LB.txt").read_text().splitlines()
        assert LB[0] == "8 8"
        data = json.loads((tmp_path / "fig2a_matrices.json").read_text())
        assert np.array(data["RB"]).shape == (10, 8)
        assert np.array(data["null_LB"]).shape == (8, 3)

    def test_single_edge_shapes(self, capsys, tmp_path):
        scenario = {
            "version": 1,
            "name": "pair",
            "dimension": 2,
            "nodes": [
                {"id": 1, "position": [0.0, 0.0]},
                {"id": 2, "position": [1.0, 0.0]},
            ],
            "edges": [[1, 2]],
            "target": {"from_positions": True},
        }
        path = tmp_path / "pair.json"
        path.write_text(json.dumps(scenario))
        code, _, _ = run(capsys, "export-matrices", str(path), "--out", str(tmp_path))
        assert code == 0
        data = json.loads((tmp_path / "pair_matrices.json").read_text())
        assert np.array(data["RB"]).shape == (2, 4)

    def test_fig3a_null_basis_spans_reference_directions(self, capsys, tmp_path):
        from bearingkit import span_basis, subspaces_equal

        code, _, _ = run(capsys, "export-matrices", "fig3a", "--out", str(tmp_path))
        assert code == 0
        data = json.loads((tmp_path / "fig3a_matrices.json").read_text())
        emitted = np.array(data["null_LB"])
        reference = np.array([
            [1, 0, 1, 0, 1, 0, 1, 0],
            [0, 1, 0, 1, 0, 1, 0, 1],
            [-1, 1, 1, 1, 1, -1, -1, -1],
            [0, 2, -1, 1, -2, 0, 0, 0],
        ], dtype=float).T
        assert subspaces_equal(emitted, span_basis(reference), tol=1e-8)


class TestMatrixText:
    def test_bytes_match_per_value_formatting(self, tmp_path):
        rng = np.random.default_rng(191)
        values = rng.standard_normal((5, 7)) * 10.0 ** rng.integers(-300, 300, (5, 7))
        values[0, :3] = [-0.0, 5e-324, 1.0 / 3.0]
        null_basis = np.zeros((6, 0))  # a full-rank matrix's null basis
        for name, M in (("values", values), ("empty", null_basis)):
            path = tmp_path / f"{name}.txt"
            _write_matrix_txt(path, M)
            reference = f"{M.shape[0]} {M.shape[1]}\n" + "".join(
                " ".join(f"{v:.17g}" for v in row) + "\n" for row in M)
            assert path.read_bytes() == reference.encode()


class TestConjectureCommand:
    def test_violation_exit_code(self, capsys, tmp_path):
        code, out, err = run(capsys, "conjecture", "--trials", "20", "--seed", "42",
                             "--out", str(tmp_path))
        report = json.loads((tmp_path / "conjecture_report.json").read_text())
        expected = 3 if report["aggregate_min_real_part"] < -1e-8 else 0
        assert code == expected == 3
        assert "aggregate_min_real_part" in out
        assert (tmp_path / f"conjecture_violation_trial_{report['violations'][0]}.json").is_file()

    def test_undirected_model_clean_exit(self, capsys, tmp_path):
        code, out, _ = run(capsys, "conjecture", "--trials", "15", "--seed", "5",
                           "--graph-model", "erdos-renyi-undirected",
                           "--out", str(tmp_path))
        assert code == 0
        report = json.loads((tmp_path / "conjecture_report.json").read_text())
        assert report["aggregate_min_real_part"] >= -1e-10

    def test_capped_model_persistent_count(self, capsys, tmp_path):
        # the out-degree condition forces persistence, but persistence says
        # nothing about the spectrum, so the exit code still tracks the
        # reported minimum real part
        code, out, _ = run(capsys, "conjecture", "--trials", "25", "--seed", "42",
                           "--graph-model", "random-out-degree-capped",
                           "--d-range", "2", "2", "--out", str(tmp_path))
        assert "persistent=25/25" in out
        report = json.loads((tmp_path / "conjecture_report.json").read_text())
        assert code == (3 if report["aggregate_min_real_part"] < -1e-8 else 0)


class TestMisc:
    def test_list_fixtures(self, capsys):
        code, out, _ = run(capsys, "list-fixtures")
        assert code == 0
        for name in ("fig1a", "fig1b", "fig2a", "fig2b", "fig3a", "fig3b"):
            assert name in out

    def test_unknown_scenario_exit_one(self, capsys):
        code, _, err = run(capsys, "analyze", "does-not-exist")
        assert code == 1
        assert "neither a bundled fixture" in err

    def test_invalid_scenario_file_exit_one(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"version": 1, "name": "bad", "dimension": 2,
                                    "nodes": [], "edges": []}))
        code, _, err = run(capsys, "analyze", str(path))
        assert code == 1

    def test_tol_rank_flag(self, capsys, tmp_path):
        code, _, _ = run(capsys, "analyze", "fig2a", "--tol-rank", "1e-8",
                         "--out", str(tmp_path))
        assert code == 0

    def test_bad_tol_rank(self, capsys):
        code, _, err = run(capsys, "analyze", "fig2a", "--tol-rank", "5")
        assert code == 1
