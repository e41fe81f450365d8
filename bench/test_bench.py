"""Tests of the benchmark itself, at the tiny input size.

Run with `python -m pytest -q bench`.  Each test starts `run.py` as the
benchmark is started, from the root of the checkout.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = 0  # every tiny workload has a recorded reference for this seed


def run(workload: str, trace: int, *extra: str, cwd: Path = ROOT):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(SEED),
           "--seconds", "0", "--trace", str(trace), "--size", "tiny",
           *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=120)


def result(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_reports_every_end_to_end_metric(workload):
    out = result(run(workload, 0))
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0 and out["attempted"] >= 7
    assert {name: m["unit"] for name, m in out["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in out["metrics"].values())


def test_traced_counts_repeat_exactly():
    names = ("graph.incidence_calls", "formation.laplacian_builds_per_classify",
             "linalg.calls_per_classify", "analysis.spectrum_calls_per_trial")
    first, second = (result(run("conjecture-batch", 1)) for _ in range(2))
    assert first["correct"] and second["correct"]
    assert set(first["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    counts = {name: first["metrics"][name]["value"] for name in names}
    assert counts == {name: second["metrics"][name]["value"] for name in names}
    assert counts["formation.laplacian_builds_per_classify"] == 3
    assert counts["linalg.calls_per_classify"] == 11
    assert counts["analysis.spectrum_calls_per_trial"] == 2


def test_corrupted_reference_counts_as_failure(tmp_path):
    references = json.loads((BENCH / "references.json").read_text())
    recorded = references["conjecture-batch"]["tiny"][str(SEED)]
    recorded["trial_digest"] = "0" * 64
    corrupted = tmp_path / "references.json"
    corrupted.write_text(json.dumps(references))
    out = result(run("conjecture-batch", 0, "--references", str(corrupted)))
    assert out["correct"] is False and out["failed"] >= 1


def test_conjecture_exit_code_must_match_the_oracle(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(BENCH))
    from bearingkit.cli import main as cli_main
    from workloads import ConjectureBatch

    workload = ConjectureBatch(SEED, "tiny", tmp_path)
    (op,) = workload.operations()
    assert cli_main(op.argv) == 3  # tiny seed 0 has violation candidates
    assert workload.check({op.label: 3})[0][op.label] == []
    assert workload.check({op.label: 0})[0][op.label]


def test_ill_conditioned_conjecture_batches_are_skipped(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(BENCH))
    from workloads import input_seed

    assert input_seed("conjecture-batch", 42, "full", tmp_path) == (42, [])
    # Trial 597 of this batch has a Laplacian singular value 1e-9 of the
    # largest, one decade above the rank tolerance; the CLI exits 2 on it.
    assert input_seed("conjecture-batch", 450576839, "full", tmp_path) == (
        450576840, [450576839])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = run("conjecture-batch", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
