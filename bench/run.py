"""Benchmark of the bearingkit CLI: one workload per run.

Usage, from the root of a checkout:

    python3 bench/run.py --workload conjecture-batch --seed 42 --seconds 30 --trace 0

Runs timed passes of the workload, each in a fresh worker process
(`worker.py`), until the next pass would take the measured time past
`--seconds`; at least one pass, and with `--trace 1` at least one untraced
and one traced pass, alternating.  Every operation's output is checked.
Prints each metric with its unit, an environment record, and as the last
line one JSON object: {"correct", "attempted", "failed", "metrics"}.
With `--trace 0` the metrics are the end-to-end ones, with `--trace 1` the
per-layer ones of `tracing.py` plus the tracing overhead.  The full run
record, with every pass and the environment, goes to
`.bench_runs/records/`, and the spans of traced passes next to it.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RECORDS = ROOT / ".bench_runs" / "records"
WORKLOADS = ("conjecture-batch", "classify-dense", "simulate-dense")

#: A run must end within 180 s; stop starting passes well before that.
TIME_LIMIT_S = 160.0

#: setup_s is the median over at least this many workers.  With 3, its
#: spread over ten seeded classify-dense runs was 0.41 of its median.
MIN_SETUPS = 9


class BenchError(Exception):
    """The benchmark could not measure: a worker crashed or timed out."""


def environment() -> dict:
    """Machine and library facts every result carries."""
    import numpy
    import scipy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.argtypes, getter.restype = [], ctypes.c_int
                threads = getter()
                break
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
    }


def run_worker(args, mode: str, index: int, deadline: float) -> dict:
    spans = RECORDS / f"{args.workload}-seed{args.seed}-pass{index}-spans.json"
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.input_seed), "--size", args.size, "--mode", mode,
           "--references", str(args.references), "--spans", str(spans),
           "--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} worker exceeded the time limit") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{mode} worker exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(args) -> tuple[list[dict], list[dict]]:
    """(pass workers, set-up-only workers) of one run."""
    modes = ("plain", "traced") if args.trace else ("plain",)
    deadline = time.monotonic() + TIME_LIMIT_S
    passes: list[dict] = []
    while True:
        passes.append(run_worker(args, modes[len(passes) % len(modes)], len(passes), deadline))
        if len(passes) % len(modes):
            continue
        walls = [p["wall_s"] for p in passes]
        typical = statistics.median(walls) + statistics.median(p["setup_s"] for p in passes)
        if (sum(walls) + statistics.median(walls) > args.seconds
                or time.monotonic() + len(modes) * 2 * typical > deadline):
            break
    setups: list[dict] = []
    while not args.trace and len(passes) + len(setups) < MIN_SETUPS:
        setups.append(run_worker(args, "setup", len(passes) + len(setups), deadline))
    return passes, setups


def end_to_end(passes: list[dict], setups: list[dict]) -> dict:
    # wall_s is the mean over passes, the measured time divided by the pass
    # count: identical simulate-dense passes ranged over 3.9-6.7 s on a
    # shared host, and across ten seeded runs the mean spread 0.15 of its
    # median where the median of passes spread 0.19.
    return {
        "wall_s": (statistics.fmean(p["wall_s"] for p in passes), "s"),
        "setup_s": (statistics.median(w["setup_s"] for w in passes + setups), "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
    }


def per_layer(passes: list[dict]) -> dict:
    import tracing

    traced = [p for p in passes if "layers" in p]
    plain = [p for p in passes if "layers" not in p]
    out = {name: (statistics.median(p["layers"][name] for p in traced), unit)
           for name, unit in tracing.LAYER_METRICS.items()}
    overhead = (statistics.median(p["wall_s"] for p in traced)
                / statistics.median(p["wall_s"] for p in plain) - 1.0)
    out["trace.overhead_ratio"] = (overhead, "ratio")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="measured time to aim for; at least one pass runs")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="input size: the benchmark, or the smoke-test size")
    parser.add_argument("--references", type=Path, default=BENCH / "references.json")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (ROOT / "src" / "bearingkit" / "__init__.py").is_file():
        print(f"error: no bearingkit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    env = environment()
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import input_seed

    try:
        args.input_seed, skipped = input_seed(args.workload, args.seed, args.size,
                                              ROOT / ".bench_runs" / "work")
        passes, setups = measure(args)
    except (BenchError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    workers = passes + setups
    attempted = sum(w["attempted"] for w in workers)
    failed = sum(w["failed"] for w in workers)
    problems = [p for w in workers for p in w["problems"]]
    metrics = per_layer(passes) if args.trace else end_to_end(passes, setups)
    reported = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}

    record = {"workload": args.workload, "seed": args.seed, "input_seed": args.input_seed,
              "skipped_seeds": skipped, "size": args.size,
              "seconds": args.seconds, "trace": args.trace, "environment": env,
              "failed_ratio": failed / attempted, "problems": problems,
              "passes": passes, "setups": setups, "metrics": reported}
    RECORDS.mkdir(parents=True, exist_ok=True)
    path = RECORDS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"environment: {json.dumps(env)}")
    if skipped:
        print(f"input seed: {args.input_seed}; ill-conditioned seeds skipped: {skipped}")
    summary = passes[0]["summary"] or {}
    if "violations" in summary:
        print(f"conjecture violations per batch: {len(summary['violations'])}")
    print(f"passes: {len(passes)}, set-ups: {len(workers)}, "
          f"failed_ratio: {failed}/{attempted}, record: {path.relative_to(ROOT)}")
    for name, (value, unit) in metrics.items():
        print(f"{name:<42} {value:>14.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": reported,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
