"""One benchmark worker process: set up, run one timed pass, check it.

`run.py` starts a fresh worker for every pass, so each pass has its own
peak resident memory.  Set-up is the `bearingkit` import, input generation
and the warm-up: `analyze` on the six bundled fixtures, whose verdicts are
checked.  The timed pass calls `bearingkit.cli.main` in-process once per
operation, with the CLI's standard output sent to the null device.  With
`--mode traced` the pass runs under the span recorder of `tracing.py`.
With `--mode setup` the worker stops after set-up.

`bearingkit` is imported before any of the benchmark's own modules, and
those load nothing the program does not load itself before the timed pass:
the output checks' `oracle` is imported after the peak memory is read.  So
set-up time and peak memory are the program's own.

The last line of standard output is one JSON object describing the worker.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from bearingkit.cli import main as cli_main  # noqa: E402

from workloads import FIXTURES, WORKLOADS, reference_problems  # noqa: E402


def call_cli(argv: list[str], sink) -> tuple[int | None, str]:
    """Run one CLI operation in-process: (exit code or None, error text)."""
    err = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(err):
            code = cli_main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception:
        return None, traceback.format_exc(limit=4)
    return code, err.getvalue()[-2000:]


def warm_up(out: Path, fixtures: dict, sink) -> list[str]:
    """Analyze the bundled fixtures and check their verdicts; one problem per failure."""
    problems = []
    for name in FIXTURES:
        code, err = call_cli(["analyze", name, "--out", str(out)], sink)
        if code != 0:
            problems.append(f"warm-up analyze {name}: exit {code} {err}")
            continue
        data = json.loads((out / f"{name}_analysis.json").read_text())
        got = [data["is_rigid"], data["is_persistent"]]
        if got != fixtures[name]:
            problems.append(f"warm-up analyze {name}: rigid/persistent {got}, "
                            f"expected {fixtures[name]}")
    return problems


def timed_pass(workload, traced: bool, reference, sink) -> dict:
    ops = workload.operations()
    tracer = None
    if traced:
        import tracing

        tracer = tracing.Tracer()
    with tracer or contextlib.nullcontext():
        outcomes, op_s = [], []
        start = time.perf_counter()
        for op in ops:
            begin = time.perf_counter()
            outcomes.append(call_cli(op.argv, sink))
            op_s.append(time.perf_counter() - begin)
        wall_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    problems = {op.label: [] for op in ops}
    for op, (code, err) in zip(ops, outcomes):
        if code not in workload.exit_codes:
            problems[op.label].append(f"{op.label}: exit {code} {err}")
    summary = None
    try:
        checked, summary = workload.check(
            {op.label: code for op, (code, _) in zip(ops, outcomes)})
    except Exception:
        checked = {op.label: [f"{op.label}: output check raised\n"
                              f"{traceback.format_exc(limit=4)}"] for op in ops}
    for label, found in checked.items():
        problems[label].extend(found)
    problems[ops[0].label].extend(reference_problems(reference, summary))
    result = {
        "wall_s": wall_s,
        "op_s": dict(zip((op.label for op in ops), op_s)),
        "peak_rss_mb": peak_rss_mb,
        "ops": len(ops),
        "failed_ops": sum(1 for found in problems.values() if found),
        "problems": [p for found in problems.values() for p in found],
        "summary": summary,
    }
    if traced:
        result["layers"] = tracing.layer_metrics(tracer.spans)
        result["spans"] = tracer.as_records()
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--mode", choices=("setup", "plain", "traced"), required=True)
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.monotonic() in the parent when it started this worker")
    parser.add_argument("--references", type=Path, required=True)
    parser.add_argument("--spans", type=Path, help="write the traced pass's spans here")
    args = parser.parse_args(argv)

    references = json.loads(args.references.read_text())
    work = ROOT / ".bench_runs" / "work" / str(os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    (work / "warmup").mkdir(parents=True)
    try:
        with open(os.devnull, "w") as sink:
            workload = WORKLOADS[args.workload](args.seed, args.size, work)
            workload.prepare()
            problems = warm_up(work / "warmup", references["fixtures"], sink)
            result = {
                "setup_s": time.monotonic() - args.spawned_at,
                "attempted": len(FIXTURES),
                "failed": len(problems),
                "problems": problems,
            }
            if args.mode != "setup":
                reference = (references.get(args.workload, {}).get(args.size, {})
                             .get(str(args.seed)))
                timed = timed_pass(workload, args.mode == "traced", reference, sink)
                result["attempted"] += timed.pop("ops")
                result["failed"] += timed.pop("failed_ops")
                result["problems"] += timed.pop("problems")
                if args.spans is not None and "spans" in timed:
                    args.spans.parent.mkdir(parents=True, exist_ok=True)
                    args.spans.write_text(json.dumps(timed["spans"]))
                timed.pop("spans", None)
                result.update(timed)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
