"""Command-line front end.

Verbs: analyze, simulate, conjecture, export-matrices, list-fixtures.
Exit codes: 0 success, 1 validation/usage error, 2 numerical inconsistency
(redundant classification criteria disagreed), 3 a conjecture-violation
candidate was found.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import (
    AnalysisReport,
    classify,
    realize_constraints,
    sufficient_persistence_2d,
)
from .conjecture import ConjectureBatchConfig, run_batch
from .errors import BearingKitError, NumericalInconsistencyError, ValidationError
from .formation import Formation
from .graph import incidence_matrix, is_weakly_connected
from .linalg import DEFAULT_RANK_TOL, check_rank_tolerance
from .scenario import Scenario, list_fixtures, load_fixture, resolve_scenario
from .simulation import (
    INTEGRATORS,
    SimulationConfig,
    final_shape_check,
    simulate,
)
from .errors import NotConvergedError


def _warn(message: str) -> None:
    print(f"warning: {message}", file=sys.stderr)


def _target_formation(s: Scenario, tol_rel: float) -> tuple[Formation, str]:
    """Formation to classify: the node positions, or a realization of the
    explicit constraint bearings when the scenario supplies those."""
    if s.target_bearings is None:
        return s.target_formation(), "positions"
    realization = realize_constraints(s.constraint_set(), tol_rel=tol_rel)
    if not realization.feasible:
        raise ValidationError(
            f"constraint set of {s.name!r} is infeasible: no nondegenerate "
            f"configuration satisfies the bearings (best shape residual "
            f"{realization.min_residual:.3e})"
        )
    return Formation(s.graph(), s.dimension, realization.positions), "realized-from-constraints"


def _check_connectivity(s: Scenario) -> None:
    if not is_weakly_connected(s.graph()):
        _warn(f"scenario {s.name!r}: graph is not weakly connected")


def _report_dict(report: AnalysisReport, prop1) -> dict:
    out = {
        "n": report.n,
        "d": report.d,
        "m": report.m,
        "mode": report.mode,
        "rank_rigidity": report.rank_rigidity,
        "rank_laplacian": report.rank_laplacian,
        "nullity_rigidity": report.nullity_rigidity,
        "nullity_laplacian": report.nullity_laplacian,
        "trivial_space_dim": report.trivial_space_dim,
        "is_rigid": report.is_rigid,
        "is_persistent": report.is_persistent,
        "null_chain_residuals": list(report.null_chain_residuals),
        "min_real_part": report.min_real_part,
        "eigenvalues": [[float(z.real), float(z.imag)] for z in report.eigenvalues],
        "null_basis_rigidity": report.null_basis_rigidity.T.tolist(),
        "null_basis_laplacian": report.null_basis_laplacian.T.tolist(),
    }
    if prop1 is not None:
        out["sufficient_condition_2d"] = {
            "condition_holds": prop1.condition_holds,
            "violating_agents": prop1.violating_agents,
        }
    return out


def _print_report(name: str, report: AnalysisReport, prop1, digits: int) -> None:
    rows = [
        ("scenario", name),
        ("agents (n)", report.n),
        ("dimension (d)", report.d),
        ("edges (m)", report.m),
        ("mode", report.mode),
        ("rank rigidity matrix", f"{report.rank_rigidity} (rigid needs {report.d * report.n - report.d - 1})"),
        ("rank bearing Laplacian", report.rank_laplacian),
        ("nullity rigidity matrix", report.nullity_rigidity),
        ("nullity bearing Laplacian", report.nullity_laplacian),
        ("trivial-motion dimension", report.trivial_space_dim),
        ("infinitesimally bearing rigid", report.is_rigid),
        ("bearing persistent", report.is_persistent),
        ("null-chain residuals", " ".join(f"{r:.2e}" for r in report.null_chain_residuals)),
        ("spectrum min real part", f"{report.min_real_part:.6e}"),
    ]
    if prop1 is not None:
        verdict = "holds" if prop1.condition_holds else f"fails (agents {prop1.violating_agents})"
        rows.append(("2-D sufficient condition", verdict))
    width = max(len(k) for k, _ in rows)
    for key, value in rows:
        print(f"{key:<{width}}  {value}")
    def block(label: str, M: np.ndarray) -> None:
        print(label)
        text = np.array2string(M, precision=digits, suppress_small=True)
        print("\n".join("  " + line for line in text.splitlines()))

    block("eigenvalues (real part ascending):", np.round(report.eigenvalues, digits))
    block("null-space basis of the rigidity matrix (columns):",
          report.null_basis_rigidity)
    block("null-space basis of the bearing Laplacian (columns):",
          report.null_basis_laplacian)


def cmd_analyze(args) -> int:
    s = resolve_scenario(args.scenario)
    _check_connectivity(s)
    f, mode = _target_formation(s, args.tol_rank)
    report = classify(f, tol_rel=args.tol_rank, mode=mode)
    prop1 = sufficient_persistence_2d(f) if f.d == 2 else None
    _print_report(s.name, report, prop1, args.digits)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    json_path = out_dir / f"{s.name}_analysis.json"
    with open(json_path, "w") as fh:
        json.dump({"scenario": s.name, **_report_dict(report, prop1)}, fh, indent=2)
        fh.write("\n")
    print(f"report written to {json_path}")
    if report.min_real_part < -1e-8:
        _warn(
            f"spectrum has an eigenvalue with real part {report.min_real_part:.3e}; "
            "this is a conjecture-violation candidate"
        )
    return 0


def cmd_simulate(args) -> int:
    s = resolve_scenario(args.scenario)
    _check_connectivity(s)
    c = s.constraint_set()
    target, _ = _target_formation(s, args.tol_rank)
    cfg = SimulationConfig(dt=args.dt, t_max=args.t_max, integrator=args.integrator)
    p0, seed_used = s.initial_positions(args.seed)

    spectral_radius = float(np.abs(np.linalg.eigvals(c.bearing_laplacian)).max())
    if cfg.dt * spectral_radius > 0.1:
        _warn(
            f"dt * spectral radius = {cfg.dt * spectral_radius:.3f} > 0.1; "
            "consider a smaller --dt"
        )

    traj = simulate(c, p0, cfg, seed=seed_used, scenario=s.name)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    written = []
    if args.format in ("csv", "both"):
        path = out_dir / f"{s.name}_trajectory.csv"
        traj.write_csv(path)
        written.append(str(path))
    if args.format in ("json", "both"):
        path = out_dir / f"{s.name}_trajectory.json"
        traj.write_json(path)
        written.append(str(path))

    converged = "never" if traj.converged_at is None else f"{traj.converged_at:g}"
    final_err = traj.bearing_error[-1]
    try:
        shape = final_shape_check(traj, c, target)
        verdict = (
            f"equivalent={shape.equivalent} same_shape={shape.same_shape} "
            f"scale={shape.scale_ratio:.6g} "
            f"translation={np.round(shape.translation, 6).tolist()}"
        )
    except NotConvergedError:
        verdict = "skipped (not converged)"
    print(
        f"{s.name}: converged_at={converged} "
        f"final_control_norm={traj.control_norm[-1]:.6e} "
        f"final_bearing_error={final_err:.6e} | shape check: {verdict}"
    )
    for path in written:
        print(f"trajectory written to {path}")
    return 0


def _write_matrix_txt(path: Path, M: np.ndarray) -> None:
    """Plain-text matrix: a `rows cols` header line, then one row per line.

    Values carry 17 significant digits, so they round-trip exactly; each
    row is formatted with one `%` operation on its Python floats.
    """
    line = " ".join(["%.17g"] * M.shape[1]) + "\n"
    with open(path, "w") as fh:
        fh.write(f"{M.shape[0]} {M.shape[1]}\n")
        fh.writelines(line % tuple(row) for row in np.atleast_2d(M).tolist())


def cmd_export_matrices(args) -> int:
    s = resolve_scenario(args.scenario)
    _check_connectivity(s)
    f, mode = _target_formation(s, args.tol_rank)
    c = s.constraint_set()
    report = classify(f, tol_rel=args.tol_rank, mode=mode)
    matrices = {
        "H": incidence_matrix(f.graph),
        "RB": f.bearing_rigidity_matrix,
        "LB": c.bearing_laplacian,
        "null_RB": report.null_basis_rigidity,
        "null_LB": report.null_basis_laplacian,
    }
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    for key, M in matrices.items():
        path = out_dir / f"{s.name}_{key}.txt"
        _write_matrix_txt(path, M)
        print(f"{key}: {M.shape[0]}x{M.shape[1]} written to {path}")
    json_path = out_dir / f"{s.name}_matrices.json"
    with open(json_path, "w") as fh:
        json.dump(
            {"scenario": s.name, "mode": mode,
             **{key: M.tolist() for key, M in matrices.items()}},
            fh, indent=2,
        )
        fh.write("\n")
    print(f"all matrices written to {json_path}")
    return 0


def cmd_conjecture(args) -> int:
    cfg = ConjectureBatchConfig(
        trials=args.trials,
        n_range=tuple(args.n_range),
        d_range=tuple(args.d_range),
        graph_model=args.graph_model,
        seed=args.seed,
        box=tuple(args.box),
        tol_rel=args.tol_rank,
    )
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    report = run_batch(cfg, jobs=args.jobs, out_dir=out_dir)
    json_path = out_dir / "conjecture_report.json"
    with open(json_path, "w") as fh:
        json.dump(report.to_json_dict(), fh, indent=2)
        fh.write("\n")
    persistent = sum(1 for r in report.records if r.persistent)
    print(
        f"trials={cfg.trials} model={cfg.graph_model} seed={cfg.seed} "
        f"aggregate_min_real_part={report.min_real_part:.17g} "
        f"persistent={persistent}/{cfg.trials} "
        f"violations={len(report.violations)} "
        f"elapsed={report.elapsed_seconds:.2f}s"
    )
    print(f"batch report written to {json_path}")
    if report.violations:
        _warn(
            f"{len(report.violations)} trial(s) below the violation threshold; "
            f"replay scenarios dumped to {out_dir}"
        )
        return 3
    return 0


def cmd_list_fixtures(args) -> int:
    for name in list_fixtures():
        s = load_fixture(name)
        print(f"{name}: n={s.n} m={s.m} d={s.dimension} | {s.notes.split('.')[0]}.")
    return 0


def _parse_tol_rank(text: str) -> float:
    try:
        return check_rank_tolerance(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _int_at_least(low: int):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value
    return parse


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors by default, which this
    # tool reserves for numerical inconsistencies; remap to 1.
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="bearingkit",
        description="Analyze and simulate directed bearing-constrained formations.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--tol-rank", type=_parse_tol_rank, default=DEFAULT_RANK_TOL,
                       help=f"relative rank tolerance in (0, 1) (default {DEFAULT_RANK_TOL:g})")
        p.add_argument("--out", default="out", help="output directory (default: ./out)")

    p_analyze = sub.add_parser("analyze", help="classify a scenario's target formation")
    p_analyze.add_argument("scenario", help="bundled fixture name or scenario file path")
    p_analyze.add_argument("--digits", type=_int_at_least(0), default=6,
                           help="precision for printed bases (default 6)")
    common(p_analyze)
    p_analyze.set_defaults(func=cmd_analyze)

    p_sim = sub.add_parser("simulate", help="run the closed loop on a scenario")
    p_sim.add_argument("scenario", help="bundled fixture name or scenario file path")
    p_sim.add_argument("--dt", type=float, default=0.01, help="time step (default 0.01)")
    p_sim.add_argument("--t-max", type=float, default=50.0, help="horizon (default 50)")
    p_sim.add_argument("--integrator", choices=INTEGRATORS, default="rk4")
    p_sim.add_argument("--seed", type=int, default=None,
                       help="override the scenario's initial-condition seed")
    p_sim.add_argument("--format", choices=("json", "csv", "both"), default="both")
    common(p_sim)
    p_sim.set_defaults(func=cmd_simulate)

    p_conj = sub.add_parser("conjecture",
                            help="probe the spectrum conjecture on random formations")
    p_conj.add_argument("--trials", type=int, default=100)
    p_conj.add_argument("--n-range", type=int, nargs=2, default=(3, 10),
                        metavar=("MIN", "MAX"))
    p_conj.add_argument("--d-range", type=int, nargs=2, default=(2, 3),
                        metavar=("MIN", "MAX"))
    p_conj.add_argument("--graph-model",
                        choices=("erdos-renyi-directed", "erdos-renyi-undirected",
                                 "random-out-degree-capped"),
                        default="erdos-renyi-directed")
    p_conj.add_argument("--seed", type=int, default=42)
    p_conj.add_argument("--box", type=float, nargs=2, default=(-2.0, 2.0),
                        metavar=("LOW", "HIGH"))
    p_conj.add_argument("--jobs", type=_int_at_least(1), default=1,
                        help="worker processes (results identical for any value)")
    common(p_conj)
    p_conj.set_defaults(func=cmd_conjecture)

    p_export = sub.add_parser("export-matrices",
                              help="write H, rigidity, Laplacian, and null bases")
    p_export.add_argument("scenario", help="bundled fixture name or scenario file path")
    common(p_export)
    p_export.set_defaults(func=cmd_export_matrices)

    p_list = sub.add_parser("list-fixtures", help="list bundled scenarios")
    p_list.set_defaults(func=cmd_list_fixtures)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NumericalInconsistencyError as exc:
        print(f"error: numerical inconsistency: {exc}", file=sys.stderr)
        return 2
    except BearingKitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
