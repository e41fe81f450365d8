"""Closed-loop simulation of the linear bearing-based control law.

The stacked dynamics are pdot = -L p with L the bearing Laplacian of the
target constraints.  The system is linear with a constant matrix, so fixed
time steps are sufficient and a matrix-exponential propagator serves as an
independent oracle for the explicit integrators.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy.linalg

from .errors import ConfigError, NotConvergedError
from .formation import BearingConstraintSet, Formation
from .analysis import EQUIVALENCE_TOL, check_bearing_equivalence

INTEGRATORS = ("euler", "rk4", "expm-oracle")

_AXIS_NAMES = "xyzw"


@dataclass
class SimulationConfig:
    dt: float = 0.01
    t_max: float = 50.0
    integrator: str = "rk4"
    convergence_threshold: float = 1e-8  # on |L p|, the control norm
    record_stride: int = 10

    def __post_init__(self):
        if not (self.dt > 0):
            raise ConfigError(f"dt must be positive, got {self.dt}")
        if self.t_max < self.dt:
            raise ConfigError(f"t_max ({self.t_max}) must be at least dt ({self.dt})")
        if self.integrator not in INTEGRATORS:
            raise ConfigError(
                f"unknown integrator {self.integrator!r}; choose from {INTEGRATORS}"
            )
        if self.record_stride < 1:
            raise ConfigError(f"record_stride must be >= 1, got {self.record_stride}")
        if not (self.convergence_threshold > 0):
            raise ConfigError("convergence_threshold must be positive")


@dataclass
class Trajectory:
    """Recorded samples of one closed-loop run.

    `control_norm` is |L p(t)| (the norm of the stacked velocity) and
    `bearing_error` is the sum over edges of the constraint projector
    applied to the current relative position.  Bearing-error samples are
    NaN wherever the current configuration has a degenerate edge, since the
    bearings themselves are undefined there (the dynamics are not).
    """

    times: np.ndarray
    positions: np.ndarray  # (samples, d*n)
    control_norm: np.ndarray
    bearing_error: np.ndarray
    converged_at: float | None
    config: SimulationConfig
    d: int
    seed: int | None = None
    scenario: str | None = None

    @property
    def final_positions(self) -> np.ndarray:
        return self.positions[-1]

    def centroids(self) -> np.ndarray:
        """Per-sample centroid of the agents, (samples, d); diagnostic only."""
        n = self.positions.shape[1] // self.d
        return self.positions.reshape(len(self.times), n, self.d).mean(axis=1)

    def scales(self) -> np.ndarray:
        """Per-sample deviation norm about the centroid; diagnostic only."""
        n = self.positions.shape[1] // self.d
        pts = self.positions.reshape(len(self.times), n, self.d)
        return np.linalg.norm(pts - self.centroids()[:, None, :], axis=(1, 2))

    def column_names(self) -> list[str]:
        n = self.positions.shape[1] // self.d
        names = ["t"]
        for i in range(1, n + 1):
            for a in range(self.d):
                axis = _AXIS_NAMES[a] if a < len(_AXIS_NAMES) else f"c{a + 1}"
                names.append(f"p{i}_{axis}")
        names += ["control_norm", "bearing_error"]
        return names

    def write_csv(self, path: str | Path) -> None:
        """CSV export: t, stacked positions, control_norm, bearing_error.

        Floats carry 17 significant digits so runs are byte-reproducible
        and round-trip exactly.
        """
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(self.column_names())
            for row_idx in range(len(self.times)):
                row = [self.times[row_idx], *self.positions[row_idx],
                       self.control_norm[row_idx], self.bearing_error[row_idx]]
                writer.writerow(f"{v:.17g}" for v in row)

    def to_json_dict(self) -> dict:
        """JSON export mirroring the CSV plus config, seed, and diagnostics."""
        def clean(values):
            return [None if math.isnan(v) else v for v in values.tolist()]

        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "config": {
                "dt": self.config.dt,
                "t_max": self.config.t_max,
                "integrator": self.config.integrator,
                "convergence_threshold": self.config.convergence_threshold,
                "record_stride": self.config.record_stride,
            },
            "dimension": self.d,
            "columns": self.column_names(),
            "times": self.times.tolist(),
            "positions": self.positions.tolist(),
            "control_norm": self.control_norm.tolist(),
            "bearing_error": clean(self.bearing_error),
            "converged_at": self.converged_at,
            "centroid": self.centroids().tolist(),
            "scale": self.scales().tolist(),
        }

    def write_json(self, path: str | Path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=2)
            fh.write("\n")


@dataclass
class ShapeCheck:
    """Final-formation verdict against the target configuration."""

    equivalent: bool
    same_shape: bool
    scale_ratio: float
    translation: np.ndarray
    max_edge_residual: float
    edge_signs: np.ndarray = field(repr=False, default=None)


def step_agentwise(c: BearingConstraintSet, p: np.ndarray, dt: float) -> np.ndarray:
    """One explicit-Euler step computed agent by agent.

    Each agent moves only on its own outgoing constraints and the relative
    positions of the corresponding neighbors; no agent touches global
    state.  This is the form the control law is actually distributed in,
    and it must match the matrix form exactly.
    """
    p = np.asarray(p, dtype=float).reshape(-1)
    n, d = c.graph.n, c.d
    pts = p.reshape(n, d)
    new = pts.copy()
    for i in range(1, n + 1):
        u = np.zeros(d)
        for k, (a, j) in enumerate(c.graph.edges):
            if a != i:
                continue
            u -= c.edge_projectors[k] @ (pts[i - 1] - pts[j - 1])
        new[i - 1] = pts[i - 1] + dt * u
    return new.reshape(-1)


def _rk4_step(L: np.ndarray, p: np.ndarray, dt: float) -> np.ndarray:
    k1 = -(L @ p)
    k2 = -(L @ (p + 0.5 * dt * k1))
    k3 = -(L @ (p + 0.5 * dt * k2))
    k4 = -(L @ (p + dt * k3))
    return p + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def simulate(
    c: BearingConstraintSet,
    p0: np.ndarray,
    cfg: SimulationConfig | None = None,
    seed: int | None = None,
    scenario: str | None = None,
) -> Trajectory:
    """Integrate pdot = -L p from p0 and record metric series.

    Samples are recorded every `record_stride` steps and always at the
    final step.  `converged_at` is the first recorded time from which the
    control norm stays below the threshold through the end of the run.
    """
    cfg = cfg or SimulationConfig()
    L = c.bearing_laplacian
    p = np.asarray(p0, dtype=float).reshape(-1).copy()
    if p.size != c.graph.n * c.d:
        raise ConfigError(
            f"initial positions must have length {c.graph.n * c.d}, got {p.size}"
        )
    n_steps = int(round(cfg.t_max / cfg.dt))
    propagator = None
    if cfg.integrator == "expm-oracle":
        propagator = scipy.linalg.expm(-L * cfg.dt)

    times, states = [], []

    def record(k: int, state: np.ndarray) -> None:
        times.append(k * cfg.dt)
        states.append(state.copy())

    record(0, p)
    for k in range(1, n_steps + 1):
        if cfg.integrator == "euler":
            p = p - cfg.dt * (L @ p)
        elif cfg.integrator == "rk4":
            p = _rk4_step(L, p, cfg.dt)
        else:
            p = propagator @ p
        if k % cfg.record_stride == 0 or k == n_steps:
            record(k, p)

    times_arr = np.array(times)
    pos = np.array(states)
    control = np.linalg.norm(pos @ L.T, axis=1)
    berr = np.array([c.bearing_error(row) for row in pos])

    converged_at = None
    below = control < cfg.convergence_threshold
    if below[-1]:
        idx = len(below) - 1
        while idx > 0 and below[idx - 1]:
            idx -= 1
        converged_at = float(times_arr[idx])

    return Trajectory(
        times=times_arr,
        positions=pos,
        control_norm=control,
        bearing_error=berr,
        converged_at=converged_at,
        config=cfg,
        d=c.d,
        seed=seed,
        scenario=scenario,
    )


def expm_oracle(c: BearingConstraintSet, p0: np.ndarray, t: float) -> np.ndarray:
    """Exact solution exp(-L t) p0 via scaling-and-squaring; validates integrators."""
    if t < 0:
        raise ValueError(f"time must be nonnegative, got {t}")
    p0 = np.asarray(p0, dtype=float).reshape(-1)
    return scipy.linalg.expm(-c.bearing_laplacian * float(t)) @ p0


def final_shape_check(
    traj: Trajectory,
    c: BearingConstraintSet,
    target: Formation,
    tol: float = 1e-6,
    equivalence_tol: float = EQUIVALENCE_TOL,
) -> ShapeCheck:
    """Compare the converged configuration against the target.

    `equivalent` uses the bearing-equivalence test against the target's
    bearings; `same_shape` asks whether the final positions lie in the
    span of the target positions and the translations, in which case the
    least-squares scale and translation are reported.
    """
    if traj.converged_at is None:
        raise NotConvergedError("trajectory did not converge; no final shape to check")
    p_final = traj.final_positions
    eq = check_bearing_equivalence(target, p_final, tol=equivalence_tol)

    n, d = target.n, target.d
    design = np.column_stack([target.p, np.kron(np.ones(n), np.eye(d)).T])
    coeffs, *_ = np.linalg.lstsq(design, p_final, rcond=None)
    residual = np.linalg.norm(design @ coeffs - p_final)
    same_shape = residual < tol * max(1.0, float(np.linalg.norm(p_final)))
    return ShapeCheck(
        equivalent=eq.equivalent,
        same_shape=bool(same_shape),
        scale_ratio=float(coeffs[0]),
        translation=coeffs[1:].copy(),
        max_edge_residual=eq.max_edge_residual,
        edge_signs=eq.edge_signs,
    )
