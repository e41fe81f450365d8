"""Batch probe of the directed bearing-Laplacian spectrum.

Whether every directed bearing Laplacian has eigenvalues with nonnegative
real parts is an open question.  This harness generates seeded random
directed formations, records the minimum real part per trial, and flags any
value below the violation threshold as a candidate counterexample, dumping
the full scenario for replay.  It reports; it never asserts the conjecture.

The random-formation generators here are also what the property-test suite
uses, so every randomized experiment in the project is reproducible from a
(seed, trial index) pair.
"""

from __future__ import annotations

import json
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .analysis import classify, laplacian_spectrum, outgoing_pair_separation
from .errors import ConfigError
from .formation import BearingConstraintSet, Formation
from .graph import DirectedGraph, is_weakly_connected
from .linalg import DEFAULT_RANK_TOL, check_rank_tolerance
from .scenario import Scenario, scenario_to_dict

GRAPH_MODELS = ("erdos-renyi-directed", "erdos-renyi-undirected", "random-out-degree-capped")

#: A trial whose minimum real part falls below this is a violation candidate.
VIOLATION_THRESHOLD = -1e-8

#: Shortest admissible edge in generated formations.
MIN_EDGE_LENGTH = 1e-3

#: Non-collinearity margin enforced by the capped generator; kept far above
#: the rank tolerance because the relevant singular-value gaps shrink with
#: the square of this margin.
COLLINEARITY_MARGIN = 1e-3


@dataclass
class ConjectureBatchConfig:
    trials: int
    n_range: tuple[int, int] = (3, 10)
    d_range: tuple[int, int] = (2, 3)
    graph_model: str = "erdos-renyi-directed"
    seed: int = 42
    box: tuple[float, float] = (-2.0, 2.0)
    #: Relative rank tolerance of every trial's classification; it travels
    #: to worker processes with the config.
    tol_rel: float = DEFAULT_RANK_TOL

    def __post_init__(self):
        if self.trials < 1:
            raise ConfigError(f"trials must be >= 1, got {self.trials}")
        if not (2 <= self.n_range[0] <= self.n_range[1]):
            raise ConfigError(f"invalid n_range {self.n_range}")
        if not (2 <= self.d_range[0] <= self.d_range[1]):
            raise ConfigError(f"invalid d_range {self.d_range}")
        if self.graph_model not in GRAPH_MODELS:
            raise ConfigError(
                f"unknown graph model {self.graph_model!r}; choose from {GRAPH_MODELS}"
            )
        if not (self.box[0] < self.box[1]):
            raise ConfigError(f"invalid position box {self.box}")
        try:
            self.tol_rel = check_rank_tolerance(self.tol_rel)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None


@dataclass
class TrialRecord:
    index: int
    seed: list[int]
    n: int
    d: int
    m: int
    min_real_part: float
    persistent: bool
    rigid: bool

    @property
    def is_violation(self) -> bool:
        return self.min_real_part < VIOLATION_THRESHOLD


@dataclass
class BatchReport:
    config: ConjectureBatchConfig
    records: list[TrialRecord]
    min_real_part: float
    violations: list[int] = field(default_factory=list)
    elapsed_seconds: float = 0.0

    def to_json_dict(self) -> dict:
        return {
            "config": {
                "trials": self.config.trials,
                "n_range": list(self.config.n_range),
                "d_range": list(self.config.d_range),
                "graph_model": self.config.graph_model,
                "seed": self.config.seed,
                "box": list(self.config.box),
                "tol_rel": self.config.tol_rel,
            },
            "aggregate_min_real_part": self.min_real_part,
            "violations": self.violations,
            "elapsed_seconds": self.elapsed_seconds,
            "trials": [
                {
                    "index": r.index,
                    "seed": r.seed,
                    "n": r.n,
                    "d": r.d,
                    "m": r.m,
                    "min_real_part": r.min_real_part,
                    "persistent": r.persistent,
                    "rigid": r.rigid,
                }
                for r in self.records
            ],
        }


def random_directed_graph(rng: np.random.Generator, n: int, edge_prob: float = 0.4) -> DirectedGraph:
    """Directed Erdos-Renyi graph, resampled until weakly connected."""
    while True:
        mask = rng.random((n, n)) < edge_prob
        edges = [(i + 1, j + 1) for i in range(n) for j in range(n) if i != j and mask[i, j]]
        if not edges:
            continue
        g = DirectedGraph(n, tuple(edges))
        if is_weakly_connected(g):
            return g


def random_undirected_graph(rng: np.random.Generator, n: int, edge_prob: float = 0.4) -> DirectedGraph:
    """Undirected Erdos-Renyi graph encoded as reciprocal directed edges."""
    while True:
        edges = []
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                if rng.random() < edge_prob:
                    edges.append((i, j))
                    edges.append((j, i))
        if not edges:
            continue
        g = DirectedGraph(n, tuple(edges))
        if is_weakly_connected(g):
            return g


def random_capped_graph(
    rng: np.random.Generator, n: int, cap: int = 2, extra_prob: float = 0.5
) -> DirectedGraph:
    """Weakly connected digraph in which every agent has out-degree <= cap.

    Vertices 2..n each point at an earlier vertex (which already makes the
    underlying graph a connected tree); further out-edges are added at
    random up to the cap.
    """
    edges: list[tuple[int, int]] = []
    for i in range(2, n + 1):
        edges.append((i, int(rng.integers(1, i))))
    for i in range(1, n + 1):
        degree = sum(1 for a, _ in edges if a == i)
        while degree < cap and rng.random() < extra_prob:
            j = int(rng.integers(1, n + 1))
            if j != i and (i, j) not in edges:
                edges.append((i, j))
                degree += 1
            else:
                break
    return DirectedGraph(n, tuple(edges))


def random_positions(
    rng: np.random.Generator,
    graph: DirectedGraph,
    d: int,
    box: tuple[float, float] = (-2.0, 2.0),
    min_edge: float = MIN_EDGE_LENGTH,
) -> np.ndarray:
    """Uniform positions in the box, resampled until no edge is shorter than min_edge."""
    while True:
        pts = rng.uniform(box[0], box[1], size=(graph.n, d))
        lengths = np.linalg.norm(pts[graph.heads] - pts[graph.tails], axis=1)
        if lengths.min() > min_edge:
            return pts


def random_formation(
    rng: np.random.Generator,
    n: int,
    d: int,
    graph_model: str = "erdos-renyi-directed",
    box: tuple[float, float] = (-2.0, 2.0),
) -> Formation:
    """A random nondegenerate formation under the given graph model."""
    if graph_model == "erdos-renyi-directed":
        g = random_directed_graph(rng, n)
    elif graph_model == "erdos-renyi-undirected":
        g = random_undirected_graph(rng, n)
    elif graph_model == "random-out-degree-capped":
        g = random_capped_graph(rng, n)
    else:
        raise ConfigError(f"unknown graph model {graph_model!r}")
    return Formation.from_points(g, random_positions(rng, g, d, box))


def random_capped_formation(
    rng: np.random.Generator,
    n: int,
    d: int = 2,
    box: tuple[float, float] = (-2.0, 2.0),
    margin: float = COLLINEARITY_MARGIN,
) -> Formation:
    """Formation with out-degree <= 2 and non-collinear outgoing bearings.

    Positions are resampled until every agent with two outgoing edges has
    bearings separated by at least `margin` (measured as the norm of one
    bearing projected off the other), so the sufficient persistence
    condition holds by construction.
    """
    g = random_capped_graph(rng, n)
    while True:
        f = Formation.from_points(g, random_positions(rng, g, d, box))
        _, separation = outgoing_pair_separation(f)
        if not np.any(separation <= margin):  # NaN (out-degree not 2) never compares
            return f


def _trial_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, index])


def run_trial(cfg: ConjectureBatchConfig, index: int) -> tuple[TrialRecord, dict | None]:
    """One seeded trial; returns the record and, on violation, a replay scenario."""
    rng = _trial_rng(cfg.seed, index)
    n = int(rng.integers(cfg.n_range[0], cfg.n_range[1] + 1))
    d = int(rng.integers(cfg.d_range[0], cfg.d_range[1] + 1))
    f = random_formation(rng, n, d, cfg.graph_model, cfg.box)
    spectrum = laplacian_spectrum(BearingConstraintSet.from_formation(f))
    report = classify(f, tol_rel=cfg.tol_rel)
    record = TrialRecord(
        index=index,
        seed=[cfg.seed, index],
        n=n,
        d=d,
        m=f.m,
        min_real_part=spectrum.min_real_part,
        persistent=report.is_persistent,
        rigid=report.is_rigid,
    )
    replay = None
    if record.is_violation:
        scenario = Scenario(
            name=f"conjecture-violation-trial-{index}",
            dimension=d,
            positions=tuple(tuple(row) for row in f.points.tolist()),
            edges=f.graph.edges,
            target_bearings=None,
            notes=(
                f"min real part {spectrum.min_real_part:.17g} from batch seed "
                f"{cfg.seed}, trial {index}"
            ),
        )
        replay = scenario_to_dict(scenario)
    return record, replay


def _run_trial_star(args: tuple[ConjectureBatchConfig, int]) -> tuple[TrialRecord, dict | None]:
    return run_trial(*args)


def run_batch(
    cfg: ConjectureBatchConfig,
    jobs: int = 1,
    out_dir: str | Path | None = None,
) -> BatchReport:
    """Run all trials (optionally in parallel) and collect the report.

    Results are aggregated in trial order regardless of completion order,
    so the report is identical for any job count.  Violating trials are
    dumped as scenario files into `out_dir` for replay.
    """
    start = time.perf_counter()
    args = [(cfg, i) for i in range(cfg.trials)]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_run_trial_star, args, chunksize=16))
    else:
        results = [run_trial(cfg, i) for i in range(cfg.trials)]

    records = [rec for rec, _ in results]
    violations = [rec.index for rec, _ in results if rec.is_violation]
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        for rec, replay in results:
            if replay is not None:
                path = out_dir / f"conjecture_violation_trial_{rec.index}.json"
                path.write_text(json.dumps(replay, indent=2) + "\n")

    return BatchReport(
        config=cfg,
        records=records,
        min_real_part=min(r.min_real_part for r in records),
        violations=violations,
        elapsed_seconds=time.perf_counter() - start,
    )
