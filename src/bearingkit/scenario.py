"""Scenario files: the JSON format describing a target formation and run.

A scenario holds the directed graph, the target geometry (either node
positions whose bearings define the constraints, or explicit per-edge unit
bearings), and an optional initial-condition block, which is either explicit
positions or a seeded uniform draw from a bounding box.

Format (version 1):

    {
      "version": 1,
      "name": "fig2a",
      "dimension": 2,
      "nodes": [{"id": 1, "position": [-1.0, 1.0]}, ...],
      "edges": [[1, 4], [1, 2], ...],
      "target": {"from_positions": true} | {"bearings": [[...], ...]},
      "initial": {"positions": [[...], ...]}
                 | {"random_seed": 1, "box": {"low": ..., "high": ...}},
      "notes": "free text"
    }

Box bounds may be scalars (applied to every coordinate) or per-node arrays
of d-vectors.  Node ids must be 1..n in order; edge order is preserved and
fixes the row ordering of every derived matrix.  Ids, the seed and every
coordinate must be JSON numbers: `true` is not read as 1, nor "1.5" as 1.5.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import ParseError, ValidationError
from .formation import (
    DEGENERATE_EDGE_TOL,
    UNIT_BEARING_TOL,
    BearingConstraintSet,
    Formation,
)
from .graph import DirectedGraph

SCENARIO_VERSION = 1

#: Fallback bounding box half-width used when a scenario has no initial block.
DEFAULT_BOX = (-2.0, 2.0)


@dataclass(frozen=True)
class InitialSpec:
    positions: tuple[tuple[float, ...], ...] | None = None
    random_seed: int | None = None
    box_low: tuple[float, ...] | None = None  # flattened, length d*n
    box_high: tuple[float, ...] | None = None


@dataclass(frozen=True)
class Scenario:
    name: str
    dimension: int
    positions: tuple[tuple[float, ...], ...]  # node positions in id order
    edges: tuple[tuple[int, int], ...]
    target_bearings: tuple[tuple[float, ...], ...] | None  # None: from positions
    initial: InitialSpec | None = None
    notes: str = ""
    version: int = SCENARIO_VERSION

    @property
    def n(self) -> int:
        return len(self.positions)

    @property
    def m(self) -> int:
        return len(self.edges)

    def graph(self) -> DirectedGraph:
        return DirectedGraph(self.n, self.edges)

    def target_formation(self) -> Formation:
        """Formation at the scenario's node positions."""
        return Formation.from_points(self.graph(), np.array(self.positions))

    def constraint_set(self) -> BearingConstraintSet:
        """The bearing constraints this scenario stabilizes."""
        if self.target_bearings is None:
            return BearingConstraintSet.from_formation(self.target_formation())
        return BearingConstraintSet(
            self.graph(), self.dimension, np.array(self.target_bearings)
        )

    def initial_positions(self, seed: int | None = None) -> tuple[np.ndarray, int | None]:
        """Initial stacked positions and the seed that produced them.

        Explicit positions win; otherwise a uniform draw from the scenario's
        box (or the default box) using `seed`, falling back to the
        scenario's own seed and then to 0.  The returned seed is None when
        positions were explicit.
        """
        dn = self.n * self.dimension
        if self.initial is not None and self.initial.positions is not None:
            return np.array(self.initial.positions, dtype=float).reshape(-1), None
        low = np.full(dn, DEFAULT_BOX[0])
        high = np.full(dn, DEFAULT_BOX[1])
        scenario_seed = None
        if self.initial is not None:
            if self.initial.box_low is not None:
                low = np.array(self.initial.box_low, dtype=float)
                high = np.array(self.initial.box_high, dtype=float)
            scenario_seed = self.initial.random_seed
        used = seed if seed is not None else (scenario_seed if scenario_seed is not None else 0)
        rng = np.random.default_rng(used)
        return rng.uniform(low, high), used


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ValidationError(message)


def _is_int(value) -> bool:
    """A JSON integer; `bool` is a subclass of `int` but not a number here."""
    return isinstance(value, int) and not isinstance(value, bool)


def _number(value, where: str) -> float:
    """A finite JSON number as a float; booleans and strings are rejected."""
    _require(isinstance(value, (int, float)) and not isinstance(value, bool),
             f"{where}: entries must be numbers")
    try:
        out = float(value)
    except OverflowError:
        out = math.inf
    _require(math.isfinite(out), f"{where}: entries must be finite")
    return out


def _vector(value, d: int, where: str) -> tuple[float, ...]:
    _require(
        isinstance(value, (list, tuple)) and len(value) == d,
        f"{where}: expected a list of {d} numbers",
    )
    return tuple(_number(v, where) for v in value)


def _parse_initial(data, n: int, d: int) -> InitialSpec:
    _require(isinstance(data, dict), "initial: expected an object")
    if "positions" in data:
        pos = data["positions"]
        _require(
            isinstance(pos, list) and len(pos) == n,
            f"initial.positions: expected {n} position vectors",
        )
        rows = tuple(_vector(row, d, f"initial.positions[{i}]") for i, row in enumerate(pos))
        return InitialSpec(positions=rows)
    _require("random_seed" in data, "initial: needs 'positions' or 'random_seed'")
    seed = data["random_seed"]
    _require(_is_int(seed) and seed >= 0,
             "initial.random_seed: expected a nonnegative integer")
    low = high = None
    if "box" in data:
        box = data["box"]
        _require(
            isinstance(box, dict) and "low" in box and "high" in box,
            "initial.box: expected an object with 'low' and 'high'",
        )

        def bound(value, which: str) -> tuple[float, ...]:
            if isinstance(value, (int, float)):
                return (_number(value, f"initial.box.{which}"),) * (n * d)
            _require(
                isinstance(value, list) and len(value) == n,
                f"initial.box.{which}: expected a scalar or {n} d-vectors",
            )
            rows = [_vector(row, d, f"initial.box.{which}[{i}]") for i, row in enumerate(value)]
            return tuple(v for row in rows for v in row)

        low = bound(box["low"], "low")
        high = bound(box["high"], "high")
        _require(
            all(lo < hi for lo, hi in zip(low, high)),
            "initial.box: every low bound must be below its high bound",
        )
        _require(
            all(math.isfinite(hi - lo) for lo, hi in zip(low, high)),
            "initial.box: every width must be a finite number",
        )
    return InitialSpec(random_seed=seed, box_low=low, box_high=high)


def scenario_from_dict(data: dict, source: str = "<dict>") -> Scenario:
    """Validate a parsed JSON object into a Scenario."""
    _require(isinstance(data, dict), f"{source}: top level must be an object")
    version = data.get("version")
    _require(_is_int(version) and version == SCENARIO_VERSION,
             f"{source}: missing or unsupported 'version' (expected {SCENARIO_VERSION})")
    name = data.get("name")
    _require(isinstance(name, str) and name != "", f"{source}: 'name' must be a nonempty string")
    d = data.get("dimension")
    _require(_is_int(d) and d >= 2, f"{source}: 'dimension' must be an integer >= 2")

    nodes = data.get("nodes")
    _require(isinstance(nodes, list) and len(nodes) >= 2, f"{source}: need at least 2 nodes")
    positions: list[tuple[float, ...]] = []
    for idx, node in enumerate(nodes):
        _require(
            isinstance(node, dict) and "id" in node and "position" in node,
            f"nodes[{idx}]: expected an object with 'id' and 'position'",
        )
        _require(
            _is_int(node["id"]) and node["id"] == idx + 1,
            f"nodes[{idx}]: ids must be contiguous from 1 (expected {idx + 1}, got {node['id']})",
        )
        positions.append(_vector(node["position"], d, f"nodes[{idx}].position"))
    n = len(positions)

    raw_edges = data.get("edges")
    _require(isinstance(raw_edges, list) and raw_edges, f"{source}: need at least 1 edge")
    edges: list[tuple[int, int]] = []
    for idx, pair in enumerate(raw_edges):
        _require(
            isinstance(pair, list) and len(pair) == 2
            and all(_is_int(v) for v in pair),
            f"edges[{idx}]: expected a pair of integer node ids",
        )
        i, j = pair
        _require(i != j, f"edges[{idx}]: self-loop at node {i}")
        _require(1 <= i <= n and 1 <= j <= n, f"edges[{idx}]: node id outside 1..{n}")
        _require((i, j) not in edges, f"edges[{idx}]: duplicate directed edge ({i}, {j})")
        length = float(np.linalg.norm(np.subtract(positions[j - 1], positions[i - 1])))
        _require(
            length > DEGENERATE_EDGE_TOL,
            f"edges[{idx}]: nodes {i} and {j} coincide (distance {length:.3e})",
        )
        edges.append((i, j))

    target = data.get("target")
    _require(isinstance(target, dict), f"{source}: 'target' must be an object")
    bearings = None
    from_positions = target.get("from_positions", False)
    _require(isinstance(from_positions, bool), "target.from_positions: expected true or false")
    if from_positions:
        _require("bearings" not in target, "target: give 'from_positions' or 'bearings', not both")
    else:
        raw = target.get("bearings")
        _require(
            isinstance(raw, list) and len(raw) == len(edges),
            f"target.bearings: expected one unit vector per edge ({len(edges)})",
        )
        rows = []
        for idx, vec in enumerate(raw):
            row = _vector(vec, d, f"target.bearings[{idx}]")
            norm = float(np.linalg.norm(row))
            _require(
                abs(norm - 1.0) <= UNIT_BEARING_TOL,
                f"target.bearings[{idx}]: norm {norm:.15g} is not 1 (normalize first)",
            )
            rows.append(row)
        bearings = tuple(rows)

    initial = None
    if data.get("initial") is not None:
        initial = _parse_initial(data["initial"], n, d)

    notes = data.get("notes", "")
    _require(isinstance(notes, str), f"{source}: 'notes' must be a string")

    return Scenario(
        name=name,
        dimension=d,
        positions=tuple(positions),
        edges=tuple(edges),
        target_bearings=bearings,
        initial=initial,
        notes=notes,
    )


def scenario_to_dict(s: Scenario) -> dict:
    """Inverse of scenario_from_dict; parse(serialize(s)) == s."""
    out: dict = {
        "version": s.version,
        "name": s.name,
        "dimension": s.dimension,
        "nodes": [
            {"id": i + 1, "position": list(pos)} for i, pos in enumerate(s.positions)
        ],
        "edges": [list(e) for e in s.edges],
    }
    if s.target_bearings is None:
        out["target"] = {"from_positions": True}
    else:
        out["target"] = {"bearings": [list(b) for b in s.target_bearings]}
    if s.initial is not None:
        init: dict = {}
        if s.initial.positions is not None:
            init["positions"] = [list(row) for row in s.initial.positions]
        else:
            init["random_seed"] = s.initial.random_seed
            if s.initial.box_low is not None:
                n, d = s.n, s.dimension
                init["box"] = {
                    "low": [list(s.initial.box_low[i * d:(i + 1) * d]) for i in range(n)],
                    "high": [list(s.initial.box_high[i * d:(i + 1) * d]) for i in range(n)],
                }
        out["initial"] = init
    if s.notes:
        out["notes"] = s.notes
    return out


def parse_scenario(path: str | Path) -> Scenario:
    """Load and validate a scenario file."""
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as exc:
        raise ParseError(f"{path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    return scenario_from_dict(data, source=str(path))


def list_fixtures() -> list[str]:
    """Names of the bundled scenarios."""
    root = resources.files(__package__) / "fixtures"
    return sorted(p.name[:-len(".json")] for p in root.iterdir() if p.name.endswith(".json"))


def load_fixture(name: str) -> Scenario:
    """Load a bundled scenario by name (see list_fixtures)."""
    root = resources.files(__package__) / "fixtures"
    candidate = root / f"{name}.json"
    if not candidate.is_file():
        raise ValidationError(
            f"unknown fixture {name!r}; available: {', '.join(list_fixtures())}"
        )
    data = json.loads(candidate.read_text())
    return scenario_from_dict(data, source=f"fixture:{name}")


def resolve_scenario(ref: str) -> Scenario:
    """Accept either a bundled fixture name or a path to a scenario file."""
    root = resources.files(__package__) / "fixtures"
    if (root / f"{ref}.json").is_file():
        return load_fixture(ref)
    if Path(ref).exists():
        return parse_scenario(ref)
    raise ValidationError(
        f"{ref!r} is neither a bundled fixture ({', '.join(list_fixtures())}) "
        "nor an existing file"
    )
