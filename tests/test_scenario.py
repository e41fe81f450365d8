import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bearingkit import (
    ParseError,
    Scenario,
    ScenarioError,
    ValidationError,
    list_fixtures,
    load_fixture,
    parse_scenario,
    resolve_scenario,
    scenario_from_dict,
    scenario_to_dict,
)
from bearingkit.formation import DEGENERATE_EDGE_TOL
from bearingkit.scenario import InitialSpec


def minimal_dict(**overrides):
    data = {
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
    data.update(overrides)
    return data


class TestFixtures:
    def test_all_six_bundled(self):
        assert list_fixtures() == ["fig1a", "fig1b", "fig2a", "fig2b", "fig3a", "fig3b"]

    def test_fig2a_contents(self):
        s = load_fixture("fig2a")
        assert s.dimension == 2
        assert s.positions == ((-1.0, 1.0), (1.0, 1.0), (1.0, -1.0), (-1.0, -1.0))
        assert s.edges == ((1, 4), (1, 2), (2, 3), (3, 4), (2, 4))
        assert s.target_bearings is None
        assert s.initial.random_seed == 1

    def test_fig3a_edges(self):
        s = load_fixture("fig3a")
        assert s.edges == ((1, 4), (2, 1), (2, 3), (3, 4), (2, 4))
        assert s.positions == load_fixture("fig2a").positions

    def test_fig3b_collinear_geometry(self):
        s = load_fixture("fig3b")
        pts = np.array(s.positions)
        # agents 2, 3, 4 on one horizontal line, agent 1 off it
        assert pts[1, 1] == pts[2, 1] == pts[3, 1]
        assert pts[0, 1] != pts[1, 1]

    def test_unknown_fixture(self):
        with pytest.raises(ValidationError, match="available"):
            load_fixture("fig9z")

    def test_round_trip_identity(self):
        for name in list_fixtures():
            s = load_fixture(name)
            again = scenario_from_dict(scenario_to_dict(s))
            assert again == s


class TestValidation:
    def test_minimal_valid(self):
        s = scenario_from_dict(minimal_dict())
        assert s.n == 2 and s.m == 1

    def test_self_loop(self):
        with pytest.raises(ValidationError, match="self-loop"):
            scenario_from_dict(minimal_dict(edges=[[1, 1]]))

    def test_duplicate_edge(self):
        with pytest.raises(ValidationError, match="duplicate"):
            scenario_from_dict(minimal_dict(edges=[[1, 2], [1, 2]]))

    def test_edge_to_unknown_node(self):
        with pytest.raises(ValidationError, match="outside"):
            scenario_from_dict(minimal_dict(edges=[[1, 3]]))

    def test_non_contiguous_ids(self):
        data = minimal_dict()
        data["nodes"][1]["id"] = 5
        with pytest.raises(ValidationError, match="contiguous"):
            scenario_from_dict(data)

    def test_coincident_adjacent_nodes(self):
        data = minimal_dict()
        data["nodes"][1]["position"] = [0.0, 0.0]
        with pytest.raises(ValidationError, match="coincide"):
            scenario_from_dict(data)

    def test_non_unit_bearing(self):
        data = minimal_dict(target={"bearings": [[1.0, 1.0]]})
        with pytest.raises(ValidationError, match="norm"):
            scenario_from_dict(data)

    def test_unit_bearings_accepted(self):
        r = 1.0 / np.sqrt(2.0)
        s = scenario_from_dict(minimal_dict(target={"bearings": [[r, r]]}))
        assert s.target_bearings is not None
        c = s.constraint_set()
        assert np.allclose(c.bearings[0], [r, r])

    def test_missing_version(self):
        data = minimal_dict()
        del data["version"]
        with pytest.raises(ValidationError, match="version"):
            scenario_from_dict(data)

    def test_bearing_count_mismatch(self):
        data = minimal_dict(edges=[[1, 2], [2, 1]], target={"bearings": [[1.0, 0.0]]})
        with pytest.raises(ValidationError, match="per edge"):
            scenario_from_dict(data)

    def test_bad_box_ordering(self):
        data = minimal_dict(
            initial={"random_seed": 0, "box": {"low": 2.0, "high": -2.0}}
        )
        with pytest.raises(ValidationError, match="below"):
            scenario_from_dict(data)

    @staticmethod
    def _set(data, path, value):
        for key in path[:-1]:
            data = data[key]
        data[path[-1]] = value

    @pytest.mark.parametrize("path, value, match", [
        (("version",), True, "version"),
        (("edges", 0), [True, 2], "integer node ids"),
        (("nodes", 0, "id"), True, "contiguous"),
        (("initial", "random_seed"), True, "random_seed"),
        (("nodes", 1, "position", 0), True, "numbers"),
        (("target",), {"bearings": [[True, 0.0]]}, "numbers"),
        (("initial", "box", "high"), True, "numbers"),
    ], ids=["version", "edge", "node-id", "random-seed", "position", "bearing", "box-bound"])
    def test_boolean_rejected(self, path, value, match):
        # True == 1 and isinstance(True, int), so each of these once parsed.
        data = minimal_dict(initial={"random_seed": 0, "box": {"low": -2.0, "high": 2.0}})
        scenario_from_dict(data)
        self._set(data, path, value)
        with pytest.raises(ValidationError, match=match):
            scenario_from_dict(data)

    @pytest.mark.parametrize("path, value, match", [
        (("nodes", 1, "position", 0), "1.0", "numbers"),
        (("nodes", 1, "position", 0), 10 ** 400, "finite"),
        (("initial", "random_seed"), -1, "nonnegative"),
        (("target", "from_positions"), "yes", "from_positions"),
        (("initial", "box"), {"low": -1e308, "high": 1e308}, "width"),
    ], ids=["string-coordinate", "huge-coordinate", "negative-seed", "truthy-from-positions",
            "overflowing-box"])
    def test_coercible_value_rejected(self, path, value, match):
        data = minimal_dict(initial={"random_seed": 0})
        self._set(data, path, value)
        with pytest.raises(ValidationError, match=match):
            scenario_from_dict(data)


class TestParseScenario:
    def test_parse_from_file(self, tmp_path):
        path = tmp_path / "pair.json"
        path.write_text(json.dumps(minimal_dict()))
        s = parse_scenario(path)
        assert s.name == "pair"

    def test_syntax_error_reports_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "version": 1,\n  "oops"\n}')
        with pytest.raises(ParseError, match=r"broken\.json:\d+:\d+:"):
            parse_scenario(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ParseError):
            parse_scenario(tmp_path / "nope.json")

    def test_resolve_prefers_fixture_name(self):
        assert resolve_scenario("fig2a").name == "fig2a"

    def test_resolve_path(self, tmp_path):
        path = tmp_path / "custom.json"
        path.write_text(json.dumps(minimal_dict(name="custom")))
        assert resolve_scenario(str(path)).name == "custom"

    def test_resolve_unknown(self):
        with pytest.raises(ValidationError):
            resolve_scenario("no-such-thing")


class TestInitialPositions:
    def test_explicit_positions(self):
        data = minimal_dict(initial={"positions": [[0.5, 0.5], [2.0, 0.0]]})
        s = scenario_from_dict(data)
        p0, seed = s.initial_positions()
        assert np.array_equal(p0, [0.5, 0.5, 2.0, 0.0])
        assert seed is None

    def test_seeded_draw_deterministic(self):
        s = scenario_from_dict(minimal_dict(
            initial={"random_seed": 7, "box": {"low": -1.0, "high": 1.0}}
        ))
        a, seed_a = s.initial_positions()
        b, seed_b = s.initial_positions()
        assert seed_a == seed_b == 7
        assert np.array_equal(a, b)
        assert np.all((a >= -1.0) & (a <= 1.0))

    def test_seed_override(self):
        s = scenario_from_dict(minimal_dict(
            initial={"random_seed": 7, "box": {"low": -1.0, "high": 1.0}}
        ))
        p_default, _ = s.initial_positions()
        p_override, used = s.initial_positions(seed=8)
        assert used == 8
        assert not np.array_equal(p_default, p_override)

    def test_per_node_box(self):
        s = scenario_from_dict(minimal_dict(
            initial={
                "random_seed": 1,
                "box": {"low": [[0.0, 0.0], [10.0, 10.0]],
                        "high": [[1.0, 1.0], [11.0, 11.0]]},
            }
        ))
        p0, _ = s.initial_positions()
        assert np.all((p0[:2] >= 0.0) & (p0[:2] <= 1.0))
        assert np.all((p0[2:] >= 10.0) & (p0[2:] <= 11.0))

    def test_default_box_without_initial_block(self):
        s = scenario_from_dict(minimal_dict())
        p0, seed = s.initial_positions()
        assert seed == 0
        assert np.all((p0 >= -2.0) & (p0 <= 2.0))


# Derandomized and without deadlines, so that every run checks the same
# examples and a slow machine cannot fail them.
PROPERTY = settings(derandomize=True, deadline=None, database=None, max_examples=150)

_coordinate = st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False)


@st.composite
def valid_scenarios(draw) -> Scenario:
    d = draw(st.integers(2, 3))
    n = draw(st.integers(2, 5))
    positions = draw(st.lists(st.tuples(*[_coordinate] * d), min_size=n, max_size=n))
    pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1) if i != j
             and np.linalg.norm(np.subtract(positions[j - 1], positions[i - 1]))
             > DEGENERATE_EDGE_TOL]
    if not pairs:  # every node at one point: move the last one away
        positions = positions[:-1] + [tuple(x + 1.0 for x in positions[-1])]
        pairs = [(1, n)]
    edges = tuple(draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True)))
    bearings = None
    if draw(st.booleans()):
        rows = [np.subtract(positions[j - 1], positions[i - 1]) for i, j in edges]
        bearings = tuple(tuple((r / np.linalg.norm(r)).tolist()) for r in rows)
    kind = draw(st.sampled_from(("none", "positions", "seed", "box")))
    initial = None
    if kind == "positions":
        initial = InitialSpec(positions=tuple(
            draw(st.lists(st.tuples(*[_coordinate] * d), min_size=n, max_size=n))))
    elif kind in ("seed", "box"):
        low = high = None
        if kind == "box":
            low = draw(st.lists(_coordinate, min_size=n * d, max_size=n * d))
            widths = draw(st.lists(st.floats(1e-3, 10.0), min_size=n * d, max_size=n * d))
            low, high = tuple(low), tuple(lo + w for lo, w in zip(low, widths))
        initial = InitialSpec(random_seed=draw(st.integers(0, 2 ** 63)),
                              box_low=low, box_high=high)
    return Scenario(
        name=draw(st.text(min_size=1, max_size=12)),
        dimension=d,
        positions=tuple(positions),
        edges=edges,
        target_bearings=bearings,
        initial=initial,
        notes=draw(st.text(max_size=12)),
    )


_KEYS = ("version", "name", "dimension", "nodes", "id", "position", "edges", "target",
         "from_positions", "bearings", "initial", "positions", "random_seed", "box",
         "low", "high", "notes")

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.sampled_from(_KEYS) | st.text(max_size=3),
                                        children, max_size=4)),
    max_leaves=12,
)

_DELETE = object()


def _leaves(value):
    if isinstance(value, list):
        for item in value:
            yield from _leaves(item)
    else:
        yield value


def numeric_fields(doc):
    """Every value of a parseable scenario document that the parser reads as a number."""
    initial = doc.get("initial") or {}
    fields = [doc["version"], doc["dimension"], [node["id"] for node in doc["nodes"]],
              [node["position"] for node in doc["nodes"]], doc["edges"],
              doc["target"].get("bearings", []), initial.get("positions", [])]
    if "positions" not in initial:
        box = initial.get("box", {})
        fields += [initial.get("random_seed", 0), box.get("low", 0), box.get("high", 0)]
    return list(_leaves(fields))


def field_paths(value, path=()):
    """Every key or index path inside a parsed JSON value, the root included."""
    yield path
    items = value.items() if isinstance(value, dict) else (
        enumerate(value) if isinstance(value, list) else ())
    for key, child in items:
        yield from field_paths(child, path + (key,))


class TestProperties:
    @PROPERTY
    @given(valid_scenarios())
    def test_serialize_then_parse_is_identity(self, s):
        data = json.loads(json.dumps(scenario_to_dict(s)))
        assert scenario_from_dict(data) == s

    @PROPERTY
    @given(valid_scenarios(), st.data())
    def test_any_one_field_replaced_raises_only_scenario_error(self, s, data):
        # A boolean must never pass for a number: True == 1 in Python.
        doc = json.loads(json.dumps(scenario_to_dict(s)))
        path = data.draw(st.sampled_from(list(field_paths(doc))))
        value = data.draw(st.just(_DELETE) | st.booleans() | json_values)
        if not path:
            doc = None if value is _DELETE else value
        else:
            parent = doc
            for key in path[:-1]:
                parent = parent[key]
            if value is _DELETE:
                del parent[path[-1]]
            else:
                parent[path[-1]] = value
        try:
            scenario_from_dict(doc)
        except ScenarioError:
            return
        assert not any(isinstance(v, bool) for v in numeric_fields(doc))
