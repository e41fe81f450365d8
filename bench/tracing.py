"""Span recorder for the traced benchmark run.

Spans are recorded by wrapping the public functions at each layer boundary
of `bearingkit`, at every place a function is bound: the defining module
and each module that imported it by name.  The program itself is not
changed.  A span is (name, start, end, parent index); all spans stay in
memory until the pass ends.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time

MODULES = ("graph", "linalg", "formation", "analysis", "simulation",
           "conjecture", "scenario", "cli")

#: Layer -> module-level functions wrapped with a span.
FUNCTIONS = {
    "graph": ("incidence_matrix", "expanded_incidence", "is_weakly_connected"),
    "linalg": ("numeric_rank", "nullspace_basis", "span_basis", "spectral_projector_zero"),
    "analysis": ("classify", "laplacian_spectrum", "check_bearing_equivalence",
                 "is_infinitesimally_bearing_rigid", "is_bearing_persistent",
                 "sufficient_persistence_2d", "realize_constraints"),
    "simulation": ("simulate", "final_shape_check"),
    "conjecture": ("run_batch", "run_trial", "random_formation"),
    "scenario": ("resolve_scenario",),
    "cli": ("cmd_analyze", "cmd_simulate", "cmd_export_matrices", "cmd_conjecture"),
}

#: Layer -> (class, attribute) pairs wrapped with a span.  A cached property
#: records only its first access per instance, which is when it is built.
METHODS = {
    "formation": (("Formation", "bearing_rigidity_matrix"),
                  ("BearingConstraintSet", "bearing_laplacian")),
    "simulation": (("Trajectory", "write_csv"), ("Trajectory", "write_json")),
}

INCIDENCE = {"graph.incidence_matrix", "graph.expanded_incidence"}
RANK_FUNCTIONS = {f"linalg.{name}" for name in FUNCTIONS["linalg"]}
CLI_COMMANDS = {f"cli.{name}" for name in FUNCTIONS["cli"]}

#: Per-layer metric -> unit, in the order they are reported.
LAYER_METRICS = {
    "graph.incidence_s": "s",
    "graph.incidence_calls": "count",
    "formation.rigidity_matrix_s": "s",
    "formation.laplacian_s": "s",
    "formation.laplacian_builds_per_classify": "count",
    "linalg.self_s": "s",
    "linalg.nullspace_s": "s",
    "linalg.calls_per_classify": "count",
    "analysis.classify_s": "s",
    "analysis.spectrum_s": "s",
    "analysis.spectrum_calls_per_trial": "count",
    "analysis.equivalence_s": "s",
    "simulation.simulate_s": "s",
    "simulation.export_s": "s",
    "conjecture.generate_s": "s",
    "conjecture.trial_ms_p50": "ms",
    "conjecture.trial_ms_p99": "ms",
    "scenario.parse_s": "s",
    "cli.self_s": "s",
}


class Tracer:
    """Installs span-recording wrappers and keeps the spans in memory."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int] | None] = []
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent)

        return traced

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        modules = [importlib.import_module(f"bearingkit.{m}") for m in MODULES]
        for layer, names in FUNCTIONS.items():
            home = importlib.import_module(f"bearingkit.{layer}")
            for fname in names:
                original = getattr(home, fname)
                wrapped = self._wrap(f"{layer}.{fname}", original)
                for module in modules:
                    if module.__dict__.get(fname) is original:
                        self._set(module, fname, wrapped)
        for layer, pairs in METHODS.items():
            home = importlib.import_module(f"bearingkit.{layer}")
            for cls_name, attr in pairs:
                cls = getattr(home, cls_name)
                original = cls.__dict__[attr]
                if isinstance(original, functools.cached_property):
                    wrapped = functools.cached_property(
                        self._wrap(f"{layer}.{attr}", original.func))
                    wrapped.__set_name__(cls, attr)
                else:
                    wrapped = self._wrap(f"{layer}.{attr}", original)
                self._set(cls, attr, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def as_records(self) -> list[dict]:
        return [{"name": n, "start": s, "end": e, "parent": p}
                for n, s, e, p in self.spans]


def layer_metrics(spans: list[tuple[str, float, float, int]]) -> dict[str, float]:
    """Reduce one pass's spans to the per-layer metrics in LAYER_METRICS."""
    covered = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start

    def ancestors(index: int):
        parent = spans[index][3]
        while parent >= 0:
            yield spans[parent][0]
            parent = spans[parent][3]

    def outermost(names: set[str]) -> list[float]:
        """Durations of spans in `names` not nested in another of them."""
        return [end - start for i, (name, start, end, _) in enumerate(spans)
                if name in names and not names.intersection(ancestors(i))]

    def inside(names: set[str], outer: str) -> int:
        return sum(1 for i, (name, *_) in enumerate(spans)
                   if name in names and outer in ancestors(i))

    def self_time(names: set[str]) -> float:
        return sum(end - start - covered[i]
                   for i, (name, start, end, _) in enumerate(spans) if name in names)

    def ratio(count: int, base: int) -> float:
        return count / base if base else 0.0

    classifies = len(outermost({"analysis.classify"}))
    trials_ms = [1e3 * t for t in outermost({"conjecture.run_trial"})]
    if len(trials_ms) >= 2:
        percentiles = statistics.quantiles(trials_ms, n=100, method="inclusive")
        p50, p99 = percentiles[49], percentiles[98]
    else:
        p50 = p99 = trials_ms[0] if trials_ms else 0.0
    incidence = outermost(INCIDENCE)
    return {
        "graph.incidence_s": sum(incidence),
        "graph.incidence_calls": len(incidence),
        "formation.rigidity_matrix_s": sum(outermost({"formation.bearing_rigidity_matrix"})),
        "formation.laplacian_s": sum(outermost({"formation.bearing_laplacian"})),
        "formation.laplacian_builds_per_classify": ratio(
            inside({"formation.bearing_laplacian"}, "analysis.classify"), classifies),
        "linalg.self_s": self_time(RANK_FUNCTIONS),
        "linalg.nullspace_s": sum(outermost({"linalg.nullspace_basis"})),
        "linalg.calls_per_classify": ratio(
            inside(RANK_FUNCTIONS, "analysis.classify"), classifies),
        "analysis.classify_s": sum(outermost({"analysis.classify"})),
        "analysis.spectrum_s": sum(outermost({"analysis.laplacian_spectrum"})),
        "analysis.spectrum_calls_per_trial": ratio(
            inside({"analysis.laplacian_spectrum"}, "conjecture.run_trial"), len(trials_ms)),
        "analysis.equivalence_s": sum(outermost({"analysis.check_bearing_equivalence"})),
        "simulation.simulate_s": sum(outermost({"simulation.simulate"})),
        "simulation.export_s": sum(outermost({"simulation.write_csv", "simulation.write_json"})),
        "conjecture.generate_s": sum(outermost({"conjecture.random_formation"})),
        "conjecture.trial_ms_p50": p50,
        "conjecture.trial_ms_p99": p99,
        "scenario.parse_s": sum(outermost({"scenario.resolve_scenario"})),
        "cli.self_s": self_time(CLI_COMMANDS),
    }
