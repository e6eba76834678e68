"""Per-layer tracing from outside the program.

Wrappers are placed at the names callers look up (a module global or a
class attribute) and removed again after each traced job. Job, batch and
search calls become spans (name, start, end, parent), kept in memory and
written out when the run ends; per-edge and per-step calls only add to
summed counts and times. A layer's self time is the time its spans and
calls cover minus the time their child spans and calls cover.

A wrapped name that the program no longer has is skipped and reported as
absent; the metrics that depend on it then read 0, except eden.steps,
which falls back to the race's settled counts.
"""

from __future__ import annotations

import importlib
import itertools
import json
import time
from collections import Counter, defaultdict

# (module, attribute path, layer, kind); kind "span" records a span,
# "sum" sums count and time, "count" only counts
TARGETS = (
    ("fppslab.cli", "run_slab_mc", "experiments", "span"),
    ("fppslab.cli", "sample_crossing_values", "experiments", "span"),
    ("fppslab.cli", "concentration_curve", "experiments", "span"),
    ("fppslab.cli", "subadditivity_check", "experiments", "span"),
    ("fppslab.cli", "search_cross_probe", "experiments", "span"),
    ("fppslab.cli", "ui_tail", "experiments", "span"),
    ("fppslab.cli", "bound_report", "bounds", "span"),
    ("fppslab.experiments", "slab_crossing_time", "slab", "span"),
    ("fppslab.experiments", "greedy_concatenation", "slab", "span"),
    ("fppslab.experiments", "point_to_hyperplane_stabilized", "slab", "span"),
    ("fppslab.slab", "slab_crossing_time", "slab", "span"),
    ("fppslab.slab", "point_to_hyperplane_time", "slab", "span"),
    ("fppslab.slab", "point_to_point_time", "slab", "span"),
    ("fppslab.experiments", "sample_slab_crossing", "eden", "span"),
    ("fppslab.eden", "dhar_step", "eden", "sum"),
    ("fppslab.eden", "DrawSource.uniform", "eden", "count"),
    ("fppslab.weights", "WeightModel.edge_weight", "weights", "sum"),
)


class _Frame:
    __slots__ = ("span_id", "child", "edges")

    def __init__(self, span_id: int):
        self.span_id = span_id
        self.child = 0.0   # time covered by child spans and summed calls
        self.edges = 0     # oracle calls made while this frame was innermost


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []        # (id, name, start, end, parent id)
        self.stack: list[_Frame] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.time_s: Counter = Counter()    # total time per wrapped name
        self.calls: Counter = Counter()     # calls per wrapped name
        self.absent: list[str] = []
        self.settled = 0                    # PassageSample.settled_count of slab crossings
        self.crossing_edges = 0             # oracle calls inside slab crossings
        self.eden_steps_by_d: Counter = Counter()
        self.eden_time_by_d: Counter = Counter()
        self.reps = 0                       # replicates the harness returned
        self.probe_reps = 0
        self.bytes_out = 0
        self._installed: list[tuple[object, str, object]] = []
        self._ids = itertools.count()

    # -- wrapping ------------------------------------------------------------

    def _span(self, fn, name: str, layer: str):
        tracer = self
        perf = time.perf_counter

        def wrapped(*args, **kwargs):
            stack = tracer.stack
            frame = _Frame(next(tracer._ids))
            parent = stack[-1] if stack else None
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                dur = end - start
                tracer.self_s[layer] += dur - frame.child
                tracer.time_s[name] += dur
                tracer.calls[name] += 1
                if parent is not None:
                    parent.child += dur
                tracer.spans.append((frame.span_id, name, start, end,
                                     None if parent is None else parent.span_id))
            tracer._observe(name, args, result, dur, frame)
            return result

        return wrapped

    def _sum(self, fn, name: str, layer: str, is_oracle: bool):
        tracer = self
        perf = time.perf_counter
        calls = self.calls
        self_s = self.self_s

        def wrapped(*args, **kwargs):
            start = perf()
            result = fn(*args, **kwargs)
            dur = perf() - start
            calls[name] += 1
            self_s[layer] += dur
            stack = tracer.stack
            if stack:
                stack[-1].child += dur
                if is_oracle:
                    stack[-1].edges += 1
            return result

        return wrapped

    def _count(self, fn, name: str):
        calls = self.calls

        def wrapped(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapped

    def install(self) -> None:
        for module_name, path, layer, kind in TARGETS:
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            name = f"{module_name.split('.')[-1]}.{path}"
            if original is None:
                if name not in self.absent:
                    self.absent.append(name)
                continue
            if kind == "span":
                wrapper = self._span(original, name, layer)
            elif kind == "sum":
                wrapper = self._sum(original, name, layer, layer == "weights")
            else:
                wrapper = self._count(original, name)
            setattr(owner, attr, wrapper)
            self._installed.append((owner, attr, original))

    def remove(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    def job(self, main, argv: list[str]) -> int:
        """Run one CLI job as the root span of the cli layer."""
        return self._span(main, "cli.main", "cli")(argv)

    # -- what the results say ------------------------------------------------

    def _observe(self, name: str, args, result, dur: float, frame: _Frame) -> None:
        short = name.split(".")[-1]
        if short == "slab_crossing_time":
            self.settled += result.settled_count
            self.crossing_edges += frame.edges
        elif short == "sample_slab_crossing":
            d = args[0]
            self.eden_steps_by_d[d] += result.settled_count
            self.eden_time_by_d[d] += dur
        elif name.startswith("cli.") and short != "main" and short != "bound_report":
            if short == "search_cross_probe":
                self.reps += result.replicates
                self.probe_reps += result.replicates
            elif short == "sample_crossing_values":
                self.reps += len(result)
            elif isinstance(result, dict):
                self.reps += sum(getattr(v, "replicates", getattr(v, "n", 0))
                                 for v in result.values())

    def metrics(self, overhead_pct: float) -> dict[str, tuple[float, str]]:
        def calls(*names: str) -> int:
            return sum(self.calls[n] for n in names)

        def ratio(num: float, den: float, scale: float = 1.0) -> float:
            return num / den * scale if den else 0.0

        edge_calls = calls("weights.WeightModel.edge_weight")
        crossings = calls("experiments.slab_crossing_time", "slab.slab_crossing_time")
        crossing_time = (self.time_s["experiments.slab_crossing_time"]
                         + self.time_s["slab.slab_crossing_time"])
        searches = crossings + calls("slab.point_to_hyperplane_time", "slab.point_to_point_time")
        eden_samples = calls("experiments.sample_slab_crossing")
        settled_steps = sum(self.eden_steps_by_d.values())
        steps = calls("eden.dhar_step") if "eden.dhar_step" not in self.absent else settled_steps
        jobs = self.calls["cli.main"]
        bound_calls = calls("cli.bound_report")
        m = {
            "weights.calls": (edge_calls, "count"),
            "weights.self_s": (self.self_s["weights"], "s"),
            "weights.us_per_call": (ratio(self.self_s["weights"], edge_calls, 1e6), "us"),
            "slab.searches": (searches, "count"),
            "slab.settled": (self.settled, "count"),
            "slab.self_s": (self.self_s["slab"], "s"),
            "slab.us_per_settled": (ratio(crossing_time, self.settled, 1e6), "us"),
            "slab.edges_per_settled": (ratio(self.crossing_edges, self.settled), "ratio"),
            "slab.box_solves_per_direct": (
                ratio(calls("slab.point_to_hyperplane_time"),
                      calls("experiments.point_to_hyperplane_stabilized")), "ratio"),
            "eden.samples": (eden_samples, "count"),
            "eden.steps": (steps, "count"),
            "eden.self_s": (self.self_s["eden"], "s"),
        }
        for d in (50, 200, 1000):
            m[f"eden.us_per_step.d{d}"] = (
                ratio(self.eden_time_by_d[d], self.eden_steps_by_d[d], 1e6), "us")
        m.update({
            "eden.draws_per_step": (ratio(calls("eden.DrawSource.uniform"), steps), "ratio"),
            "bounds.calls": (bound_calls, "count"),
            "bounds.ms_per_d": (ratio(self.time_s["cli.bound_report"], bound_calls, 1e3), "ms"),
            "experiments.reps": (self.reps, "count"),
            "experiments.self_s": (self.self_s["experiments"], "s"),
            "experiments.probe_ms_per_rep": (
                ratio(self.time_s["cli.search_cross_probe"], self.probe_reps, 1e3), "ms"),
            "cli.jobs": (jobs, "count"),
            "cli.self_s": (self.self_s["cli"], "s"),
            "cli.bytes_out": (self.bytes_out, "B"),
            "cli.ms_per_job_self": (ratio(self.self_s["cli"], jobs, 1e3), "ms"),
            "trace.overhead_pct": (overhead_pct, "%"),
        })
        return m

    def dump(self, path) -> None:
        with open(path, "w") as f:
            json.dump({"absent": self.absent,
                       "calls": dict(self.calls),
                       "self_s": dict(self.self_s),
                       "spans": self.spans}, f)
