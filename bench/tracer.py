"""Spans and counters recorded from outside the library.

The tracer replaces public capsched functions with timing wrappers at
every module attribute that refers to them, which is where callers
look them up (``capsched.experiment.select_features_cv``,
``capsched.scheduler.score_node``, ...). Spans (name, parent, start,
end) live in memory and are written out once the run ends. A layer's self time is its span time minus the time
covered by its child spans.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager

import numpy as np

from capsched import (
    core,
    estimator,
    experiment,
    planner,
    scheduler,
    simulator,
    workload_synth,
)

# Span name -> (module, attribute). Every span name is "<layer>.<function>".
TRACED = {
    "workload_synth.observe_indexes": (workload_synth, "observe_indexes"),
    "workload_synth.make_workload": (workload_synth, "make_workload"),
    "workload_synth.true_profile_at": (workload_synth, "true_profile_at"),
    "planner.select_features_cv": (planner, "select_features_cv"),
    "planner.cluster_surfaces": (planner, "cluster_surfaces"),
    "planner.train_classifier": (planner, "train_classifier"),
    "planner.predict_surface": (planner, "predict_surface"),
    "planner.plan_capacity": (planner, "plan_capacity"),
    "planner.surface_error": (planner, "surface_error"),
    "estimator.build_profile": (estimator, "build_profile"),
    "estimator.stress_reference_tracks": (estimator, "stress_reference_tracks"),
    "scheduler.place": (scheduler, "place"),
    "scheduler.score_node": (scheduler, "score_node"),
    "simulator.simulate_colocated": (simulator, "simulate_colocated"),
    "experiment.train_bundle": (experiment, "train_bundle"),
    "experiment.run_loocv": (experiment, "run_loocv"),
    "experiment.run_colocation": (experiment, "run_colocation"),
}
GENERATE = "workload_synth.WorkloadSet.generate"
PROBE_METHODS = ("read_usage", "set_llc_ways", "apply_stress")
LAYERS = ("workload_synth", "planner", "estimator", "scheduler", "simulator",
          "experiment")

# Per-layer metrics printed by a traced run: name -> unit.
PER_LAYER: dict[str, str] = {}
for _name in ("planner.select_features_cv", "planner.cluster_surfaces",
              "planner.train_classifier", "planner.predict_surface",
              "planner.plan_capacity", "planner.surface_error",
              "estimator.build_profile", "workload_synth.observe_indexes",
              "workload_synth.make_workload", "workload_synth.true_profile_at",
              "scheduler.place.ursa", "scheduler.place.lrp",
              "scheduler.score_node", "simulator.simulate_colocated"):
    PER_LAYER[f"{_name}.calls"] = "count"
    PER_LAYER[f"{_name}.self_s"] = "s"
PER_LAYER.update({
    "planner.cluster_surfaces.iterations": "count",
    "planner.train_classifier.min_train_accuracy": "ratio",
    "estimator.probe_calls": "count",
    "estimator.probe_calls_per_profile": "calls/profile",
    "estimator.stress_reference_tracks.calls": "count",
    f"{GENERATE}.self_s": "s",
    "scheduler.place.requests": "count",
    "scheduler.place.refused": "count",
    "scheduler.nodes_scored_per_request": "nodes/request",
    "simulator.simulate_colocated.tenants": "count",
    "simulator.neighbour_pairs": "count",
    "experiment.train_bundle.self_s": "s",
    "experiment.run_loocv.self_s": "s",
    "experiment.run_colocation.self_s": "s",
})
for _layer in LAYERS:
    PER_LAYER[f"{_layer}.self_s"] = "s"
PER_LAYER.update({
    "bench.self_s": "s",
    "trace.setup_s": "s",
    "trace.pass_s": "s",
    "trace.overhead_pct": "%",
})


class Tracer:
    """In-memory span recorder plus the counters read at span boundaries."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # Spans are [name id, parent span or None, start ns, end ns]. The
        # clock's timer signal can open a span inside _timed at any
        # bytecode, so a span is one list appended in one step and parents
        # are held by reference, not by index.
        self.spans: list[list] = []
        self._stack: list = [None]
        self.counters = {"cluster_iterations": 0, "min_train_accuracy": None,
                         "probe_calls": 0, "place_requests": 0,
                         "ursa_requests": 0, "place_refused": 0,
                         "sim_tenants": 0, "neighbour_pairs": 0}
        self._restore: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _timed(self, name_id: int, fn, args, kwargs):
        span = [name_id, self._stack[-1], time.perf_counter_ns(), 0]
        self.spans.append(span)
        self._stack.append(span)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            span[3] = time.perf_counter_ns()

    def wrap(self, name: str, fn):
        name_id = self._name_id(name)
        observe = {"planner.cluster_surfaces": self._observe_cluster_surfaces,
                   "planner.train_classifier": self._observe_train_classifier,
                   "scheduler.place": self._observe_place,
                   "simulator.simulate_colocated": self._observe_simulate_colocated,
                   }.get(name)

        def traced(*args, **kwargs):
            if observe is None:
                return self._timed(name_id, fn, args, kwargs)
            return observe(name_id, fn, args, kwargs)

        traced.__wrapped__ = fn
        return traced

    # Counters read where the work happens, one hook per function.
    def _observe_cluster_surfaces(self, name_id, fn, args, kwargs):
        result = self._timed(name_id, fn, args, kwargs)
        self.counters["cluster_iterations"] += len(result.cost_history)
        return result

    def _observe_train_classifier(self, name_id, fn, args, kwargs):
        result = self._timed(name_id, fn, args, kwargs)
        acc = self.counters["min_train_accuracy"]
        self.counters["min_train_accuracy"] = (
            result.training_accuracy if acc is None
            else min(acc, result.training_accuracy))
        return result

    def _observe_place(self, name_id, fn, args, kwargs):
        requests = list(args[0])
        config = args[2] if len(args) > 2 else kwargs.get(
            "config", scheduler.ScheduleConfig())
        policy_id = self._name_id(f"scheduler.place.{config.policy}")
        self.counters["place_requests"] += len(requests)
        if config.policy == scheduler.POLICY_URSA:
            self.counters["ursa_requests"] += len(requests)
        try:
            return self._timed(policy_id, fn, (requests, *args[1:]), kwargs)
        except core.CapacityExhaustedError:
            self.counters["place_refused"] += 1
            raise

    def _observe_simulate_colocated(self, name_id, fn, args, kwargs):
        tenants = args[0]
        per_node: dict[int, int] = {}
        for tenant in tenants:
            per_node[tenant[1]] = per_node.get(tenant[1], 0) + 1
        self.counters["sim_tenants"] += len(tenants)
        self.counters["neighbour_pairs"] += sum(k * k for k in per_node.values())
        return self._timed(name_id, fn, args, kwargs)

    def _patch(self, holder, attr: str, value) -> None:
        self._restore.append((holder, attr, vars(holder)[attr]))
        setattr(holder, attr, value)

    @contextmanager
    def installed(self):
        """Wrap every traced function at each capsched attribute naming it."""
        modules = [m for n, m in list(sys.modules.items())
                   if n == "capsched" or n.startswith("capsched.")]
        try:
            for name, (module, attr) in TRACED.items():
                original = getattr(module, attr)
                wrapper = self.wrap(name, original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patch(mod, key, wrapper)
            generate = vars(workload_synth.WorkloadSet)["generate"]
            self._patch(workload_synth.WorkloadSet, "generate",
                        classmethod(self.wrap(GENERATE, generate.__func__)))
            for method in PROBE_METHODS:
                self._patch(estimator.SimulatedProbe, method,
                            self._counted(getattr(estimator.SimulatedProbe, method)))
            yield self
        finally:
            while self._restore:
                holder, attr, value = self._restore.pop()
                setattr(holder, attr, value)

    def _counted(self, method):
        counters = self.counters

        def counted(*args, **kwargs):
            counters["probe_calls"] += 1
            return method(*args, **kwargs)

        return counted

    def _columns(self):
        index = {id(span): i for i, span in enumerate(self.spans)}
        names = np.array([span[0] for span in self.spans], dtype=np.int64)
        parent = np.array([-1 if span[1] is None else index[id(span[1])]
                           for span in self.spans], dtype=np.int64)
        start = np.array([span[2] for span in self.spans], dtype=np.int64)
        end = np.array([span[3] for span in self.spans], dtype=np.int64)
        return names, parent, start, end

    def self_times(self) -> dict[str, tuple[int, float]]:
        """Span name -> (calls, self seconds)."""
        if not self.spans:
            return {}
        names, parent, start, end = self._columns()
        dur = (end - start).astype(np.float64)
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        own = dur - child
        calls = np.bincount(names, minlength=len(self.names))
        self_ns = np.bincount(names, weights=own, minlength=len(self.names))
        return {n: (int(calls[i]), float(self_ns[i]) * 1e-9)
                for i, n in enumerate(self.names)}

    def metrics(self, wall_s: float) -> dict[str, float]:
        """Every per-layer metric; wall_s is the traced wall time."""
        st = self.self_times()
        c = self.counters
        out: dict[str, float] = {}
        for metric in PER_LAYER:
            base, _, field = metric.rpartition(".")
            if field in ("calls", "self_s"):
                calls, self_s = st.get(base, (0, 0.0))
                out[metric] = calls if field == "calls" else self_s
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(s for n, (_, s) in st.items()
                                        if n.startswith(layer + "."))
        profiles = st.get("estimator.build_profile", (0, 0.0))[0]
        score_calls = st.get("scheduler.score_node", (0, 0.0))[0]
        out.update({
            "planner.cluster_surfaces.iterations": c["cluster_iterations"],
            "planner.train_classifier.min_train_accuracy":
                c["min_train_accuracy"] if c["min_train_accuracy"] is not None else 0.0,
            "estimator.probe_calls": c["probe_calls"],
            "estimator.probe_calls_per_profile":
                c["probe_calls"] / profiles if profiles else 0.0,
            "scheduler.place.requests": c["place_requests"],
            "scheduler.place.refused": c["place_refused"],
            "scheduler.nodes_scored_per_request":
                score_calls / c["ursa_requests"] if c["ursa_requests"] else 0.0,
            "simulator.simulate_colocated.tenants": c["sim_tenants"],
            "simulator.neighbour_pairs": c["neighbour_pairs"],
            "bench.self_s": wall_s - sum(s for n, (_, s) in st.items()
                                         if not n.startswith("bench.")),
        })
        return out

    def write(self, path) -> None:
        names, parent, start, end = self._columns()
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"schema": "bench-spans/v1", "names": self.names,
                       "name": names.tolist(), "start_ns": start.tolist(),
                       "end_ns": end.tolist(), "parent": parent.tolist()}, fh)
