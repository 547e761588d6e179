"""What the benchmark under bench/ needs from the library.

The benchmark wraps library functions by module attribute, counts probe
calls on SimulatedProbe's own methods, and calls the study runners
positionally. A change that breaks any of these breaks the benchmark,
so it fails here first, as does a workload that no longer runs at a
small size. The files under bench/ are only read, never changed.
"""

import inspect
import sys
import types
from pathlib import Path

import pytest

from capsched import estimator, experiment

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _exec_module(name, path):
    # exec the source rather than import it, so no bytecode lands in bench/;
    # dataclasses looks the defining module up in sys.modules meanwhile
    module = sys.modules[name] = types.ModuleType(name)
    try:
        exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), module.__dict__)
    finally:
        del sys.modules[name]
    return module


@pytest.fixture(scope="module")
def tracer():
    return _exec_module("bench_tracer", BENCH / "tracer.py")


@pytest.fixture(scope="module")
def workloads():
    return _exec_module("bench_workloads", BENCH / "workloads.py")


def test_every_traced_attribute_is_a_function(tracer):
    for name, (module, attr) in tracer.TRACED.items():
        assert inspect.isfunction(getattr(module, attr, None)), name


def test_counted_probe_methods_are_the_probes_own(tracer):
    for method in tracer.PROBE_METHODS:
        assert method in vars(estimator.SimulatedProbe), method


def test_planner_results_keep_the_attributes_the_tracer_reads(
        monkeypatch, small_config, small_wset):
    # The tracer's hooks add up len(cost_history) of every cluster_surfaces
    # result and keep the least training_accuracy of every train_classifier one.
    results = {}
    for name in ("cluster_surfaces", "train_classifier"):
        def kept(*args, fn=getattr(experiment, name), name=name, **kwargs):
            results[name] = fn(*args, **kwargs)
            return results[name]
        monkeypatch.setattr(experiment, name, kept)
    experiment.train_bundle(small_config, small_wset)
    assert len(results["cluster_surfaces"].cost_history) >= 1
    assert 0.0 <= results["train_classifier"].training_accuracy <= 1.0


@pytest.mark.parametrize("runner, n_args", [
    (experiment.train_bundle, 2),     # train_bundle(config, wset)
    (experiment.run_colocation, 3),   # run_colocation(config, wset, bundle)
    (experiment.run_loocv, 2),        # run_loocv(config, wset)
])
def test_runners_accept_the_benchmarks_positional_calls(runner, n_args):
    inspect.signature(runner).bind(*[object()] * n_args)


def test_loocv_reads_surface_error_as_a_module_global(monkeypatch):
    # The loocv workload ends each run_loocv call at its first held-out
    # round by replacing experiment.surface_error.
    class RoundDone(Exception):
        pass

    def held_out_error(*args, **kwargs):
        raise RoundDone

    config = experiment.ExperimentConfig(
        rng_seed=5, archetype_count=4, workload_count=8, train_count=6,
        val_count=2, k=3, mlp_epochs=50)
    wset = experiment.build_workload_set(config)
    monkeypatch.setattr(experiment, "surface_error", held_out_error)
    with pytest.raises(RoundDone):
        experiment.run_loocv(config, wset)


# Small sizes, set on a fresh instance of each workload, never on its class.
SMALL = {
    "loocv": {"ROUNDS": 1},
    "place-wide": {"REQUESTS": 60, "NODES": 10},
    "colocate-large": {"TRIALS": 1},
    "simulate-dense": {"TENANTS": 90, "NODES": 2, "PLACEMENTS": 1},
}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_every_workload_runs_a_small_pass(workloads, name):
    workload = type(workloads.WORKLOADS[name])()
    for attr, value in SMALL[name].items():
        assert hasattr(workload, attr), attr
        setattr(workload, attr, value)
    result = workload.run_pass(workload.setup(1))
    assert result.problems == []
    assert result.failed == 0
