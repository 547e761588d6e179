"""The four benchmark workloads.

Each workload builds its inputs from the benchmark seed in ``setup``
and then runs passes over them. A pass is a fixed sequence of ops;
``run_pass(state, ops)`` runs its first ``ops`` ops (all of them when
``ops`` is None), records each op as a span (wall start, wall end,
process CPU seconds), counts failed ops and checks what it got. Its
outputs are a list with one entry per op, so the warm-up (the first
WARM_OPS ops) must reproduce the start of every full pass. A traced run
times passes of TRACE_OPS ops (None: the full pass).

All library calls go through module attributes (``scheduler.place``,
not a name imported from it), so a traced run sees them.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace

import numpy as np

from capsched import core, experiment, scheduler, simulator, workload_synth


@dataclass
class PassResult:
    wall_s: float
    op_spans: list[tuple[float, float, float]]
    failed: int
    outputs: list
    results: dict[str, tuple[float, str]]
    problems: list[str]


class _RoundDone(Exception):
    """Ends a run_loocv call after its first held-out round."""


class Loocv:
    """Held-out rounds of run_loocv on the default configuration.

    The world is the default ExperimentConfig's. A round's cost depends
    mostly on how the Lasso CV folds fall, which follows the workload
    order, so op k runs run_loocv on the world shuffled by (seed, k) and
    ends the call after its first round: every op draws its own folds,
    and a run averages over ROUNDS of them. (A full run_loocv is 55
    rounds of about a second, too long for one run.) The round is
    observed at the surface_error call it makes on its held-out workload.
    ROUNDS is 40 so that op_tail_ms, the highest percentile with 10
    samples beyond it, is the 75th; a traced run uses the first 10.
    """

    name = "loocv"
    ROUNDS = 40
    WARM_OPS = 1
    TRACE_OPS = 10

    def setup(self, seed: int):
        config = experiment.ExperimentConfig()
        wset = experiment.build_workload_set(config)
        shuffled = []
        for k in range(self.ROUNDS):
            rng = np.random.default_rng(np.random.SeedSequence([seed, k]))
            order = rng.permutation(len(wset.workloads))
            shuffled.append(replace(wset, workloads=tuple(wset.workloads[i] for i in order)))
        return config, shuffled

    def run_pass(self, state, ops=None) -> PassResult:
        config, shuffled = state
        errors: list[float] = []
        op_spans, problems = [], []
        surface_error = experiment.surface_error

        def held_out_error(*args, **kwargs):
            errors.append(surface_error(*args, **kwargs))
            raise _RoundDone

        experiment.surface_error = held_out_error
        start = time.perf_counter()
        try:
            for wset in shuffled[:ops]:
                t0, c0 = time.perf_counter(), time.process_time()
                try:
                    experiment.run_loocv(config, wset)
                    problems.append("run_loocv ended without a held-out round")
                except _RoundDone:
                    pass
                op_spans.append((t0, time.perf_counter(), time.process_time() - c0))
        finally:
            experiment.surface_error = surface_error
        wall = time.perf_counter() - start

        if len(errors) != len(op_spans):
            problems.append(f"expected {len(op_spans)} held-out errors, saw {len(errors)}")
        if not all(math.isfinite(e) and e >= 0 for e in errors):
            problems.append("held-out error is negative or not finite")
        return PassResult(
            wall_s=wall, op_spans=op_spans, failed=0, outputs=errors, problems=problems,
            results={"loocv_mean_error": (float(np.mean(errors)), "ratio")})


class PlaceWide:
    """Closed-loop ursa placement of 2000 requests onto 250 nodes.

    One caller sends one request per place call and waits for the
    reply, as an online scheduler would; about 8 tenants end up on each
    node. A final simulate_colocated call scores the placement.
    """

    name = "place-wide"
    REQUESTS = 2000
    NODES = 250
    WARM_OPS = 20
    TRACE_OPS = None

    def setup(self, seed: int):
        wset = workload_synth.WorkloadSet.generate(
            archetype_count=20, workload_count=self.REQUESTS, seed=seed)
        return [(f"w{w.workload_id:04d}", w.origin_spec, w.ground_truth_profile)
                for w in wset.workloads]

    def run_pass(self, state, ops=None) -> PassResult:
        requests = state[:ops]
        nodes = [scheduler.NodeState(node_id=i) for i in range(self.NODES)]
        config = scheduler.ScheduleConfig(policy=scheduler.POLICY_URSA)
        placed, op_spans, failed = [], [], 0
        start = time.perf_counter()
        for request in requests:
            t0, c0 = time.perf_counter(), time.process_time()
            try:
                placed.extend(scheduler.place([request], nodes, config))
            except core.CapacityExhaustedError:
                failed += 1
            op_spans.append((t0, time.perf_counter(), time.process_time() - c0))
        specs = {wid: (spec, profile) for wid, spec, profile in requests}
        report = simulator.simulate_colocated(
            [(p.workload_id, p.node_id, *specs[p.workload_id]) for p in placed],
            simulator.ClusterSpec(nodes=self.NODES))
        wall = time.perf_counter() - start

        problems = []
        ids = [p.workload_id for p in placed]
        if ids != [r[0] for r in requests]:
            problems.append("not every request was placed exactly once, in order")
        cores = [0] * self.NODES
        memory = [0] * self.NODES
        for p in placed:
            cores[p.node_id] += specs[p.workload_id][0].cores
            memory[p.node_id] += specs[p.workload_id][0].memory_gb
        if (max(cores) > scheduler.DEFAULT_NODE_CORES
                or max(memory) > scheduler.DEFAULT_NODE_MEMORY_GB):
            problems.append("a node is over capacity")
        return PassResult(
            wall_s=wall, op_spans=op_spans, failed=failed, problems=problems,
            outputs=[p.to_json() for p in placed] + [report.to_json()],
            results={"p_sys": (report.p_sys, "sum_of_sd"),
                     "unfairness": (report.unfairness, "ratio")})


class ColocateLarge:
    """run_colocation trials on the larger world (200 archetypes, 550
    workloads, 440 of them training), bundle trained during set-up.

    Each op is one run_colocation call with trials=1 and its own tenant
    seed, so ops are timed from outside and every trial draws a fresh
    batch of 56 tenants for the 7 nodes.
    """

    name = "colocate-large"
    TRIALS = 100
    WARM_OPS = 1
    TRACE_OPS = None

    def setup(self, seed: int):
        config = experiment.ExperimentConfig(
            rng_seed=seed, archetype_count=200, workload_count=550,
            train_count=440, val_count=110)
        wset = experiment.build_workload_set(config)
        bundle = experiment.train_bundle(config, wset)
        return config, wset, bundle

    def run_pass(self, state, ops=None) -> PassResult:
        config, wset, bundle = state
        trials = range(self.TRIALS)[:ops]
        rows, op_spans, problems = [], [], []
        start = time.perf_counter()
        for trial in trials:
            trial_config = replace(config, rng_seed=config.rng_seed * 1000 + trial,
                                   trials=1)
            t0, c0 = time.perf_counter(), time.process_time()
            report = experiment.run_colocation(trial_config, wset, bundle)
            op_spans.append((t0, time.perf_counter(), time.process_time() - c0))
            if report.summary["trials"] != 1 or len(report.rows) != 1:
                problems.append(f"trial {trial}: expected one trial row")
            rows.extend(report.rows)
        wall = time.perf_counter() - start
        if len(rows) != len(trials):
            problems.append(f"expected {len(trials)} trials, got {len(rows)}")
        done = [r for r in rows if not r["aborted"]]
        reductions = [r["unfairness_reduction_pct"] for r in done
                      if r["unfairness_reduction_pct"] is not None]
        return PassResult(
            wall_s=wall, op_spans=op_spans, failed=len(rows) - len(done),
            outputs=rows, problems=problems,
            results={
                "unfairness_reduction_pct":
                    (float(np.mean(reductions)) if reductions else 0.0, "%"),
                "p_sys_ratio": (float(np.mean([r["p_sys_ratio"] for r in done]))
                                if done else 0.0, "ursa/lrp"),
            })


class SimulateDense:
    """simulate_colocated on 1800 small tenants packed onto 30 nodes.

    About 60 tenants share each node, and the simulator's cost grows
    with the square of that. Set-up draws the tenants and places
    PLACEMENTS arrival orders of them with lrp; one op simulates one
    of those placements.
    """

    name = "simulate-dense"
    TENANTS = 1800
    NODES = 30
    PLACEMENTS = 8
    WARM_OPS = 1
    TRACE_OPS = None

    def setup(self, seed: int):
        constants = core.NodeConstants()
        region = core.ConfigRegion()
        base = core.ResourceSpec(6, 8)
        archetypes = workload_synth.generate_archetypes(20, seed, constants)
        references = workload_synth.stress_reference_tracks(constants)
        rng = np.random.default_rng(np.random.SeedSequence([seed, 1]))
        tenants = []
        for i in range(self.TENANTS):
            origin = core.ResourceSpec(int(rng.integers(1, 3)), int(rng.integers(2, 5)))
            tenants.append(workload_synth.make_workload(
                archetypes[int(rng.integers(len(archetypes)))], i,
                int(rng.integers(0, 2 ** 62)), origin, region, constants, base,
                reference_tracks=references))
        config = scheduler.ScheduleConfig(policy=scheduler.POLICY_LRP)
        placements = []
        for _ in range(self.PLACEMENTS):
            order = [tenants[int(i)] for i in rng.permutation(self.TENANTS)]
            nodes = [scheduler.NodeState(node_id=i) for i in range(self.NODES)]
            placed = scheduler.place(
                [(f"w{w.workload_id:04d}", w.origin_spec, w.ground_truth_profile)
                 for w in order], nodes, config)
            placements.append([(p.workload_id, p.node_id, w.origin_spec,
                                w.ground_truth_profile)
                               for p, w in zip(placed, order)])
        return placements

    def run_pass(self, state, ops=None) -> PassResult:
        cluster = simulator.ClusterSpec(nodes=self.NODES)
        batch = state[:ops]
        reports, op_spans, problems = [], [], []
        start = time.perf_counter()
        for tenants in batch:
            t0, c0 = time.perf_counter(), time.process_time()
            reports.append(simulator.simulate_colocated(tenants, cluster))
            op_spans.append((t0, time.perf_counter(), time.process_time() - c0))
        wall = time.perf_counter() - start
        for tenants, report in zip(batch, reports):
            sds = [e.sd for e in report.entries]
            if [e.workload_id for e in report.entries] != [t[0] for t in tenants]:
                problems.append("simulation entries do not match the tenants")
            if not all(0.0 < sd <= 1.0 for sd in sds):
                problems.append("a slowdown lies outside (0, 1]")
            if not math.isclose(report.p_sys, math.fsum(sds), rel_tol=1e-9):
                problems.append("p_sys is not the sum of the slowdowns")
        return PassResult(
            wall_s=wall, op_spans=op_spans, failed=0, problems=problems,
            outputs=[r.to_json() for r in reports],
            results={"p_sys": (float(np.mean([r.p_sys for r in reports])), "sum_of_sd"),
                     "unfairness": (float(np.mean([r.unfairness for r in reports])),
                                    "ratio")})


WORKLOADS = {w.name: w for w in (Loocv(), PlaceWide(), ColocateLarge(), SimulateDense())}
