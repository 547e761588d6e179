"""capsched benchmark: four seeded workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload loocv --seed 1 --trace 0
    python3 bench/run.py                  # every workload, each in its own process

One workload runs per process, so peak RSS belongs to it alone. With
--trace 0 the run sets up the inputs several times (setup_s is the
median), warms up on the first ops of a pass, then repeats the fixed
pass until about run_seconds (from BENCHMARK.json) have gone by, with
at least MIN_OPS ops, and reports the end-to-end metrics. Times are in
reference seconds (see clock.py); unscaled wall times (raw.*) and
process CPU times (cpu.*) are printed beside them. With --trace 1 it sets up once under the
tracer, runs untraced and traced passes in cycles of A B B A, and
reports the per-layer metrics from the traced set-up and first traced
pass. Every pass's outputs are checked; all passes of a run must give
the same digest, and the warm-up the same outputs as the start of a
pass. The last stdout line is the result as JSON; a record with the
environment, results and digest goes to bench/out/.
"""

from __future__ import annotations

import os

# Pin BLAS and OpenMP to one thread before numpy loads, so runs on a
# small shared machine do not contend with themselves.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from clock import Clock

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

# Run length is the benchmark's, not the caller's: --seconds exists
# because benchmark runners pass it, and must equal this.
RUN_SECONDS = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["run_seconds"]
DEFAULT_SEED = 1
MIN_OPS = 40            # op_tail_ms, with 10 samples beyond it, is then at least p75
SETUP_REPS = (3, 20)    # at least 3 set-ups, more while they total under SETUP_BUDGET_S
SETUP_BUDGET_S = 1.0

END_TO_END = {"setup_s": "s", "ops_per_s": "op/s", "op_p50_ms": "ms",
              "op_tail_ms": "ms", "peak_rss_mb": "MB"}


def environment() -> dict:
    import numpy
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"cpu": cpu, "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "blas_threads": os.environ["OPENBLAS_NUM_THREADS"]}


def digest(outputs) -> str:
    from capsched.core import canonical_json
    return hashlib.sha256(canonical_json(outputs).encode()).hexdigest()


def tail_percentile(n: int) -> float:
    """The highest percentile of n samples with at least 10 beyond it."""
    return 100.0 * (n - 10) / n


def op_metrics(op_s: list[float], tail_n: int, prefix: str = "") -> dict[str, float]:
    """Throughput, median and tail; the tail is tail_percentile(tail_n),
    nearest rank, so that it is the same percentile on every run."""
    rank = -(-(tail_n - 10) * len(op_s) // tail_n)
    return {f"{prefix}ops_per_s": len(op_s) / sum(op_s),
            f"{prefix}op_p50_ms": 1e3 * statistics.median(op_s),
            f"{prefix}op_tail_ms": 1e3 * sorted(op_s)[rank - 1]}


def full_pass(workload, state, ops=None):
    result = workload.run_pass(state, ops)
    # Keep digests of the warm-up prefix and of the whole pass instead of
    # the outputs, so memory does not grow with the pass count.
    result.outputs = (digest(result.outputs[:workload.WARM_OPS]),
                      digest(result.outputs))
    return result


def warm_up(workload, state):
    """Run the first WARM_OPS ops untimed; return the result with its digest."""
    result = workload.run_pass(state, workload.WARM_OPS)
    result.outputs = digest(result.outputs[:workload.WARM_OPS])
    return result


def run_untraced(workload, seed: int):
    clock = Clock()
    setups = []
    with clock.sampling():
        while len(setups) < SETUP_REPS[0] or (
                sum(clock.wall(*s) for s in setups) < SETUP_BUDGET_S
                and len(setups) < SETUP_REPS[1]):
            state = None  # free the previous set-up before timing the next
            gc.collect()
            t0, c0 = time.perf_counter(), time.process_time()
            state = workload.setup(seed)
            setups.append((t0, time.perf_counter(), time.process_time() - c0))
        warm = warm_up(workload, state)
        passes = []
        start = time.perf_counter()
        # Stop when another pass would overrun RUN_SECONDS by more than half a pass.
        while (not passes or sum(len(p.op_spans) for p in passes) < MIN_OPS
               or time.perf_counter() - start + 0.5 * passes[-1].wall_s < RUN_SECONDS):
            passes.append(full_pass(workload, state))
    spans = [span for p in passes for span in p.op_spans]
    # The fewest ops a run makes: the tail percentile follows from it, not
    # from the count of this run, which depends on the machine's speed.
    per_pass = len(passes[0].op_spans)
    tail_n = per_pass * -(-MIN_OPS // per_pass)
    metrics = {"setup_s": statistics.median(clock.scaled(*s) for s in setups),
               **op_metrics([clock.scaled(*s) for s in spans], tail_n),
               "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    unscaled = {"raw.setup_s": statistics.median(clock.wall(*s) for s in setups),
                **op_metrics([clock.wall(*s) for s in spans], tail_n, "raw."),
                "cpu.setup_s": statistics.median(clock.cpu(*s) for s in setups),
                **op_metrics([clock.cpu(*s) for s in spans], tail_n, "cpu.")}
    extra = {k: (v, END_TO_END[k.partition(".")[2]]) for k, v in unscaled.items()}
    extra["clock.kernel_ms"] = (1e3 * statistics.median(clock.kernel_s), "ms")
    notes = {"setup_reps": len(setups), "passes": len(passes),
             "op_tail_percentile": tail_percentile(tail_n), "op_samples": len(spans)}
    return metrics, END_TO_END, warm, passes, extra, notes


def run_traced(workload, seed: int):
    from tracer import PER_LAYER, Tracer
    clock = Clock()
    tracer = Tracer()
    with tracer.installed():
        t0 = time.perf_counter()
        state = workload.setup(seed)
        setup_s = time.perf_counter() - t0
    warm = warm_up(workload, state)

    def measured(pass_tracer):
        if pass_tracer is None:
            with clock.sampling():
                return full_pass(workload, state, workload.TRACE_OPS)
        # Calibrations inside library calls get a span of their own, so they
        # do not count as the self time of the call they interrupted.
        with pass_tracer.installed(), clock.sampling(
                pass_tracer.wrap("bench.calibration", clock.calibrate)):
            return full_pass(workload, state, workload.TRACE_OPS)

    # Untraced and traced passes in cycles of A B B A, so that a steady
    # drift in machine speed cancels, until the untraced passes add up to
    # RUN_SECONDS. Only the first traced pass records into the tracer
    # whose metrics are reported: they cover set-up and one pass.
    plain, traced = [], []
    while sum(r.wall_s for r in plain) < RUN_SECONDS:
        plain.append(measured(None))
        traced.append(measured(Tracer() if traced else tracer))
        traced.append(measured(Tracer()))
        plain.append(measured(None))
    metrics = tracer.metrics(setup_s + traced[0].wall_s)

    def total(results, span_s):
        return sum(span_s(*s) for r in results for s in r.op_spans)

    metrics.update({"trace.setup_s": setup_s, "trace.pass_s": traced[0].wall_s,
                    "trace.overhead_pct": 100.0 * (total(traced, clock.scaled)
                                                   / total(plain, clock.scaled) - 1.0)})
    extra = {"trace.overhead_raw_pct": (100.0 * (total(traced, clock.wall)
                                                 / total(plain, clock.wall) - 1.0), "%")}
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"{workload.name}-seed{seed}-spans.json")
    notes = {"op_samples_per_pass": len(traced[0].op_spans), "passes": len(plain + traced)}
    return metrics, PER_LAYER, warm, plain + traced, extra, notes


def run_one(workload, seed: int, trace: bool) -> int:
    name = workload.name
    try:
        if trace:
            metrics, units, warm, passes, extra, notes = run_traced(workload, seed)
        else:
            metrics, units, warm, passes, extra, notes = run_untraced(workload, seed)
    except Exception:  # an op that raises fails the run
        traceback.print_exc()
        return 1
    problems = list(warm.problems)
    for p in passes:
        problems.extend(p.problems)
    digests = {p.outputs[1] for p in passes}
    if len(digests) != 1:
        problems.append("passes on one seed gave different outputs")
    if any(p.outputs[0] != warm.outputs for p in passes):
        problems.append("the warm-up gave other outputs than the start of a pass")
    attempted = sum(len(p.op_spans) for p in passes)
    failed = sum(p.failed for p in passes)
    extra = {**passes[-1].results,
             "fail_frac": (failed / attempted, "failed/attempted"), **extra}

    record = {"workload": name, "seed": seed, "seconds": RUN_SECONDS, "trace": int(trace),
              "environment": environment(), "metrics": metrics,
              "results": {k: v for k, (v, _) in extra.items()},
              "digest": digests.pop() if len(digests) == 1 else None,
              "problems": sorted(set(problems)), **notes}
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{name}-seed{seed}-trace{int(trace)}.json", "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)

    print(f"# {name} seed={seed} {json.dumps(record['environment'])}")
    for key, value in metrics.items():
        print(f"{key} {value!r} {units[key]}")
    for key, (value, unit) in extra.items():
        print(f"{key} {value!r} {unit}")
    for key, value in notes.items():
        print(f"# {key} {value}")
    print(f"# digest {record['digest']}")
    for problem in record["problems"]:
        print(f"# FAILED CHECK: {problem}", file=sys.stderr)
    correct = not record["problems"]
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))
    return 0 if correct and failed == 0 else 1


def run_all(names, seed: int, trace: bool) -> int:
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in names:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--trace", str(int(trace))],
            stdout=subprocess.PIPE, text=True, check=False)
        lines = proc.stdout.splitlines()
        result = {"correct": False}
        if lines and lines[-1].startswith("{"):
            result = json.loads(lines.pop())
        print("\n".join(lines))
        status = status or proc.returncode
        combined["correct"] = combined["correct"] and result.get("correct", False)
        combined["attempted"] += result.get("attempted", 0)
        combined["failed"] += result.get("failed", 0)
        for key, value in result.get("metrics", {}).items():
            combined["metrics"][f"{name}.{key}"] = value
    print(json.dumps(combined))
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default=None,
                        help="one workload; omit to run them all, one process each")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=RUN_SECONDS,
                        help=f"must be run_seconds from BENCHMARK.json ({RUN_SECONDS})")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds != RUN_SECONDS:
        print(f"error: --seconds must be {RUN_SECONDS}, the run_seconds in BENCHMARK.json",
              file=sys.stderr)
        return 2
    if not (ROOT / "src" / "capsched" / "__init__.py").is_file():
        print(f"error: capsched sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    from workloads import WORKLOADS
    if args.workload is None:
        return run_all(list(WORKLOADS), args.seed, bool(args.trace))
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    return run_one(WORKLOADS[args.workload], args.seed, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
