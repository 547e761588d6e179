"""Re-measure the one-off timings quoted in ROADMAP.md.

    python3 bench/adhoc.py

Times train_bundle at the default config (median of three), one full
run_loocv at the default config, and one ursa place call of 5000
requests on 600 default nodes, in raw wall seconds. Prints one JSON
object, with the calibration kernel's median time around the
measurements to show how fast the machine was. These are single
measurements on a noisy machine, kept to check the ROADMAP's figures,
not part of the benchmark's gated metrics.
"""

from __future__ import annotations

import json
import statistics
import sys
import time

import run  # pins BLAS threads before numpy loads

sys.path.insert(0, str(run.ROOT / "src"))

from capsched import experiment, scheduler, workload_synth  # noqa: E402
from clock import Clock  # noqa: E402

CLOCK = Clock()


def timed(fn):
    CLOCK.calibrate()
    t0 = time.perf_counter()
    fn()
    elapsed = time.perf_counter() - t0
    CLOCK.calibrate()
    return elapsed


def main() -> None:
    config = experiment.ExperimentConfig()
    wset = experiment.build_workload_set(config)
    train = statistics.median(timed(lambda: experiment.train_bundle(config, wset))
                              for _ in range(3))
    loocv = timed(lambda: experiment.run_loocv(config, wset))
    big = workload_synth.WorkloadSet.generate(archetype_count=20, workload_count=5000,
                                              seed=run.DEFAULT_SEED)
    requests = [(f"w{w.workload_id:04d}", w.origin_spec, w.ground_truth_profile)
                for w in big.workloads]
    nodes = [scheduler.NodeState(node_id=i) for i in range(600)]
    place = timed(lambda: scheduler.place(requests, nodes, scheduler.ScheduleConfig()))
    print(json.dumps({"environment": run.environment(),
                      "train_bundle_default_s": train,
                      "run_loocv_default_s": loocv,
                      "place_5000_on_600_s": place,
                      "kernel_ms": 1e3 * statistics.median(CLOCK.kernel_s)}, indent=2))


if __name__ == "__main__":
    main()
