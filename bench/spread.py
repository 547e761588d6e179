"""Run-to-run spread of the end-to-end metrics, checked against the bounds.

    python3 bench/spread.py                      # 2 sets of seeds 101-110, every workload
    python3 bench/spread.py --sets 1 --seeds 5 loocv

Runs bench/run.py with --trace 0 once per seed and workload, set after
set, and reads each run's record from bench/out/. For every workload and
metric (the gated ones, and the unscaled raw.* and process CPU cpu.*
variants beside them) it reports the values of each set, their median
and quartiles (statistics.quantiles, n=4) and the spread, the distance
between the quartiles as a share of the median. A gated metric's spread
must stay within its bound in BENCHMARK.json (setup_s excepted), and each
later set's median may not be worse than the first set's by more than
the bound. The summary goes to bench/out/spreads.json; the command exits
1 if a check fails.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

from run import BENCH, OUT, ROOT

FIRST_SEED = 101


def summary(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*")
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--seeds", type=int, default=10)
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = args.workloads or [w["name"] for w in bench["workloads"]]
    gated = {m["name"]: m for m in bench["end_to_end"]}
    seeds = range(FIRST_SEED, FIRST_SEED + args.seeds)

    runs: dict[str, list[list[dict]]] = {n: [] for n in names}
    for _ in range(args.sets):
        for name in names:
            records = []
            for seed in seeds:
                t0 = time.perf_counter()
                proc = subprocess.run(
                    [sys.executable, str(BENCH / "run.py"), "--workload", name,
                     "--seed", str(seed), "--trace", "0"],
                    stdout=subprocess.DEVNULL, check=False)
                if proc.returncode != 0:
                    print(f"{name} seed {seed}: exit {proc.returncode}", file=sys.stderr)
                    return 1
                with open(OUT / f"{name}-seed{seed}-trace0.json", encoding="utf-8") as fh:
                    record = json.load(fh)
                record["run_wall_s"] = time.perf_counter() - t0
                records.append(record)
            runs[name].append(records)

    report, failures = {}, []
    for name, sets in runs.items():
        metrics = [k for k in sets[0][0]["metrics"]]
        metrics += [k for k in sets[0][0]["results"]
                    if k.partition(".")[0] in ("raw", "cpu")]
        metrics.append("run_wall_s")
        report[name] = {}
        for metric in metrics:
            per_set = [summary([r["metrics"].get(metric, r["results"].get(metric))
                                if metric != "run_wall_s" else r[metric] for r in records])
                       for records in sets]
            report[name][metric] = per_set
            if metric not in gated:
                continue
            bound, better = gated[metric]["bound"], gated[metric]["better"]
            for i, s in enumerate(per_set):
                if metric != "setup_s" and s["spread"] > bound:
                    failures.append(f"{name} {metric} set {i + 1}: spread {s['spread']:.3f} "
                                    f"> bound {bound}")
                change = s["median"] / per_set[0]["median"] - 1.0
                if (change if better == "lower" else -change) > bound:
                    failures.append(f"{name} {metric} set {i + 1}: median {change:+.3f} "
                                    f"from set 1, bound {bound}")
            print(f"{name:15s} {metric:12s} bound {bound:<5} "
                  + "  ".join(f"median {s['median']:.4g} spread {s['spread']:.3f}"
                              for s in per_set))
    OUT.mkdir(exist_ok=True)
    with open(OUT / "spreads.json", "w", encoding="utf-8") as fh:
        json.dump({"how": "python3 bench/spread.py: each set runs every seed once, so a "
                          "spread is across seeds, and the sets repeat the same seeds",
                   "seeds": list(seeds), "sets": args.sets,
                   "environment": runs[names[0]][0][0]["environment"],
                   "workloads": report}, fh, indent=1, sort_keys=True)
    for failure in failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
