"""Command line front end for the whole pipeline.

Every subcommand reads versioned JSON artifacts and writes versioned
JSON (plus CSV tables for plotting) into the --out directory. Given
the same config file and seed, re-running any command reproduces its
output files byte for byte. Exit codes: 0 on success, 2 when the only
failure is an infeasible request or exhausted capacity, 1 on errors.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from .core import (
    CapacityExhaustedError,
    InfeasibleError,
    InterferenceProfile,
    NodeConstants,
    ResourceSpec,
    SystemIndexVector,
    decode,
    read_json,
    reject_unknown_keys,
    write_json,
)
from .estimator import ReferenceTracks, build_profile, stress_reference_tracks
from .experiment import (
    ExperimentConfig,
    build_workload_set,
    evaluate_validation,
    run_colocation,
    run_hyperparam_sweep,
    run_loocv,
    run_scenario1,
    run_scenario2,
    train_bundle,
)
from .planner import ModelBundle, PlanningRequest, plan_capacity
from .scheduler import REQUEST_FIELDS, NodeState, ScheduleConfig, place, request_json
from .simulator import simulate_colocated
from .workload_synth import WorkloadSet, probe_for


def _config_from_args(args) -> ExperimentConfig:
    config = (ExperimentConfig.from_file(args.config) if args.config
              else ExperimentConfig())
    if args.seed is not None:
        config = replace(config, rng_seed=args.seed)
    return config


def _out_dir(args) -> Path:
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _flag(flag: str, parse, text: str):
    """parse(text), a fault naming the flag the text came from."""
    try:
        return parse(text)
    except ValueError as exc:
        raise ValueError(f"{flag}: {exc}") from None


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _write_csv(path: Path, rows, columns=None) -> None:
    rows = list(rows)
    if columns is None:
        columns = list(rows[0]) if rows else []
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_csv_cell(row.get(c)) for c in columns))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _check_set_matches(config: ExperimentConfig, wset: WorkloadSet) -> None:
    if wset.region != config.region:
        raise ValueError("workload set region does not match the config")
    if wset.base_spec != config.base_spec:
        raise ValueError("workload set base spec does not match the config")
    if len(wset.workloads) != config.workload_count:
        raise ValueError("workload set size does not match the config")


def _load_or_generate(args, config: ExperimentConfig) -> WorkloadSet:
    if getattr(args, "workloads", None):
        wset = WorkloadSet.load(args.workloads)
        _check_set_matches(config, wset)
        return wset
    return build_workload_set(config)


def cmd_gen(args) -> int:
    config = _config_from_args(args)
    out = _out_dir(args)
    wset = build_workload_set(config)
    wset.save(out / "workloads.json")
    print(f"wrote {out / 'workloads.json'}: {len(wset.archetypes)} archetypes, "
          f"{len(wset.workloads)} workloads")
    return 0


def cmd_train(args) -> int:
    config = _config_from_args(args)
    out = _out_dir(args)
    wset = _load_or_generate(args, config)
    bundle = train_bundle(config, wset)
    bundle.save(out / "bundle.json")
    report = evaluate_validation(config, wset, bundle)
    write_json(out / "validation.json", report.to_json())
    clf = bundle.classifier
    print(f"wrote {out / 'bundle.json'} "
          f"(k={bundle.clustering.k}, features={list(bundle.selection.selected)}, "
          f"epochs={clf.epochs}, converged={str(clf.converged).lower()})")
    print(f"validation error: mean={report.mean_error:.4f} "
          f"max={report.max_error:.4f}")
    return 0


def cmd_calibrate(args) -> int:
    out = _out_dir(args)
    constants = (WorkloadSet.load(args.workloads).constants if args.workloads
                 else NodeConstants())
    tracks = stress_reference_tracks(constants)
    write_json(out / "reference_tracks.json", tracks.to_json())
    print(f"wrote {out / 'reference_tracks.json'}: {len(tracks.levels)} stress levels")
    return 0


def cmd_plan(args) -> int:
    config = _config_from_args(args)
    current = _flag("--current", ResourceSpec.parse, args.current)
    out = _out_dir(args)
    bundle = ModelBundle.load(args.bundle)
    if bundle.base_spec != config.base_spec:
        raise ValueError(f"config base {config.base_spec.key} differs from "
                         f"the bundle's base {bundle.base_spec.key}")
    raw = read_json(args.indexes)
    if isinstance(raw, dict):
        raw = raw.get("indexes", raw)
    indexes = SystemIndexVector.from_json(raw, f"{args.indexes}: indexes")
    tolerance = config.epsilon if args.tolerance is None else args.tolerance
    request = PlanningRequest(policy=args.policy, current_spec=current,
                              target_speedup=args.target,
                              performance_tolerance=tolerance,
                              cost_weights=config.cost_weights)
    surface = bundle.predict(indexes)
    record = {
        "schema": "plan/v1",
        "policy": args.policy,
        "base": config.base_spec.key,
        "current": current.key,
        "target_speedup": args.target,
        "performance_tolerance": tolerance,
    }
    try:
        rec = plan_capacity(request, surface)
    except InfeasibleError as exc:
        record.update({"infeasible": True, "recommended": None,
                       "best_speedup": exc.best_speedup})
        write_json(out / "plan.json", record)
        print(f"infeasible: best achievable {exc.best_speedup:.3f}x",
              file=sys.stderr)
        return 2
    record.update({
        "infeasible": False,
        "recommended": rec.to_json(),
        "predicted_ratio": surface.speedup_at(rec) / surface.speedup_at(current),
    })
    write_json(out / "plan.json", record)
    print(f"recommended: {rec.key}")
    return 0


def cmd_estimate(args) -> int:
    config = _config_from_args(args)
    spec = _flag("--spec", ResourceSpec.parse, args.spec) if args.spec else None
    out = _out_dir(args)
    wset = WorkloadSet.load(args.workloads)
    if spec:
        wset.region.require(spec)
    if args.tracks:
        tracks = ReferenceTracks.from_json(read_json(args.tracks), f"{args.tracks}: tracks")
        if tracks.ways != wset.constants.llc_ways:
            raise ValueError(f"{args.tracks}: tracks cover {tracks.ways} ways, the "
                             f"workload set's nodes have {wset.constants.llc_ways}")
    else:
        tracks = stress_reference_tracks(wset.constants)
    records = []
    for w in wset.workloads:
        at = spec or w.origin_spec
        probe = probe_for(w, at, wset.constants,
                          noise_sigma=config.probe_noise, seed=w.noise_seed)
        records.append(request_json(w.workload_id, at, build_profile(probe, tracks)))
    write_json(out / "profiles.json",
               {"schema": "profiles/v1", "profiles": records})
    print(f"wrote {out / 'profiles.json'}: {len(records)} profiles")
    return 0


def _rows(path, rows: list, what: str):
    """(where, row) for each row of a file's list; every row must be an object."""
    for i, row in enumerate(rows):
        where = f"{path}: {what} row {i}"
        if not isinstance(row, dict):
            raise ValueError(f"{where} is not a JSON object")
        yield where, row


def _load_requests(path) -> list[tuple[int | str, ResourceSpec, InterferenceProfile]]:
    raw = read_json(path)
    rows = raw.get("requests", raw.get("profiles")) if isinstance(raw, dict) else raw
    if not isinstance(rows, list):
        raise ValueError(f"{path}: requests file needs a 'requests' or 'profiles' list")
    if not rows:
        raise ValueError(f"{path}: requests file lists no requests")
    return [tuple(decode(REQUEST_FIELDS, row, where).values())
            for where, row in _rows(path, rows, "request")]


def _load_nodes(args, config: ExperimentConfig) -> list[NodeState]:
    if not args.nodes:
        cap = ResourceSpec(config.node_cores, config.node_memory_gb)
        return [NodeState(node_id=i, capacity=cap)
                for i in range(config.cluster_nodes)]
    raw = read_json(args.nodes)
    where = f"{args.nodes}: node inventory"
    if not isinstance(raw, dict):
        raise ValueError(f"{where} must be a JSON object")
    if "nodes" in raw:
        reject_unknown_keys(raw, ("nodes",), where)
        if not isinstance(raw["nodes"], list):
            raise ValueError(f"{args.nodes}: 'nodes' must be a list")
        nodes = [NodeState.from_json(row, row_where)
                 for row_where, row in _rows(args.nodes, raw["nodes"], "node")]
    else:
        types = {"count": int, "cores": int, "memory_gb": int}
        reject_unknown_keys(raw, types, where)
        inventory = decode(types, {"cores": config.node_cores,
                                   "memory_gb": config.node_memory_gb, **raw}, where)
        cap = ResourceSpec(inventory["cores"], inventory["memory_gb"])
        nodes = [NodeState(node_id=i, capacity=cap) for i in range(inventory["count"])]
    if not nodes:
        raise ValueError(f"{args.nodes}: node inventory is empty")
    return nodes


def cmd_schedule(args) -> int:
    config = _config_from_args(args)
    out = _out_dir(args)
    requests = _load_requests(args.requests)
    nodes = _load_nodes(args, config)
    schedule_config = ScheduleConfig(policy=args.policy, scaler=args.scaler
                                     if args.scaler is not None else config.scaler)
    try:
        placements = place(requests, nodes, schedule_config)
    except CapacityExhaustedError as exc:
        print(f"capacity exhausted: {exc}", file=sys.stderr)
        return 2
    lines = [json.dumps(p.to_json(), sort_keys=True) for p in placements]
    (out / "placements.jsonl").write_text("\n".join(lines) + "\n",
                                          encoding="utf-8")
    print(f"wrote {out / 'placements.jsonl'}: {len(placements)} placements "
          f"({schedule_config.policy})")
    return 0


def cmd_simulate(args) -> int:
    config = _config_from_args(args)
    out = _out_dir(args)
    # The simulator's cluster has one capacity and starts empty.
    nodes = _load_nodes(args, config)
    cap = nodes[0].capacity
    if (sorted(n.node_id for n in nodes) != list(range(len(nodes)))
            or any(n.capacity != cap or n.deployed or n.used_cores
                   or n.used_memory_gb for n in nodes)):
        raise ValueError(f"{args.nodes}: simulate needs empty nodes 0..n-1 "
                         "of one capacity")
    cluster = replace(config.cluster_spec, nodes=len(nodes), node_cores=cap.cores,
                      node_memory_gb=cap.memory_gb)
    requests = {wid: (spec, profile)
                for wid, spec, profile in _load_requests(args.requests)}
    tenants = {}
    with open(args.placements, "r", encoding="utf-8") as fh:
        for number, line in enumerate(fh, 1):
            if not line.strip():
                continue
            where = f"{args.placements}: line {number}"
            try:
                row = json.loads(line)
            except ValueError as exc:
                raise ValueError(f"{where}: {exc}") from None
            row = decode({"workload_id": int | str, "node_id": int}, row, where)
            wid, node_id = row["workload_id"], row["node_id"]
            if wid not in requests:
                raise ValueError(f"{where}: placement for unknown workload {wid!r}")
            if wid in tenants:
                raise ValueError(f"{where}: workload {wid!r} is placed twice")
            if not 0 <= node_id < len(nodes):
                raise ValueError(f"{where}: node {node_id} is not in the inventory")
            spec, profile = requests[wid]
            tenants[wid] = (wid, node_id, spec, profile)
    if not tenants:
        raise ValueError(f"{args.placements}: placements file lists no placements")
    try:
        report = simulate_colocated(list(tenants.values()), cluster)
    except ValueError as exc:
        raise ValueError(f"{args.placements}: {exc}") from None
    write_json(out / "simulation.json",
               {"schema": "simulation-report/v1", **report.to_json()})
    _write_csv(out / "simulation.csv", (e.to_json() for e in report.entries))
    print(f"p_sys={report.p_sys:.4f} unfairness={report.unfairness:.4f} "
          f"({len(tenants)} tenants)")
    return 0


def _emit_report(out: Path, name: str, report, csv_columns=None) -> None:
    write_json(out / f"{name}.json", report.to_json())
    rows = [dict(r) for r in report.rows]
    for row in rows:
        row.pop("errors", None)
    _write_csv(out / f"{name}.csv", rows, columns=csv_columns)


def cmd_scenario1(args) -> int:
    config = _config_from_args(args)
    out = _out_dir(args)
    wset = _load_or_generate(args, config)
    report = run_scenario1(config, wset, train_bundle(config, wset))
    _emit_report(out, "scenario1", report)
    s = report.summary
    print(f"scenario1: {s['optimal']}/{s['feasible']} optimal, "
          f"{s['satisfied']}/{s['feasible']} satisfied, "
          f"{s['infeasible']} infeasible")
    return 0


def cmd_scenario2(args) -> int:
    config = _config_from_args(args)
    out = _out_dir(args)
    wset = _load_or_generate(args, config)
    report = run_scenario2(config, wset, train_bundle(config, wset))
    _emit_report(out, "scenario2", report)
    s = report.summary
    print(f"scenario2: {s['preserved']}/{s['workloads']} preserved, "
          f"core reduction {s['core_reduction_pct']:.1f}%, "
          f"memory reduction {s['memory_reduction_pct']:.1f}%")
    return 0


def cmd_colocate(args) -> int:
    config = _config_from_args(args)
    out = _out_dir(args)
    wset = _load_or_generate(args, config)
    report = run_colocation(config, wset, train_bundle(config, wset))
    _emit_report(out, "colocation", report)
    s = report.summary
    print(f"colocate: {s['unfairness_wins']}/{s['trials'] - s['aborted']} "
          f"unfairness wins, aborted {s['aborted']}")
    if s["mean_unfairness_reduction_pct"] is not None:
        print(f"mean unfairness reduction "
              f"{s['mean_unfairness_reduction_pct']:.1f}%, "
              f"min p_sys ratio {s['min_p_sys_ratio']:.4f}")
    return 2 if s["aborted"] == s["trials"] else 0


def _parse_int_list(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        part = part.strip()
        try:
            if ":" in part:
                lo, hi = part.split(":")
                out.extend(range(int(lo), int(hi) + 1))
            elif part:
                out.append(int(part))
        except ValueError:
            raise ValueError(f"{part!r} is not an integer or a lo:hi range") from None
    return out


def _parse_base(text: str) -> ResourceSpec:
    """A spec in the 6c8g form: --bases splits on commas, so 6,8 cannot occur."""
    try:
        return ResourceSpec.parse(text)
    except ValueError:
        raise ValueError(f"{text!r} is not a spec like 6c8g") from None


def cmd_sweep(args) -> int:
    config = _config_from_args(args)
    ks = _flag("--ks", _parse_int_list, args.ks) if args.ks else None
    bases = (_flag("--bases", lambda t: [_parse_base(b) for b in t.split(",")],
                   args.bases) if args.bases else None)
    out = _out_dir(args)
    report = run_hyperparam_sweep(config, _load_or_generate(args, config),
                                  ks=ks, bases=bases)
    _emit_report(out, "sweep", report,
                 csv_columns=["k", "base", "mean_error", "max_error"])
    s = report.summary
    print(f"sweep: {s['points']} points, best k={s['best_k']} "
          f"base={s['best_base']} mean_error={s['best_mean_error']:.4f}, "
          f"{s['capped_fits']} fits capped at {config.mlp_epochs} epochs")
    return 0


def cmd_loocv(args) -> int:
    config = _config_from_args(args)
    out = _out_dir(args)
    report = run_loocv(config, _load_or_generate(args, config))
    _emit_report(out, "loocv", report)
    s = report.summary
    print(f"loocv: {s['rounds']} rounds, mean={s['mean_error']:.4f} "
          f"max={s['max_error']:.4f}, {s['capped_fits']} fits capped at "
          f"{config.mlp_epochs} epochs")
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="experiment config JSON file")
    common.add_argument("--seed", type=int, help="override the config rng_seed")
    common.add_argument("--out", default=".", help="output directory")

    parser = argparse.ArgumentParser(
        prog="capsched",
        description="scaling-surface capacity planning and contention-aware "
                    "scheduling, end to end")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", parents=[common],
                       help="generate a workload set")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("train", parents=[common],
                       help="fit selection, clustering and classifier")
    p.add_argument("--workloads", help="workload set JSON (default: generate)")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("calibrate", parents=[common],
                       help="write the stress reference tracks sidecar")
    p.add_argument("--workloads", help="calibrate the nodes of this workload set JSON "
                                       "(default: default nodes)")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("plan", parents=[common],
                       help="recommend a spec from a trained bundle")
    p.add_argument("--bundle", required=True, help="bundle JSON from train")
    p.add_argument("--indexes", required=True, help="index vector JSON")
    p.add_argument("--policy", choices=["scale-up", "scale-down"],
                   default="scale-up")
    p.add_argument("--current", required=True,
                   help="current spec, e.g. 2c4g or 2,4")
    p.add_argument("--target", type=float, default=1.0,
                   help="target speedup over current (scale-up)")
    p.add_argument("--tolerance", type=float,
                   help="performance tolerance (scale-down)")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("estimate", parents=[common],
                       help="quantify interference profiles with probe sweeps")
    p.add_argument("--workloads", required=True, help="workload set JSON")
    p.add_argument("--tracks", help="reference tracks JSON from calibrate")
    p.add_argument("--spec", help="probe every workload at this spec "
                                  "instead of its origin")
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("schedule", parents=[common],
                       help="place workloads onto nodes")
    p.add_argument("--requests", required=True,
                   help="JSON with per-workload spec and profile")
    p.add_argument("--nodes", help="node inventory JSON (default: config)")
    p.add_argument("--policy", choices=["ursa", "lrp"], default="ursa")
    p.add_argument("--scaler", type=float, help="risk amplification base")
    p.set_defaults(func=cmd_schedule)

    p = sub.add_parser("simulate", parents=[common],
                       help="run a placement through the degradation model")
    p.add_argument("--placements", required=True, help="placements JSONL")
    p.add_argument("--requests", required=True,
                   help="JSON with per-workload spec and profile")
    p.add_argument("--nodes", help="node inventory JSON, as for schedule "
                                   "(default: config)")
    p.set_defaults(func=cmd_simulate)

    for name, func, extra in [
        ("scenario1", cmd_scenario1, "scale-up planning study"),
        ("scenario2", cmd_scenario2, "scale-down planning study"),
        ("colocate", cmd_colocate, "co-location placement trials"),
        ("loocv", cmd_loocv, "leave-one-out validation of the pipeline"),
    ]:
        p = sub.add_parser(name, parents=[common], help=extra)
        p.add_argument("--workloads", help="workload set JSON (default: generate)")
        p.set_defaults(func=func)

    p = sub.add_parser("sweep", parents=[common],
                       help="validation error across k and base configs")
    p.add_argument("--workloads", help="workload set JSON (default: generate)")
    p.add_argument("--ks", help="comma list or lo:hi ranges, e.g. 2:30")
    p.add_argument("--bases", help="comma list of base specs, e.g. 1c2g,6c8g")
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InfeasibleError, CapacityExhaustedError) as exc:
        print(f"infeasible: {exc}", file=sys.stderr)
        return 2
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
