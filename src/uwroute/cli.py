"""Command-line front end: single runs, parameter sweeps, analytical model
evaluation on a snapshot, and channel calibration.

Every result directory gets the full effective configuration written next to
the numbers, so any emitted value can be reproduced from the directory alone.
Replicate r of a sweep point runs with seed = the point's run.seed + r.
"""

import argparse
import csv
import dataclasses
import json
import math
import os
import statistics
import sys
from multiprocessing import Pool

from . import analysis, channel, engine
from .config import ConfigError, ScenarioConfig, effective_config_text, parse_config, set_key

SWEEP_METRICS = (
    "pdr", "mean_e2e_delay_s", "total_energy_j", "network_lifetime_s",
    "generated", "delivered", "suppressed_forwards", "void_drops",
)
SUMMARY_COLUMNS = ("sweep_value", "metric", "mean", "stddev", "n")


def _jsonable(value):
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _write_json(path, payload) -> None:
    with open(path, "w") as fh:
        json.dump(_jsonable(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _run_one(task) -> dict:
    config, value, replicate = task
    record = engine.run(config)
    row = {
        "sweep_value": value,
        "replicate": replicate,
        "seed": config.seed,
        "protocol": config.protocol,
    }
    for metric in SWEEP_METRICS:
        row[metric] = getattr(record, metric)
    return row


def run_sweep(config: ScenarioConfig, param: str, values, replicates: int = 1,
              jobs: int | None = None) -> list[dict]:
    """One run per (sweep value, replicate), seeded with the point's run.seed
    plus the replicate; rows come sorted by sweep value then replicate."""
    if replicates < 1:
        raise ConfigError("replicates must be >= 1")
    if jobs is not None and jobs < 1:
        raise ConfigError(f"--jobs must be >= 1, got {jobs}")
    tasks = []
    configs = []
    for value in values:
        swept = set_key(config, param, value)
        if swept in configs:  # same seeds again: one group, understated stddev
            raise ConfigError(f"sweep value {value!r} repeats an earlier value of {param}")
        configs.append(swept)
        for r in range(replicates):
            tasks.append((dataclasses.replace(swept, seed=swept.seed + r), value, r))
    if jobs is None:
        jobs = min(len(tasks), os.cpu_count() or 1)
    if jobs > 1 and len(tasks) > 1:
        with Pool(jobs) as pool:
            rows = pool.map(_run_one, tasks)
    else:
        rows = [_run_one(t) for t in tasks]
    rows.sort(key=lambda row: (values.index(row["sweep_value"]), row["replicate"]))
    return rows


def aggregate_sweep(rows: list[dict]) -> list[dict]:
    """Mean and sample stddev per (sweep value, metric); the stddev is nan
    when a sample is not finite (no delivery gives a nan delay)."""
    by_value: dict = {}  # sweep value -> its rows, in first-seen order
    for row in rows:
        by_value.setdefault(row["sweep_value"], []).append(row)
    table = []
    for value, group in by_value.items():
        for metric in SWEEP_METRICS:
            samples = [float(r[metric]) for r in group]
            if not all(map(math.isfinite, samples)):
                stddev = math.nan  # statistics.stdev raises on inf and nan
            else:
                stddev = statistics.stdev(samples) if len(samples) > 1 else 0.0
            table.append({
                "sweep_value": value,
                "metric": metric,
                "mean": statistics.fmean(samples),
                "stddev": stddev,
                "n": len(samples),
            })
    return table


def _format_cell(value) -> str:
    return repr(value) if isinstance(value, float) else str(value)


def _write_csv(path, columns, rows: list[dict]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_format_cell(row[c]) for c in columns])


def _load_config(args) -> ScenarioConfig:
    config = parse_config(args.config) if args.config else ScenarioConfig()
    if getattr(args, "seed", None) is not None:
        config = dataclasses.replace(config, seed=args.seed)
    return config


def cmd_run(args) -> int:
    config = _load_config(args)
    trace = None
    trace_fh = None
    if args.trace:
        trace_fh = open(args.trace, "w")
        trace = lambda ev: trace_fh.write(json.dumps(_jsonable(ev)) + "\n")
    try:
        sim = engine.Simulation(config, trace=trace)
        record = sim.run()
    finally:
        if trace_fh:
            trace_fh.close()
    out = args.out
    os.makedirs(out, exist_ok=True)
    _write_csv(os.path.join(out, "metrics.csv"), record.CSV_COLUMNS,
               [dict(zip(record.CSV_COLUMNS, record.to_csv_row()))])
    _write_json(os.path.join(out, "metrics.json"), dataclasses.asdict(record))
    _write_json(os.path.join(out, "snapshot.json"), sim.snapshot_topology())
    _write_csv(os.path.join(out, "deployment.csv"),
               ["id", "kind", "x_m", "y_m", "z_m", "residual_energy_j"],
               [{"id": n.id, "kind": n.kind, "x_m": n.position.x, "y_m": n.position.y,
                 "z_m": n.position.z, "residual_energy_j": n.residual_energy_j}
                for n in sim.nodes])
    if config.protocol == "qlfr":  # every (node, neighbor, Q) triple, for convergence plots
        _write_csv(os.path.join(out, "q_tables.csv"), ["node", "neighbor", "q_value"],
                   [{"node": n.id, "neighbor": neighbor, "q_value": q}
                    for n in sim.nodes for neighbor, q in n.q_table.items()])
    with open(os.path.join(out, "effective_config.txt"), "w") as fh:
        fh.write(effective_config_text(config))
    print(f"pdr={record.pdr:.4f} delay={record.mean_e2e_delay_s:.4f}s "
          f"energy={record.total_energy_j:.2f}J lifetime={record.network_lifetime_s:.1f}s")
    return 0


def cmd_sweep(args) -> int:
    config = _load_config(args)
    values = [v.strip() for v in args.values.split(",") if v.strip()]
    if not values:
        raise ConfigError("sweep needs at least one value")
    rows = run_sweep(config, args.param, values, replicates=args.replicates,
                     jobs=args.jobs)
    out = args.out
    os.makedirs(out, exist_ok=True)
    table = aggregate_sweep(rows)
    _write_csv(os.path.join(out, "runs.csv"),
               ["sweep_value", "replicate", "seed", "protocol", *SWEEP_METRICS], rows)
    _write_csv(os.path.join(out, "summary.csv"), SUMMARY_COLUMNS, table)
    _write_json(os.path.join(out, "summary.json"), table)
    with open(os.path.join(out, "effective_config.txt"), "w") as fh:
        fh.write(effective_config_text(config))
    print(f"{len(rows)} runs over {args.param} in {{{args.values}}} -> {out}")
    return 0


def cmd_analyze(args) -> int:
    with open(args.snapshot) as fh:
        snap = json.load(fh)
    try:
        topo = analysis.load_snapshot(snap)
        # the run's duration and initial energy, checked by their keys' declarations
        run = ScenarioConfig(max_sim_time_s=snap["run"]["duration_s"],
                             initial_node_energy_j=snap["params"]["initial_node_energy_j"])
    except (KeyError, TypeError) as exc:
        raise analysis.TopologyError(
            f"{args.snapshot} is not a run snapshot: {type(exc).__name__} {exc}") from None
    rows = analysis.per_node_report(topo, run.max_sim_time_s, run.initial_node_energy_j)
    out = args.out
    os.makedirs(out, exist_ok=True)
    _write_csv(os.path.join(out, "per_node.csv"),
               ["id", "kind", "delivery_prob", "delay_to_sink_s",
                "traffic_packets", "energy_j", "lifetime_s"], rows)
    sources = [r for r in rows if r["kind"] == "source"]
    aggregates = {
        "network_lifetime_s": min((r["lifetime_s"] for r in rows), default=math.inf),
        "total_energy_j": sum(r["energy_j"] for r in rows),
        "source_delivery_prob": {r["id"]: r["delivery_prob"] for r in sources},
        "source_delay_s": {r["id"]: r["delay_to_sink_s"] for r in sources},
        "run_time_s": run.max_sim_time_s,
    }
    _write_json(os.path.join(out, "aggregates.json"), aggregates)
    print(f"analyzed {len(rows)} nodes -> {out}")
    return 0


def cmd_calibrate(args) -> int:
    config = _load_config(args)
    params = engine.resolve_channel(config)
    report = {
        "energy_per_bit": params.energy_per_bit,
        "noise_density_N0": params.noise_density_N0,
        "target_distance_m": config.calibration_distance_m,
        "target_pdr": config.calibration_pdr,
        "pdr_at_target": channel.packet_delivery_prob(config.calibration_distance_m, params),
    }
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        _write_json(os.path.join(args.out, "calibration.json"), report)
    print(json.dumps(_jsonable(report), indent=2, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uwroute",
        description="Underwater acoustic sensor network routing simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="simulate a single scenario")
    run_p.add_argument("--config", help="scenario config file")
    run_p.add_argument("--seed", type=int, help="override run.seed")
    run_p.add_argument("--out", default="results", help="output directory")
    run_p.add_argument("--trace", help="write a JSONL event trace to this path")
    run_p.set_defaults(func=cmd_run)

    sweep_p = sub.add_parser("sweep", help="run a parameter sweep")
    sweep_p.add_argument("--config", help="scenario config file")
    sweep_p.add_argument("--seed", type=int, help="override run.seed")
    sweep_p.add_argument("--param", required=True, help="config key to sweep")
    sweep_p.add_argument("--values", required=True, help="comma-separated values")
    sweep_p.add_argument("--replicates", type=int, default=1,
                         help="runs per sweep value, seeded run.seed + r")
    sweep_p.add_argument("--jobs", type=int, default=None)
    sweep_p.add_argument("--out", default="results", help="output directory")
    sweep_p.set_defaults(func=cmd_sweep)

    analyze_p = sub.add_parser("analyze", help="evaluate the analytical model on a snapshot")
    analyze_p.add_argument("--snapshot", required=True, help="snapshot.json from a run")
    analyze_p.add_argument("--out", default="results", help="output directory")
    analyze_p.set_defaults(func=cmd_analyze)

    cal_p = sub.add_parser("calibrate", help="calibrate the channel energy per bit")
    cal_p.add_argument("--config", help="scenario config file")
    cal_p.add_argument("--out", help="optional output directory")
    cal_p.set_defaults(func=cmd_calibrate)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, engine.EngineError, analysis.TopologyError, ValueError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
