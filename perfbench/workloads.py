"""The benchmark's workloads: how each builds its inputs from a seed, runs the
timed part through uwroute's public API, checks its outputs and digests them.

A workload has a fixed list of inputs per seed. One pass over that list is a
cycle; the benchmark repeats cycles, so every repeat runs the same inputs.
"""

import hashlib
import math
from dataclasses import replace
from random import Random

from uwroute import analysis, channel, world
from uwroute.config import ScenarioConfig
from uwroute.engine import Simulation

import tracing


class EngineWorkload:
    """Simulation runs of one scenario over consecutive seeds.

    Set-up is the `Simulation` constructor: config validation, energy-per-bit
    calibration and deployment. The timed part is `Simulation.run()`.
    """

    probe_repeats = 1  # host probe runs around each input run of about 1 s

    def __init__(self, name, why, scenario: ScenarioConfig, inputs_per_cycle: int):
        self.name = name
        self.why = why
        self.scenario = scenario
        self.inputs_per_cycle = inputs_per_cycle

    def inputs(self, seed: int) -> list:
        k = self.inputs_per_cycle
        return [replace(self.scenario, seed=seed * k + i) for i in range(k)]

    def describe(self, inputs) -> str:
        return f"scenario seeds {inputs[0].seed}..{inputs[-1].seed}"

    def setup(self, config):
        return Simulation(config)

    def execute(self, sim):
        return sim.run()

    def work_targets(self, tracer, sim):
        """Wrappers that count the work units of the untimed reference cycle."""
        return [(sim, "schedule", "engine.schedule", None)]

    def work(self, tracer, sim, record) -> int:
        """Work units of one input: engine events scheduled."""
        return tracer.calls["engine.schedule"]

    def trace_targets(self, tracer, sim):
        return tracing.engine_targets(tracer, sim)

    def check(self, sim, record) -> list[str]:
        problems = []
        lhs, rhs = sim.audit_energy()
        if not math.isclose(lhs, rhs, rel_tol=1e-9, abs_tol=1e-12):
            problems.append(f"energy ledger off: {lhs!r} J consumed vs {rhs!r} J from on-air time")
        if not 0 <= record.delivered <= record.generated or record.generated < 1:
            problems.append(f"delivered {record.delivered} outside [0, generated {record.generated}]")
        elif record.pdr != record.delivered / record.generated:
            problems.append(f"pdr {record.pdr!r} is not delivered / generated")
        if record.delivered and not (math.isfinite(record.mean_e2e_delay_s)
                                     and record.mean_e2e_delay_s > 0):
            problems.append(f"mean delay {record.mean_e2e_delay_s!r} of delivered packets")
        if not (math.isfinite(record.total_energy_j) and record.total_energy_j >= 0):
            problems.append(f"total energy {record.total_energy_j!r}")
        return problems

    def digest(self, sim, record) -> str:
        h = hashlib.sha256()
        h.update(",".join(record.to_csv_row()).encode())
        h.update(repr(sorted(record.per_node_energy_j.items())).encode())
        return h.hexdigest()

    def summary(self, outputs) -> dict:
        """Simulated outputs of one cycle, summed over its inputs."""
        generated = sum(r.generated for _, r in outputs)
        delivered = sum(r.delivered for _, r in outputs)
        delay = sum(r.mean_e2e_delay_s * r.delivered for _, r in outputs if r.delivered)
        return {
            "sim.generated": generated,
            "sim.delivered": delivered,
            "sim.pdr": delivered / generated,
            "sim.mean_e2e_delay_s": delay / delivered if delivered else math.nan,
            "sim.total_energy_j": sum(r.total_energy_j for _, r in outputs),
        }


class AnalyzeWorkload:
    """The analytical model on a frozen snapshot generated from the seed.

    Set-up builds the snapshot dict in the `Simulation.snapshot_topology()`
    schema without running the engine: config validation, calibration,
    deployment, and per node up to `max_list_length` strictly-shallower
    in-range candidates ordered by depth advance (ties to the lower id).
    The timed part is `analysis.load_snapshot` plus `analysis.per_node_report`.
    """

    # host probe runs around each input run: one report takes about 6 s, and
    # the probes must cover enough of that time to average out the same
    # short swings of host speed that the report averages out
    probe_repeats = 6

    def __init__(self, name, why, scenario: ScenarioConfig):
        self.name = name
        self.why = why
        self.scenario = scenario

    def inputs(self, seed: int) -> list:
        return [replace(self.scenario, seed=seed)]

    def describe(self, inputs) -> str:
        return f"snapshot seed {inputs[0].seed}, {inputs[0].n_sensors} sensors"

    def setup(self, cfg):
        cfg.validate()
        cp = channel.calibrate_energy_per_bit(
            cfg.channel_params(1.0), cfg.calibration_distance_m, cfg.calibration_pdr)
        nodes = world.deploy(cfg, Random(cfg.seed))
        by_id = {n.id: n for n in nodes}
        per_source = int(cfg.max_sim_time_s // cfg.source_interval_s)
        entries = []
        for node in nodes:
            candidates = []
            if not node.is_sink:
                shallower = [by_id[i] for i in world.neighbors_in_range(node, nodes, cfg.tx_range_m)
                             if by_id[i].depth < node.depth]
                shallower.sort(key=lambda o: (o.depth, o.id))
                candidates = [o.id for o in shallower[:cfg.max_list_length]]
            entries.append({
                "id": node.id, "kind": node.kind,
                "x": node.position.x, "y": node.position.y, "z": node.position.z,
                "residual_energy_j": node.residual_energy_j,
                "generated": per_source if node.kind == "source" else 0,
                "candidates": candidates,
            })
        snapshot = {
            "params": {
                "tx_range_m": cfg.tx_range_m,
                "sound_speed_mps": cfg.sound_speed_mps,
                "holding_h": cfg.effective_holding_h(),
                "tx_power_w": cfg.tx_power_w,
                "rx_power_w": cfg.rx_power_w,
                "seconds_per_packet": cp.serialization_s,
                "initial_node_energy_j": cfg.initial_node_energy_j,
                "channel": {
                    "frequency_khz": cp.frequency_khz,
                    "spreading_kappa": cp.spreading_kappa,
                    "atten_const_A0": cp.atten_const_A0,
                    "energy_per_bit": cp.energy_per_bit,
                    "noise_density_N0": cp.noise_density_N0,
                    "packet_bits_M": cp.packet_bits_M,
                    "bit_rate_mu": cp.bit_rate_mu,
                },
            },
            "run": {"duration_s": cfg.max_sim_time_s, "now_s": cfg.max_sim_time_s},
            "nodes": entries,
        }
        return cfg, snapshot

    def execute(self, state):
        cfg, snapshot = state
        # module-attribute calls, so that trace wrappers apply
        topo = analysis.load_snapshot(snapshot)
        return analysis.per_node_report(topo, cfg.max_sim_time_s, cfg.initial_node_energy_j)

    def work_targets(self, tracer, state):
        return []

    def work(self, tracer, state, rows) -> int:
        """Work units of one input: report rows, one per node."""
        return len(rows)

    def trace_targets(self, tracer, state):
        return tracing.analysis_targets()

    def check(self, state, rows) -> list[str]:
        _, snapshot = state
        problems = []
        if [r["id"] for r in rows] != sorted(e["id"] for e in snapshot["nodes"]):
            problems.append("report rows do not match the snapshot's nodes")
        for r in rows:
            p, d, e = r["delivery_prob"], r["delay_to_sink_s"], r["energy_j"]
            bad = []
            if not 0.0 <= p <= 1.0:
                bad.append(f"delivery_prob {p!r}")
            # the conditional delay is NaN exactly in a void (p == 0)
            if (p > 0.0 and not (math.isfinite(d) and d >= 0.0)) or (p == 0.0 and not math.isnan(d)):
                bad.append(f"delay_to_sink_s {d!r} at delivery_prob {p!r}")
            if r["kind"] == "sink" and (p != 1.0 or d != 0.0):
                bad.append("sink with delivery_prob != 1 or delay != 0")
            if not (math.isfinite(r["traffic_packets"]) and r["traffic_packets"] >= 0.0):
                bad.append(f"traffic_packets {r['traffic_packets']!r}")
            if not (math.isfinite(e) and e >= 0.0):
                bad.append(f"energy_j {e!r}")
            # lifetime is infinite exactly when the node spends no energy
            life = r["lifetime_s"]
            if (e > 0.0 and not (math.isfinite(life) and life > 0.0)) or (e == 0.0 and life != math.inf):
                bad.append(f"lifetime_s {life!r} at energy_j {e!r}")
            if bad:
                problems.append(f"node {r['id']}: " + ", ".join(bad))
        return problems

    def digest(self, state, rows) -> str:
        h = hashlib.sha256()
        for r in rows:
            h.update(repr(sorted(r.items())).encode())
        return h.hexdigest()

    def summary(self, outputs) -> dict:
        """The analytical counterparts of the simulated outputs: packets the
        sources generate, expected deliveries, their ratio, the delivery-
        weighted conditional delay and the expected energy of all nodes."""
        generated = 0
        delivered = delay = energy = 0.0
        for (_, snapshot), rows in outputs:
            gen = {e["id"]: e["generated"] for e in snapshot["nodes"]}
            for r in rows:
                expected = gen[r["id"]] * r["delivery_prob"]
                generated += gen[r["id"]]
                delivered += expected
                if expected > 0.0:
                    delay += expected * r["delay_to_sink_s"]
                energy += r["energy_j"]
        return {
            "sim.generated": generated,
            "sim.delivered": delivered,
            "sim.pdr": delivered / generated,
            "sim.mean_e2e_delay_s": delay / delivered if delivered else math.nan,
            "sim.total_energy_j": energy,
        }


def _cube(n_sensors: int) -> dict:
    """Region of the default node density (100 sensors in a 500 m cube)."""
    edge = 500.0 * (n_sensors / 100.0) ** (1.0 / 3.0)
    return dict(n_sensors=n_sensors, region_x_m=edge, region_y_m=edge, region_z_m=edge)


WORKLOADS = {w.name: w for w in (
    EngineWorkload(
        "qlfr_default",
        "the paper's headline scenario: hellos, priority lists and Q-learning "
        "dominate, broadcasts scan about 105 nodes",
        ScenarioConfig(protocol="qlfr"), inputs_per_cycle=5),
    EngineWorkload(
        "dbr_dense_800",
        "dbr at 8x the default node count and the same density: no hellos or "
        "learning, so the O(N) scan in transmit, link probability and the heap dominate",
        ScenarioConfig(protocol="dbr", max_sim_time_s=40.0, **_cube(800)), inputs_per_cycle=5),
    AnalyzeWorkload(
        "analyze_400",
        "the analytical model alone on a 400-node snapshot built without the "
        "engine, so engine changes should not move it",
        ScenarioConfig(**_cube(400))),
)}
