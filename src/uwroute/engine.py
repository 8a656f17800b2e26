"""Deterministic discrete-event simulation kernel.

One binary heap of (time, insertion-seq, handler, args) events drives
everything: packet arrivals, hold expiries, mobility and hello ticks, source
generation and list-length reviews, each a bound `_handle_*` method called
with its args. Time ties go to the earlier insertion, so handlers are never
compared, and identical (config, seed) pairs replay the same event sequence.
The engine holds no protocol state: a review hands qlfr the delivery count
and traces the (length, window delivery ratio) that qlfr returns on a change.
Losses come solely from per-link Bernoulli draws against `channel.link_model`;
there is no MAC model. The first broadcast (or `in_range` call) after a move
builds every node's link table in one sweep over the in-range pairs that
`world.pairs_in_range` lists: `channel.link` computes each pair's propagation
delay and link delivery probability once, the sweep enters them at both ends,
and each table is then sorted by receiver id. A broadcast skips receivers
that have died since the sweep, so it draws from the RNG for each living
receiver in id order, as a scan of all nodes would. The tables are dropped in
`_handle_mobility`, the one place positions change during a run, and at the
end of `run`.
Every copy arrives its propagation delay plus one packet's airtime M/mu
after it is sent, the same M/mu that energy charges.

Energy accounting: a transmit costs tx_power * M/mu, a reception costs
rx_power * M/mu and is charged to every in-range sensor per arriving data
packet, corrupt or not (the carrier is occupied either way). An operation
a node cannot fully pay for kills it instead; dead nodes neither send nor
receive. Both go through `_debit`, the one place a node's energy falls.
Sinks are surface-powered and outside the energy model. Hello broadcasts are
treated as free, so the data-only analytical energy model stays comparable:
`_handle_hello_arrival` only hands an intact hello to `hear`, and
`_handle_arrival` takes data copies and dispatches on the class of the
protocol's outcome, the common `Drop` first.
"""

from dataclasses import asdict, dataclass, field
from heapq import heappop, heappush
from random import Random

from . import channel as chan
from .config import ScenarioConfig
from .dbr import DbrProtocol
from .qlfr import Deliver, Drop, PacketHeader, QlfrProtocol, Schedule
from .world import NodeState, deploy, pairs_in_range, projected_lifetime_s, random_walk_step

_BOOTSTRAP_S = 1.0  # each node sends its first hello at a uniform time in [0, this)


class EngineError(RuntimeError):
    pass


@dataclass
class MetricsRecord:
    generated: int
    delivered: int
    pdr: float
    mean_e2e_delay_s: float
    total_energy_j: float
    network_lifetime_s: float
    per_node_energy_j: dict
    suppressed_forwards: int
    void_drops: int
    corrupt_packets: int
    tx_seconds: float
    rx_seconds: float
    metadata: dict = field(default_factory=dict)

    CSV_COLUMNS = (
        "protocol", "seed", "n_sensors", "mobility_speed_mps", "holding_k_s",
        "generated", "delivered", "pdr", "mean_e2e_delay_s", "total_energy_j",
        "network_lifetime_s", "suppressed_forwards", "void_drops",
        "corrupt_packets", "tx_seconds", "rx_seconds", "energy_per_bit",
    )

    def to_csv_row(self) -> list[str]:
        """CSV_COLUMNS in order: a record field, else the run's metadata."""
        fields, md = vars(self), self.metadata
        values = [fields[c] if c in fields else md.get(c) for c in self.CSV_COLUMNS]
        return [repr(v) if isinstance(v, float) else str(v) for v in values]


def resolve_channel(config: ScenarioConfig) -> chan.ChannelParams:
    """Concrete channel parameters, calibrating e_b when not pinned."""
    if config.energy_per_bit is not None:
        return config.channel_params(config.energy_per_bit)
    base = config.channel_params(1.0)
    return chan.calibrate_energy_per_bit(
        base, config.calibration_distance_m, config.calibration_pdr)


class Simulation:
    def __init__(self, config: ScenarioConfig, nodes: list[NodeState] | None = None,
                 trace=None):
        self.config = config
        self.channel = resolve_channel(config)
        self.trace = trace
        self.rng = Random(config.seed)
        self.nodes = nodes if nodes is not None else deploy(config, self.rng)
        self.nodes.sort(key=lambda n: n.id)
        self.by_id = {n.id: n for n in self.nodes}
        self.sources = [n for n in self.nodes if n.kind == "source"]
        self.protocol = (QlfrProtocol if config.protocol == "qlfr" else DbrProtocol)(config)

        self.now = 0.0
        self.link_delivery_prob = chan.link_model(self.channel)
        # every node's link table, built on first use and dropped when nodes move
        self._links: dict[int, list[tuple[int, float, float]]] | None = None
        self._queue: list = []
        self._seq = 0
        self._spp = self.channel.serialization_s  # seconds on air per packet
        self._tx_cost = config.tx_power_w * self._spp
        self._rx_cost = config.rx_power_w * self._spp

        self.packet_gen_time: dict = {}  # key -> generation time, one per generated packet
        self.delivered_at: dict = {}
        self.source_seq: dict = {n.id: 0 for n in self.sources}
        self.suppressed_forwards = 0
        self.void_drops = 0
        self.corrupt_packets = 0

    # --- event plumbing ---

    def schedule(self, t: float, handler, *args) -> None:
        """Call `handler(*args)` at simulated time t."""
        if t < self.now - 1e-9:
            raise EngineError(f"event scheduled in the past: {t} < {self.now}")
        self._seq += 1
        heappush(self._queue, (t, self._seq, handler, args))

    def _emit(self, event: str, **fields) -> None:
        """Trace one event; callers check `self.trace is not None` first, so
        an untraced run builds no event fields."""
        self.trace({"t": self.now, "event": event, **fields})

    # --- energy ---

    def _debit(self, node: NodeState, cost: float) -> bool:
        """Take `cost` joules from `node`; kills it instead when it cannot pay."""
        if node.residual_energy_j < cost:
            node.alive = False
            node.death_time_s = self.now
            if self.trace is not None:
                self._emit("death", node=node.id)
            return False
        node.residual_energy_j -= cost
        node.consumed_j += cost
        return True

    def receive_energy_accounting(self, node: NodeState) -> bool:
        """Charge one packet reception; kills the node when it cannot pay."""
        if node.is_sink:
            return True
        if not self._debit(node, self._rx_cost):
            return False
        node.rx_seconds += self._spp
        return True

    # --- neighbour queries ---

    def _link_table(self, node: NodeState) -> list[tuple[int, float, float]]:
        """(id, propagation delay, link delivery probability) of every node,
        dead or alive, within tx_range_m of `node`'s current position,
        excluding it, in id order. The first call after a move builds every
        node's table in one pass over the in-range pairs."""
        links = self._links
        if links is None:
            links = self._links = {n.id: [] for n in self.nodes}
            points = ((n.id, n.position.x, n.position.y, n.position.z) for n in self.nodes)
            v0, link_prob, link = self.config.sound_speed_mps, self.link_delivery_prob, chan.link
            for a, b, d2 in pairs_in_range(points, self.config.tx_range_m):
                delay, p = link(d2, v0, link_prob)
                links[a].append((b, delay, p))
                links[b].append((a, delay, p))
            for table in links.values():
                table.sort()
        return links[node.id]

    def in_range(self, node: NodeState) -> list[tuple[int, float, float]]:
        """The link-table entries of the living nodes within range of `node`."""
        by_id = self.by_id
        return [link for link in self._link_table(node) if by_id[link[0]].alive]

    # --- transmission pipeline ---

    def transmit(self, sender: NodeState, pkt: PacketHeader) -> None:
        """Broadcast: one arrival per in-range living node, each independently
        marked delivered or corrupt by a Bernoulli draw on the link."""
        if not pkt.is_hello:
            if not self._debit(sender, self._tx_cost):
                return
            sender.tx_seconds += self._spp
        if self.trace is not None:
            self._emit("tx", node=sender.id, key=None if pkt.is_hello else pkt.key,
                       hello=pkt.is_hello, plist=list(pkt.priority_list))
        now, by_id, draw, ser = self.now, self.by_id, self.rng.random, self._spp
        schedule = self.schedule
        arrive = self._handle_hello_arrival if pkt.is_hello else self._handle_arrival
        for other_id, delay, p in self._link_table(sender):
            if by_id[other_id].alive:
                schedule(now + delay + ser, arrive, other_id, pkt, draw() < p)

    def _handle_hello_arrival(self, node_id: int, pkt: PacketHeader, ok: bool) -> None:
        """An intact hello refreshes a living receiver's neighbour table."""
        if ok:
            node = self.by_id[node_id]
            if node.alive:
                self.protocol.hear(node, pkt, self.now)

    def _handle_arrival(self, node_id: int, pkt: PacketHeader, ok: bool) -> None:
        node = self.by_id[node_id]
        if not node.alive:
            return
        if not self.receive_energy_accounting(node):
            return
        if not ok:
            self.corrupt_packets += 1
            return
        action = self.protocol.on_receive(node, pkt, self.now)
        kind = type(action)
        if kind is Drop:
            if action.reason == "suppressed":
                self.suppressed_forwards += 1
                if self.trace is not None:
                    self._emit("cancel", node=node_id, key=pkt.key)
            elif self.trace is not None:
                self._emit("drop", node=node_id, key=pkt.key, reason=action.reason)
        elif kind is Schedule:
            if self.trace is not None:
                self._emit("schedule", node=node_id, key=pkt.key, tau=action.tau,
                           position=action.position)
            self.schedule(self.now + action.tau, self._handle_hold_expire, node_id, pkt)
        elif kind is Deliver:
            self._record_delivery(node, pkt)

    def _record_delivery(self, sink: NodeState, pkt: PacketHeader) -> None:
        if pkt.key not in self.delivered_at:
            self.delivered_at[pkt.key] = self.now
            if self.trace is not None:
                gen_time = self.packet_gen_time.get(pkt.key, self.now)
                self._emit("deliver", node=sink.id, key=pkt.key, delay=self.now - gen_time)

    def _handle_hold_expire(self, node_id: int, pkt: PacketHeader) -> None:
        node = self.by_id[node_id]
        if not node.alive:
            return
        status, header = self.protocol.on_hold_expire(node, pkt, self.now)
        if status == "send":
            if self.trace is not None:
                self._emit("forward", node=node.id, key=pkt.key)
            self.transmit(node, header)
        elif status == "void":
            self.void_drops += 1
            if self.trace is not None:
                self._emit("void", node=node.id, key=pkt.key)

    def _handle_source_gen(self, source_id: int) -> None:
        node = self.by_id[source_id]
        if not node.alive:
            return
        self.schedule(self.now + self.config.source_interval_s, self._handle_source_gen, source_id)
        seq = self.source_seq[source_id]
        self.source_seq[source_id] = seq + 1
        key = (source_id, seq)
        self.packet_gen_time[key] = self.now
        if self.trace is not None:
            self._emit("gen", node=source_id, key=key)
        header = self.protocol.originate(node, seq, self.now)
        if header is None:
            self.void_drops += 1
            if self.trace is not None:
                self._emit("void", node=source_id, key=key)
        else:
            self.transmit(node, header)

    def _handle_mobility(self) -> None:
        self.schedule(self.now + self.config.mobility_tick_s, self._handle_mobility)
        region = self.config.region
        speed = self.config.mobility_speed_mps
        dt = self.config.mobility_tick_s
        self._links = None
        for node in self.nodes:
            if node.is_sink or not node.alive:
                continue
            node.position = random_walk_step(node, speed, dt, self.rng, region)

    def _handle_hello(self, node_id: int) -> None:
        node = self.by_id[node_id]
        if not node.alive:
            return
        self.schedule(self.now + self.config.hello_interval_s, self._handle_hello, node_id)
        self.transmit(node, self.protocol.hello_header(node))

    def _handle_suppression_review(self) -> None:
        """Run qlfr's list-length review on the unique deliveries so far and
        trace the new length when the review changes it."""
        self.schedule(self.now + self.config.suppression_interval_s,
                      self._handle_suppression_review)
        change = self.protocol.review(len(self.delivered_at))
        if change is not None and self.trace is not None:
            self._emit("list-length", value=change[0], pdr=change[1])

    # --- run loop ---

    def run(self) -> MetricsRecord:
        cfg = self.config
        if self.protocol.uses_hello:
            for node in self.nodes:
                self.schedule(self.rng.uniform(0.0, _BOOTSTRAP_S), self._handle_hello,
                              node.id)
        if cfg.mobility_speed_mps > 0:
            self.schedule(cfg.mobility_tick_s, self._handle_mobility)
        for node in self.sources:
            self.schedule(cfg.source_interval_s, self._handle_source_gen, node.id)
        if cfg.protocol == "qlfr":
            self.schedule(cfg.suppression_interval_s, self._handle_suppression_review)
        self.drain(cfg.max_sim_time_s)
        self._links = None  # a finished run holds no link tables
        return self._finalize()

    def drain(self, until: float) -> None:
        """Process queued events in time order up to and including `until`."""
        queue = self._queue
        while queue:
            t, seq, handler, args = heappop(queue)
            if t > until:  # the one event past `until` goes back
                heappush(queue, (t, seq, handler, args))
                break
            self.now = t
            handler(*args)

    # --- results ---

    def _finalize(self) -> MetricsRecord:
        cfg = self.config
        generated = len(self.packet_gen_time)
        if generated == 0:
            raise EngineError("no packets were generated; cannot compute a delivery ratio")
        delays = [self.delivered_at[k] - self.packet_gen_time[k] for k in self.delivered_at]
        sensors = [n for n in self.nodes if not n.is_sink]
        deaths = [n.death_time_s for n in sensors if n.death_time_s is not None]
        lifetime = min(deaths) if deaths else min(
            projected_lifetime_s(n.initial_energy_j, cfg.max_sim_time_s, n.consumed_j)
            for n in sensors)
        return MetricsRecord(
            generated=generated,
            delivered=len(self.delivered_at),
            pdr=len(self.delivered_at) / generated,
            mean_e2e_delay_s=sum(delays) / len(delays) if delays else float("nan"),
            total_energy_j=sum(n.consumed_j for n in sensors),
            network_lifetime_s=lifetime,
            per_node_energy_j={n.id: n.consumed_j for n in self.nodes},
            suppressed_forwards=self.suppressed_forwards,
            void_drops=self.void_drops,
            corrupt_packets=self.corrupt_packets,
            tx_seconds=sum(n.tx_seconds for n in sensors),
            rx_seconds=sum(n.rx_seconds for n in sensors),
            metadata={
                "protocol": cfg.protocol,
                "seed": cfg.seed,
                "n_sensors": cfg.n_sensors,
                "mobility_speed_mps": cfg.mobility_speed_mps,
                "holding_k_s": cfg.holding_k_s,
                "holding_h": cfg.holding_h,
                "energy_per_bit": self.channel.energy_per_bit,
                "sim_time_s": cfg.max_sim_time_s,
            },
        )

    def audit_energy(self) -> tuple[float, float]:
        """(sum of per-node consumed energy, power * seconds recomputation)."""
        sensors = [n for n in self.nodes if not n.is_sink]
        lhs = sum(n.consumed_j for n in sensors)
        rhs = (self.config.tx_power_w * sum(n.tx_seconds for n in sensors)
               + self.config.rx_power_w * sum(n.rx_seconds for n in sensors))
        return lhs, rhs

    def snapshot_topology(self) -> dict:
        """Freeze positions, candidate lists and traffic for the analytical
        model. Candidates are re-filtered against true depths and current
        positions so the exported candidate graph is a depth-ordered DAG.
        """
        cfg = self.config
        entries = []
        for node in self.nodes:
            entry = {
                "id": node.id, "kind": node.kind,
                "x": node.position.x, "y": node.position.y, "z": node.position.z,
                "residual_energy_j": node.residual_energy_j,
                "generated": self.source_seq.get(node.id, 0),
                "candidates": [],
            }
            if not node.is_sink and node.alive and cfg.protocol == "qlfr":
                in_range = {nid for nid, _, _ in self.in_range(node)}
                ranked = self.protocol.candidates(node, self.now)
                entry["candidates"] = [
                    nid for nid in ranked
                    if nid in in_range and self.by_id[nid].depth < node.depth
                ]
            entries.append(entry)
        return {
            "params": {
                "protocol": cfg.protocol,
                "tx_range_m": cfg.tx_range_m,
                "sound_speed_mps": cfg.sound_speed_mps,
                "holding_h": cfg.holding_h,
                "tx_power_w": cfg.tx_power_w,
                "rx_power_w": cfg.rx_power_w,
                "initial_node_energy_j": cfg.initial_node_energy_j,
                "channel": asdict(self.channel),
            },
            "run": {"duration_s": cfg.max_sim_time_s, "now_s": self.now},
            "nodes": entries,
        }


def run(config: ScenarioConfig, trace=None) -> MetricsRecord:
    """Simulate and summarize one scenario."""
    return Simulation(config, trace=trace).run()
