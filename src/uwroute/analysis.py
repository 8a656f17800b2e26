"""Closed-form performance model on a frozen topology snapshot.

Given fixed positions, per-node ordered candidate lists and per-link delivery
probabilities, computes the expected delivery probability to any sink, the
expected end-to-end delay, per-node traffic and energy, and each node's
projected lifetime; the network lifetime is the least of these. It assumes
the candidates of a packet coordinate perfectly: the highest-priority
candidate whose link succeeded forwards, everyone else stays silent. Used
as an independent oracle against Monte-Carlo simulation of the same snapshot.

Every candidate must be strictly shallower than its sender, so the candidate
graph is a depth-ordered DAG and the whole model is one pass over it (see
`_solve`). Each sender's forward probabilities, one per candidate in list
order, are built once, with the topology. The delay weights each hop by the
probability that the hop's forwarder is elected, which does not condition on
eventual delivery; both the raw (delivery-weighted) value and the normalized
value raw / P(delivery) are exposed, the latter being comparable to a
simulator's mean delay of delivered packets.
"""

import math
from collections import Counter
from dataclasses import dataclass

from . import channel as chan
from .config import ScenarioConfig
from .qlfr import HoldingParams, holding_time
from .world import CellGrid


class TopologyError(ValueError):
    pass


@dataclass(frozen=True)
class StaticTopology:
    kinds: dict  # id -> "sensor" | "source" | "sink"
    positions: dict  # id -> (x, y, z); z increases toward the surface
    candidates: dict  # id -> ordered tuple of candidate ids (empty for sinks)
    link_prob: dict  # (sender, candidate) -> delivery probability
    neighbors: dict  # id -> tuple of geometric neighbor ids (overhearing)
    gen_packets: dict  # source id -> packets generated over the horizon
    holding: HoldingParams
    sound_speed_mps: float = 1500.0
    tx_power_w: float = 2.0
    rx_power_w: float = 0.5
    seconds_per_packet: float = 0.0512
    region_z_m: float = 500.0

    def __post_init__(self):
        inbound: dict = {}  # candidate -> [(sender, priority)] in candidates order
        forward: dict = {}  # sender -> forward probability of each candidate, in order
        for sender, cands in self.candidates.items():
            if len(set(cands)) != len(cands):
                raise TopologyError(f"duplicate candidate in list of node {sender}")
            ps = []
            for position, c in enumerate(cands, 1):
                inbound.setdefault(c, []).append((sender, position))
                if (sender, c) not in self.link_prob:
                    raise TopologyError(f"missing link probability for {(sender, c)}")
                p = self.link_prob[(sender, c)]
                if not 0.0 <= p <= 1.0:
                    raise TopologyError(f"link probability {p} for {(sender, c)} not in [0, 1]")
                ps.append(p)
            forward[sender] = tuple(candidate_forward_prob(ps, j) for j in range(1, len(ps) + 1))
        object.__setattr__(self, "_inbound", inbound)
        object.__setattr__(self, "_forward", forward)

    def depth(self, node: int) -> float:
        return self.region_z_m - self.positions[node][2]

    def distance(self, a: int, b: int) -> float:
        return math.dist(self.positions[a], self.positions[b])

    def is_sink(self, node: int) -> bool:
        return self.kinds[node] == "sink"

    def senders_of(self, node: int) -> list[tuple[int, int]]:
        """(sender, 1-indexed priority of `node`) pairs in `candidates` order."""
        return list(self._inbound.get(node, ()))


def candidate_forward_prob(p_list, j: int) -> float:
    """Probability that the j-th candidate (1-indexed) forwards: its own link
    succeeds and every higher-priority link failed."""
    if j < 1 or j > len(p_list):
        raise ValueError(f"candidate index {j} outside 1..{len(p_list)}")
    prob = p_list[j - 1]
    for k in range(j - 1):
        prob *= 1.0 - p_list[k]
    return prob


def forward_prob(topo: StaticTopology, sender: int, candidate: int) -> float:
    """P(sender's transmission is forwarded by this particular candidate)."""
    return topo._forward[sender][topo.candidates[sender].index(candidate)]


def outgoing_traffic(topo: StaticTopology) -> dict:
    """Expected packets transmitted per node: own generation plus the inbound
    share of every sender's traffic. Sinks absorb and never transmit."""
    order = sorted(topo.candidates, key=lambda n: topo.depth(n), reverse=True)
    traffic = {nid: float(topo.gen_packets.get(nid, 0.0)) for nid in topo.kinds}
    for sender in order:
        if topo.is_sink(sender):
            continue
        for cand, fwd in zip(topo.candidates[sender], topo._forward[sender]):
            if topo.depth(cand) >= topo.depth(sender):
                raise TopologyError(
                    f"candidate {cand} of node {sender} is not strictly shallower")
            if not topo.is_sink(cand):
                traffic[cand] += fwd * traffic[sender]
    for sink in topo.kinds:
        if topo.is_sink(sink):
            traffic[sink] = 0.0
    return traffic


def expected_holding_time(topo: StaticTopology, node: int, traffic: dict) -> float:
    """Expected holding time before `node` transmits one packet, given every
    node's `outgoing_traffic`.

    Per inbound sender the expectation is tau(priority) * P(forwarded by
    node); with several senders the terms are averaged with weights
    proportional to each sender's traffic (uniform when no sender carries
    traffic), so the result stays a proper expectation.
    """
    senders = topo.senders_of(node)
    if not senders:
        return 0.0
    weights = [traffic[s] for s, _ in senders]
    total_w = sum(weights)
    if total_w <= 0.0:
        weights = [1.0] * len(senders)
        total_w = float(len(senders))
    expected = 0.0
    for (sender, position), w in zip(senders, weights):
        tau = holding_time(position, topo.holding)
        expected += (w / total_w) * tau * topo._forward[sender][position - 1]
    return expected


def _solve(topo: StaticTopology) -> tuple[dict, dict, dict]:
    """(traffic, delivery probability, raw delay) for every node, in one pass
    over the depth-ordered candidate DAG. Traffic runs deepest-first and
    rejects any candidate that is not strictly shallower; the rest runs
    shallowest-first, so each sender reads only its candidates' finished
    values. Sinks deliver with probability 1 after no delay; a void delivers
    nothing."""
    traffic = outgoing_traffic(topo)
    delivery = {nid: 1.0 if topo.is_sink(nid) else 0.0 for nid in topo.kinds}
    raw_delay = dict.fromkeys(topo.kinds, 0.0)
    for sender in sorted(topo.candidates, key=topo.depth):
        if topo.is_sink(sender):
            continue
        holding = expected_holding_time(topo, sender, traffic)
        p = d = 0.0
        for cand, fwd in zip(topo.candidates[sender], topo._forward[sender]):
            p += fwd * delivery[cand]
            hop = holding + topo.distance(sender, cand) / topo.sound_speed_mps
            d += (hop + raw_delay[cand]) * fwd
        delivery[sender], raw_delay[sender] = p, d
    return traffic, delivery, raw_delay


def _conditional_delay(raw: float, p: float) -> float:
    return raw / p if p > 0.0 else float("nan")


def delivery_prob_to_sink(topo: StaticTopology, node: int) -> float:
    """Delivery probability from `node` to any sink; 1 at sinks, 0 in a void.
    Raises TopologyError unless every candidate is strictly shallower."""
    return _solve(topo)[1][node]


def expected_delay_to_sink(topo: StaticTopology, node: int,
                           conditional: bool = False) -> float:
    """End-to-end delay from `node` to a sink; 0 at sinks.

    conditional=False returns the raw delivery-weighted value;
    conditional=True divides by the delivery probability, giving the value
    comparable to a simulated mean over delivered packets (NaN in a void).
    """
    _, delivery, raw_delay = _solve(topo)
    if not conditional:
        return raw_delay[node]
    return _conditional_delay(raw_delay[node], delivery[node])


def node_energy(topo: StaticTopology, node: int, traffic: dict) -> float:
    """Expected energy burnt at `node` given every node's `outgoing_traffic`:
    own transmissions plus overhearing every geometric neighbor's traffic.
    Sinks are surface-powered: 0."""
    if topo.is_sink(node):
        return 0.0
    spp = topo.seconds_per_packet
    energy = traffic[node] * spp * topo.tx_power_w
    for nb in topo.neighbors.get(node, ()):
        energy += traffic[nb] * spp * topo.rx_power_w
    return energy


def load_snapshot(snap: dict) -> StaticTopology:
    """Build a StaticTopology from an engine snapshot dict. Link probabilities
    come from positions and the recorded channel, the airtime M/mu from the
    channel alone (an older snapshot's `seconds_per_packet` is ignored), and
    neighbor sets from positions and the range, by CellGrid.pairs. Snapshots
    of a protocol other than qlfr are refused; one that records no protocol
    is read as qlfr. The scalar and channel parameters are read through
    `ScenarioConfig`, so a value its key's declaration refuses is refused
    with `ConfigError` naming that key, and a channel without one of its
    fields with KeyError. So is a repeated node id, a non-finite coordinate,
    a kind other than sensor, source or sink, or a generated count that is
    not a finite number >= 0."""
    params = snap["params"]
    protocol = params.get("protocol", "qlfr")
    if protocol != "qlfr":
        raise TopologyError(
            f"snapshot of a {protocol} run has no candidate lists; "
            "the model describes qlfr priority lists only")
    channel = params["channel"]
    config = ScenarioConfig(
        tx_range_m=params["tx_range_m"], sound_speed_mps=params["sound_speed_mps"],
        holding_h=params["holding_h"], tx_power_w=params["tx_power_w"],
        rx_power_w=params["rx_power_w"], frequency_khz=channel["frequency_khz"],
        spreading_kappa=channel["spreading_kappa"], atten_const_a0=channel["atten_const_A0"],
        energy_per_bit=channel["energy_per_bit"], noise_density=channel["noise_density_N0"],
        packet_bits=channel["packet_bits_M"], bit_rate_bps=channel["bit_rate_mu"])
    cp = config.channel_params(config.energy_per_bit)
    r = config.tx_range_m
    holding = HoldingParams(config.holding_h, config.t_max_s)
    entries = snap["nodes"]
    kinds = {e["id"]: e["kind"] for e in entries}
    if len(kinds) != len(entries):
        repeated = min(i for i, n in Counter(e["id"] for e in entries).items() if n > 1)
        raise TopologyError(f"node id {repeated!r} appears more than once")
    positions = {e["id"]: (e["x"], e["y"], e["z"]) for e in entries}
    for nid, position in positions.items():
        if not all(map(math.isfinite, position)):
            raise TopologyError(f"node {nid} has a non-finite coordinate {position}")
    for e in entries:
        if e["kind"] not in ("sensor", "source", "sink"):
            raise TopologyError(f"node {e['id']} has kind {e['kind']!r}, "
                                "not sensor, source or sink")
        count = e.get("generated", 0)
        if type(count) not in (int, float) or not 0 <= count < math.inf:
            raise TopologyError(f"node {e['id']} generated must be a finite number >= 0, "
                                f"got {count!r}")
    candidates = {e["id"]: tuple(e["candidates"]) for e in entries if e["kind"] != "sink"}
    gen = {e["id"]: e["generated"] for e in entries if e.get("generated", 0) > 0}
    near = {i: [] for i in sorted(kinds)}
    for a, b, _ in CellGrid(((i, *p) for i, p in positions.items()), r).pairs():
        near[a].append(b)
        near[b].append(a)
    neighbors = {i: tuple(sorted(js)) for i, js in near.items()}
    link_prob = {(s, c): chan.packet_delivery_prob(math.dist(positions[s], positions[c]), cp)
                 for s, cands in candidates.items() for c in cands}
    region_z = max((p[2] for p in positions.values()), default=0.0)
    return StaticTopology(
        kinds=kinds, positions=positions, candidates=candidates,
        link_prob=link_prob, neighbors=neighbors, gen_packets=gen,
        holding=holding,
        sound_speed_mps=config.sound_speed_mps,
        tx_power_w=config.tx_power_w, rx_power_w=config.rx_power_w,
        seconds_per_packet=cp.serialization_s,
        region_z_m=region_z,
    )


def per_node_report(topo: StaticTopology, run_time_s: float,
                    initial_energy_j: float) -> list[dict]:
    """One record per node: delivery probability, conditional delay, traffic,
    energy and projected lifetime."""
    traffic, delivery, raw_delay = _solve(topo)
    rows = []
    for nid in sorted(topo.kinds):
        energy = node_energy(topo, nid, traffic)
        rows.append({
            "id": nid,
            "kind": topo.kinds[nid],
            "delivery_prob": delivery[nid],
            "delay_to_sink_s": _conditional_delay(raw_delay[nid], delivery[nid]),
            "traffic_packets": traffic[nid],
            "energy_j": energy,
            "lifetime_s": (initial_energy_j * run_time_s / energy
                           if energy > 0 else float("inf")),
        })
    return rows
