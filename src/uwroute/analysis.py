"""Closed-form performance model on a frozen topology snapshot.

Given fixed positions, per-node ordered candidate lists and each candidate
link's (propagation delay, delivery probability), computes the expected
delivery probability to any sink, the expected end-to-end delay, per-node
traffic and energy, and each node's projected lifetime; the network lifetime
is the least of these. It assumes the
candidates of a packet coordinate perfectly: the highest-priority candidate
whose link succeeded forwards, everyone else stays silent. Used as an
independent oracle against Monte-Carlo simulation of the same snapshot.

Every candidate must lie strictly higher than its sender (a greater z), and
a topology refuses any other when it is built, so the candidate graph is a
height-ordered DAG and the whole model is one pass over it (see `_solve`).
A snapshot records no surface, so the model orders nodes by their height z
alone. The topology builds its lookup tables once, when it is made, and the
report only reads them: each sender's forward probabilities, built in one
`forward_probs` call, and hop times; each candidate's (sender, priority)
pairs; each node's height; and the set of sinks.

The hop to the candidate in list position n takes the airtime M/mu, the
link's propagation delay and the holding time tau(n) at the step
`holding_k_s` (`ScenarioConfig.holding_k_s`) before the candidate relays, as
the engine times an arrival; a sink holds nothing, and a source sends its
own packet at once. A hop counts only for the packets that reach a sink, so
raw / P(delivery) is the mean delay of the delivered packets.
"""

import math
import sys
from dataclasses import dataclass

from . import channel as chan
from .config import ScenarioConfig, channel_fields, shown
from .qlfr import holding_time
from .world import pairs_in_range, projected_lifetime_s


class TopologyError(ValueError):
    pass


_BIG = sys.float_info.max  # a snapshot number beyond the largest float is refused


@dataclass(frozen=True)
class StaticTopology:
    kinds: dict  # id -> "sensor" | "source" | "sink"
    positions: dict  # id -> (x, y, z); z increases toward the surface
    candidates: dict  # id -> ordered tuple of candidate ids (empty for sinks)
    links: dict  # (sender, candidate) -> (propagation delay s, delivery probability)
    neighbors: dict  # id -> tuple of geometric neighbor ids (overhearing)
    gen_packets: dict  # source id -> packets generated over the horizon
    holding_k_s: float  # holding-time step between adjacent list positions
    tx_power_w: float = 2.0
    rx_power_w: float = 0.5
    seconds_per_packet: float = 0.0512

    def __post_init__(self):
        inbound: dict = {}  # candidate -> [(sender, priority)] in candidates order
        forward, hops = {}, {}  # sender -> each candidate's forward probability, hop time
        links, airtime = self.links, self.seconds_per_packet
        height = {nid: z for nid, (_, _, z) in self.positions.items()}
        sinks = frozenset(nid for nid, kind in self.kinds.items() if kind == "sink")
        longest = max(map(len, self.candidates.values()), default=0)
        # holding time of list position n at index n - 1
        holding = tuple(holding_time(n, self.holding_k_s) for n in range(1, longest + 1))
        for sender, cands in self.candidates.items():
            if len(set(cands)) != len(cands):
                raise TopologyError(f"duplicate candidate in list of node {sender}")
            ts, ps = [], []
            for position, c in enumerate(cands, 1):
                if c not in height:
                    raise TopologyError(f"candidate {c} of node {sender} has no position")
                if height[c] <= height[sender]:
                    raise TopologyError(
                        f"candidate {c} of node {sender} is not strictly shallower")
                inbound.setdefault(c, []).append((sender, position))
                delay, p = links.get((sender, c), (None, None))  # a missing link has no p
                if p is None or not 0.0 <= p <= 1.0:
                    raise TopologyError(f"link {(sender, c)} has probability {p}, not in [0, 1]")
                # airtime, propagation, then the hold of position n before c relays
                ts.append(airtime + delay + (0.0 if c in sinks else holding[position - 1]))
                ps.append(p)
            forward[sender], hops[sender] = forward_probs(ps), tuple(ts)
        object.__setattr__(self, "_inbound", inbound)
        object.__setattr__(self, "_forward", forward)
        object.__setattr__(self, "_hop", hops)
        object.__setattr__(self, "_height", height)
        object.__setattr__(self, "_sinks", sinks)
        object.__setattr__(self, "_holding", holding)

    # No longer called by the model: `perfbench/tracing.py` wraps it by name,
    # so it goes with the next benchmark change (ROADMAP item 1).
    def senders_of(self, node: int) -> list[tuple[int, int]]:
        """(sender, 1-indexed priority of `node`) pairs in `candidates` order."""
        return list(self._inbound.get(node, ()))


def forward_probs(p_list) -> tuple:
    """Each candidate's forward probability, in list order: its own link
    succeeds and every higher-priority link failed."""
    probs, misses = [], []  # misses: 1 - p of each higher-priority link, in order
    for p in p_list:
        prob = p
        for miss in misses:
            prob *= miss
        probs.append(prob)
        misses.append(1.0 - p)
    return tuple(probs)


def forward_prob(topo: StaticTopology, sender: int, candidate: int) -> float:
    """P(sender's transmission is forwarded by this particular candidate)."""
    return topo._forward[sender][topo.candidates[sender].index(candidate)]


def outgoing_traffic(topo: StaticTopology) -> dict:
    """Expected packets transmitted per node: own generation plus the inbound
    share of every sender's traffic. Sinks absorb and never transmit."""
    height, sinks = topo._height, topo._sinks
    traffic = {nid: float(topo.gen_packets.get(nid, 0.0)) for nid in topo.kinds}
    for sender in sorted(topo.candidates, key=height.__getitem__):
        if sender in sinks:
            continue
        sent = traffic[sender]
        for cand, fwd in zip(topo.candidates[sender], topo._forward[sender]):
            if cand not in sinks:
                traffic[cand] += fwd * sent
    for sink in sinks:
        traffic[sink] = 0.0
    return traffic


# No longer called by the model, which charges each hop the holding time of
# its list position: `perfbench/tracing.py` wraps it by name, so it goes with
# the next benchmark change (ROADMAP item 1).
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
    forward, steps = topo._forward, topo._holding
    expected = 0.0
    for (sender, position), w in zip(senders, weights):
        expected += (w / total_w) * steps[position - 1] * forward[sender][position - 1]
    return expected


def _solve(topo: StaticTopology) -> tuple[dict, dict]:
    """(delivery probability P, raw delay E[delay * 1{delivered}]) for every
    node, in one pass over the candidate DAG, highest first: raw[s] =
    sum_c f_c (P[c] hop_c + raw[c]). Sinks deliver with probability 1 after
    no delay; a void delivers nothing."""
    sinks = topo._sinks
    delivery = {nid: 1.0 if nid in sinks else 0.0 for nid in topo.kinds}
    raw_delay = dict.fromkeys(topo.kinds, 0.0)
    for sender in sorted(topo.candidates, key=topo._height.__getitem__, reverse=True):
        if sender in sinks:
            continue
        p = d = 0.0
        for cand, fwd, hop in zip(topo.candidates[sender], topo._forward[sender],
                                  topo._hop[sender]):
            p += fwd * delivery[cand]
            d += fwd * (delivery[cand] * hop + raw_delay[cand])
        delivery[sender], raw_delay[sender] = p, d
    return delivery, raw_delay


def _conditional_delay(raw: float, p: float) -> float:
    return raw / p if p > 0.0 else float("nan")


def delivery_prob_to_sink(topo: StaticTopology, node: int) -> float:
    """Delivery probability from `node` to any sink; 1 at sinks, 0 in a void."""
    return _solve(topo)[0][node]


def expected_delay_to_sink(topo: StaticTopology, node: int,
                           conditional: bool = False) -> float:
    """End-to-end delay from `node` to a sink; 0 at sinks.

    conditional=False returns the raw value E[delay * 1{delivered}];
    conditional=True divides it by the delivery probability, giving the mean
    over delivered packets (NaN in a void)."""
    delivery, raw_delay = _solve(topo)
    if not conditional:
        return raw_delay[node]
    return _conditional_delay(raw_delay[node], delivery[node])


def node_energy(topo: StaticTopology, node: int, traffic: dict) -> float:
    """Expected energy burnt at `node` given every node's `outgoing_traffic`:
    own transmissions plus overhearing every geometric neighbor's traffic.
    Sinks are surface-powered: 0."""
    if node in topo._sinks:
        return 0.0
    spp, rx = topo.seconds_per_packet, topo.rx_power_w
    energy = traffic[node] * spp * topo.tx_power_w
    for nb in topo.neighbors.get(node, ()):
        energy += traffic[nb] * spp * rx
    return energy


def load_snapshot(snap: dict) -> StaticTopology:
    """Build a StaticTopology from an engine snapshot dict, measuring each
    candidate link as the engine's link table does: the squared length from
    per-axis differences, refused above `tx_range_m` squared, and
    `channel.link` of it with one link model of the recorded channel. The
    channel alone gives the airtime M/mu (an older snapshot's
    `seconds_per_packet` is ignored), and `pairs_in_range` the neighbor sets.
    Snapshots of a protocol other than qlfr are refused; one that records no
    protocol is read as qlfr. The scalar and channel parameters are read
    through `ScenarioConfig`'s declarations, so a value its key's declaration
    refuses is refused with `ConfigError` naming that key, and a channel
    without one of its fields with KeyError. The node entries are read in one
    pass, which refuses, with TopologyError naming the node and the field, an
    id that is not an integer or is repeated, a coordinate that is not a
    finite number a float holds, a kind other than sensor, source or sink, a
    generated count that is not such a number >= 0, or candidates that are
    not a list. So is a candidate that is not the id of a node."""
    params = snap["params"]
    protocol = params.get("protocol", "qlfr")
    if protocol != "qlfr":
        raise TopologyError(
            f"snapshot of a {protocol} run has no candidate lists; "
            "the model describes qlfr priority lists only")
    config = ScenarioConfig(
        tx_range_m=params["tx_range_m"], sound_speed_mps=params["sound_speed_mps"],
        holding_h=params["holding_h"], tx_power_w=params["tx_power_w"],
        rx_power_w=params["rx_power_w"], **channel_fields(params["channel"]))
    cp = config.channel_params(config.energy_per_bit)
    r = config.tx_range_m
    kinds, positions, candidates, gen = {}, {}, {}, {}
    for e in snap["nodes"]:
        nid, kind = e["id"], e["kind"]
        if type(nid) is not int:
            raise TopologyError(f"node id {nid!r} is not an integer")
        if nid in kinds:
            raise TopologyError(f"node id {nid!r} appears more than once")
        position = (e["x"], e["y"], e["z"])
        try:
            finite = all(map(math.isfinite, position))
        except (TypeError, OverflowError):  # not a number, or an int past every float
            finite = False
        if not finite:
            axis = next(a for a, v in zip("xyz", position)
                        if not isinstance(v, (int, float)) or not -_BIG <= v <= _BIG)
            raise TopologyError(
                f"node {nid} {axis} must be a finite number, got {shown(e[axis])}")
        if kind not in ("sensor", "source", "sink"):
            raise TopologyError(f"node {nid} has kind {kind!r}, not sensor, source or sink")
        count = e.get("generated", 0)
        if type(count) not in (int, float) or not 0 <= count <= _BIG:
            raise TopologyError(f"node {nid} generated must be a finite number >= 0, "
                                f"got {shown(count)}")
        kinds[nid], positions[nid] = kind, position
        if kind != "sink":
            cands = e["candidates"]
            if type(cands) is not list:
                raise TopologyError(f"node {nid} candidates must be a list of node ids, "
                                    f"got {cands!r}")
            candidates[nid] = tuple(cands)
        if count > 0:
            gen[nid] = count
    near = {i: [] for i in sorted(kinds)}
    for a, b, _ in pairs_in_range(((i, *p) for i, p in positions.items()), r):
        near[a].append(b)
        near[b].append(a)
    neighbors = {i: tuple(sorted(js)) for i, js in near.items()}
    r2, v0, delivery, link = r * r, config.sound_speed_mps, chan.link_model(cp), chan.link
    links = {}
    try:
        for s, cands in candidates.items():
            xa, ya, za = positions[s]
            for c in cands:
                if type(c) is not int or (there := positions.get(c)) is None:
                    raise TopologyError(f"candidate {c!r} of node {s} names no node")
                xb, yb, zb = there
                dx, dy, dz = xb - xa, yb - ya, zb - za
                d2 = dx * dx + dy * dy + dz * dz
                if d2 > r2:
                    raise TopologyError(f"candidate {c} of node {s} is {math.sqrt(d2)!r} m "
                                        f"away, beyond world.tx_range_m = {r!r} m")
                links[s, c] = link(d2, v0, delivery)
    except OverflowError:  # integer coordinates whose squared distance no float holds
        raise TopologyError(f"candidate {c} of node {s} is beyond "
                            f"world.tx_range_m = {r!r} m") from None
    return StaticTopology(
        kinds=kinds, positions=positions, candidates=candidates,
        links=links, neighbors=neighbors, gen_packets=gen,
        holding_k_s=config.holding_k_s,
        tx_power_w=config.tx_power_w, rx_power_w=config.rx_power_w,
        seconds_per_packet=cp.serialization_s,
    )


def per_node_report(topo: StaticTopology, run_time_s: float,
                    initial_energy_j: float) -> list[dict]:
    """One record per node: delivery probability, conditional delay, traffic,
    energy and projected lifetime."""
    (delivery, raw_delay), traffic = _solve(topo), outgoing_traffic(topo)
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
            "lifetime_s": projected_lifetime_s(initial_energy_j, run_time_s, energy),
        })
    return rows
