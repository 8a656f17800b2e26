"""Frozen fixture topologies for the analytical-model cross-checks.

All use h = 20 (holding step k = 0.01 s with t_max = 0.1 s) so that holding
contributes little next to propagation, and link probabilities >= 0.85 so the
delivery-weighted delay stays close to the true conditional mean.
z grows toward the surface; sinks sit at the region top.
"""

import math
import random

from uwroute.analysis import StaticTopology

HOLDING_K_S = 2.0 * 0.1 / 20  # the step 2 t_max / h


def static_topology(*, positions: dict, candidates: dict, link_prob: dict,
                    **fields) -> StaticTopology:
    """A StaticTopology whose links have the given (sender, candidate)
    delivery probabilities and the propagation delay of their length at
    1500 m/s, each sender's row in candidate order, with the default powers,
    2 W to send and 0.5 W to receive, and airtime, 512 bits at 10 kbit/s. A
    listed candidate missing from `link_prob` gets probability None, which
    the topology refuses."""
    links = {s: tuple((math.dist(positions[s], positions[c]) / 1500.0, link_prob.get((s, c)))
                      for c in cands)
             for s, cands in candidates.items()}
    return StaticTopology(positions=positions, candidates=candidates, links=links,
                          tx_power_w=2.0, rx_power_w=0.5, seconds_per_packet=0.0512, **fields)


def chain3() -> tuple[StaticTopology, int]:
    """source 0 -> relay 1 -> sink 2, vertical line, 120 m spacing."""
    topo = static_topology(
        kinds={0: "source", 1: "sensor", 2: "sink"},
        positions={0: (0.0, 0.0, 0.0), 1: (0.0, 0.0, 120.0), 2: (0.0, 0.0, 240.0)},
        candidates={0: (1,), 1: (2,)},
        link_prob={(0, 1): 0.95, (1, 2): 0.97},
        neighbors={0: (1,), 1: (0, 2), 2: (1,)},
        gen_packets={0: 100.0},
        holding_k_s=HOLDING_K_S,
    )
    return topo, 0


def diamond4() -> tuple[StaticTopology, int]:
    """source 0 with candidates [1, 2]; both relays reach sink 3."""
    topo = static_topology(
        kinds={0: "source", 1: "sensor", 2: "sensor", 3: "sink"},
        positions={
            0: (0.0, 0.0, 0.0),
            1: (40.0, 0.0, 110.0),
            2: (-60.0, 0.0, 100.0),
            3: (0.0, 0.0, 220.0),
        },
        candidates={0: (1, 2), 1: (3,), 2: (3,)},
        link_prob={(0, 1): 0.9, (0, 2): 0.88, (1, 3): 0.95, (2, 3): 0.92},
        neighbors={0: (1, 2), 1: (0, 2, 3), 2: (0, 1, 3), 3: (1, 2)},
        gen_packets={0: 100.0},
        holding_k_s=HOLDING_K_S,
    )
    return topo, 0


def random_dag10(seed: int = 42) -> tuple[StaticTopology, int]:
    """10 nodes in a 300 m column: one source at the bottom, one sink on top,
    8 relays at seeded random positions; up to 3 candidates per node, chosen
    among strictly-shallower nodes within 160 m, nearest-the-surface first.
    Link probabilities seeded in [0.95, 0.995].
    """
    rng = random.Random(seed)
    positions = {0: (0.0, 0.0, 0.0), 9: (20.0, -10.0, 300.0)}
    kinds = {0: "source", 9: "sink"}
    for nid in range(1, 9):
        positions[nid] = (rng.uniform(-80, 80), rng.uniform(-80, 80),
                          30.0 * nid + rng.uniform(-10, 10))
        kinds[nid] = "sensor"
    candidates = {}
    link_prob = {}
    neighbors = {}
    ids = sorted(positions)
    for nid in ids:
        neighbors[nid] = tuple(o for o in ids if o != nid
                               and math.dist(positions[nid], positions[o]) <= 160.0)
    for nid in ids:
        if kinds[nid] == "sink":
            continue
        shallower = [o for o in neighbors[nid] if positions[o][2] > positions[nid][2]]
        shallower.sort(key=lambda o: -positions[o][2])
        candidates[nid] = tuple(shallower[:3])
        for c in candidates[nid]:
            link_prob[(nid, c)] = rng.uniform(0.95, 0.995)
    topo = static_topology(
        kinds=kinds, positions=positions, candidates=candidates,
        link_prob=link_prob, neighbors=neighbors, gen_packets={0: 100.0},
        holding_k_s=HOLDING_K_S,
    )
    return topo, 0


def wide_dag48(seed: int = 7) -> tuple[StaticTopology, int]:
    """48 nodes stacked about 25 m apart in depth: sources 0-2 at the bottom,
    sinks 40-47 on top, and every other node lists 8-12 candidates drawn
    from the 12 nodes above it, shallowest first, as a depth-based protocol
    lists every shallower receiver in range. Link probabilities seeded in
    [0.2, 0.9], so candidates deep in a list still forward a fair share.
    """
    rng = random.Random(seed)
    ids = range(48)
    positions = {i: (rng.uniform(-60.0, 60.0), rng.uniform(-60.0, 60.0),
                     25.0 * i + rng.uniform(-5.0, 5.0)) for i in ids}
    kinds = {i: "source" if i < 3 else "sink" if i >= 40 else "sensor" for i in ids}
    candidates = {}
    link_prob = {}
    for nid in ids:
        if kinds[nid] == "sink":
            continue
        above = list(range(nid + 1, min(nid + 13, 48)))
        chosen = rng.sample(above, min(rng.randint(8, 12), len(above)))
        candidates[nid] = tuple(sorted(chosen, key=lambda o: -positions[o][2]))
        for c in candidates[nid]:
            link_prob[(nid, c)] = rng.uniform(0.2, 0.9)
    neighbors = {nid: tuple(o for o in ids if o != nid
                            and math.dist(positions[nid], positions[o]) <= 320.0)
                 for nid in ids}
    topo = static_topology(
        kinds=kinds, positions=positions, candidates=candidates,
        link_prob=link_prob, neighbors=neighbors,
        gen_packets={0: 50.0, 1: 80.0, 2: 100.0},
        holding_k_s=HOLDING_K_S,
    )
    return topo, 0


ALL_FIXTURES = {"chain3": chain3, "diamond4": diamond4, "random_dag10": random_dag10}
