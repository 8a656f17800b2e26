"""Analytical model tests: candidate election algebra, delivery probability
and delay against hand values and Monte-Carlo trials, traffic and energy
propagation, lifetime, and snapshot loading."""

import dataclasses
import hashlib
import math
import random

import pytest
from hypothesis import given, strategies as st

from fixtures import HOLDING_K_S, chain3, diamond4, random_dag10, static_topology, wide_dag48
from mc_oracle import run_trials
from uwroute import analysis, channel
from uwroute.analysis import (StaticTopology, TopologyError, delivery_prob_to_sink,
                              expected_delay_to_sink, expected_holding_time, forward_probs,
                              node_energy, outgoing_traffic, per_node_report)
from uwroute.config import ScenarioConfig

# the default channel at e_b = 1 J/bit, as a snapshot records it
CHANNEL = dataclasses.asdict(ScenarioConfig().channel_params(1.0))
# s: a hop's airtime M/mu at the defaults, 512 bits at 10 kbit/s
AIRTIME = 0.0512


def engine_snapshot() -> dict:
    """The topology snapshot after a short default qlfr run of 20 sensors."""
    from uwroute.engine import Simulation

    sim = Simulation(ScenarioConfig(n_sensors=20, n_sources=2, n_sinks=2, region_x_m=250.0,
                                    region_y_m=250.0, region_z_m=250.0, max_sim_time_s=40.0))
    sim.run()
    return sim.snapshot_topology()


def wide_snapshot() -> dict:
    """`wide_dag48` as a snapshot: its positions and 8-12 candidate lists, a
    range wide enough for its longest link, and the default calibrated
    channel, under which its links deliver with probabilities of 0.5-0.99."""
    from uwroute.engine import resolve_channel

    topo, _ = wide_dag48()
    nodes = [{"id": nid, "kind": kind, **dict(zip("xyz", topo.positions[nid])),
              "generated": topo.gen_packets.get(nid, 0),
              "candidates": list(topo.candidates.get(nid, ()))}
             for nid, kind in topo.kinds.items()]
    return {"params": {"protocol": "qlfr", "tx_range_m": 330.0, "sound_speed_mps": 1500.0,
                       "holding_h": 20, "tx_power_w": 2.0, "rx_power_w": 0.5,
                       "channel": dataclasses.asdict(resolve_channel(ScenarioConfig()))},
            "nodes": nodes}


def assert_links_equal_the_closed_form(snapshot: dict):
    """Every loaded link equals, bit for bit, (d / v0, the channel's delivery
    probability at d), with the length d taken as the engine takes it: the
    square root of the squared per-axis differences, summed."""
    topo = analysis.load_snapshot(snapshot)
    cp = channel.ChannelParams(**snapshot["params"]["channel"])
    v0, pos = snapshot["params"]["sound_speed_mps"], topo.positions
    assert topo.links.keys() == topo.candidates.keys()
    assert sum(map(len, topo.links.values())) > 0
    for s, cands in topo.candidates.items():
        assert len(topo.links[s]) == len(cands)
        for c, link in zip(cands, topo.links[s]):
            dx, dy, dz = (b - a for a, b in zip(pos[s], pos[c]))
            d = math.sqrt(dx * dx + dy * dy + dz * dz)
            assert link == (d / v0, channel.packet_delivery_prob(d, cp))


def line_topology(p1=0.9, p2=0.9, spacing=120.0):
    return static_topology(
        kinds={0: "source", 1: "sensor", 2: "sink"},
        positions={0: (0, 0, 0), 1: (0, 0, spacing), 2: (0, 0, 2 * spacing)},
        candidates={0: (1,), 1: (2,)},
        link_prob={(0, 1): p1, (1, 2): p2},
        neighbors={0: (1,), 1: (0, 2), 2: (1,)},
        gen_packets={0: 100.0},
        holding_k_s=HOLDING_K_S,
    )


def second_priority_topology(kind2="sensor", p02=0.8):
    """Source 0 lists relay 1 behind a p = 0.5 link, then node 2 (a sensor
    or a source of its own) at p02; both reach sink 3 for sure. k = 0.05 s."""
    return static_topology(
        kinds={0: "source", 1: "sensor", 2: kind2, 3: "sink"},
        positions={0: (0, 0, 0), 1: (0, 0, 100), 2: (50, 0, 100), 3: (0, 0, 200)},
        candidates={0: (1, 2), 1: (3,), 2: (3,)},
        link_prob={(0, 1): 0.5, (0, 2): p02, (1, 3): 1.0, (2, 3): 1.0},
        neighbors={0: (1, 2), 1: (0, 2, 3), 2: (0, 1, 3), 3: (1, 2)},
        gen_packets={0: 10.0},
        holding_k_s=2.0 * 0.1 / 4)


def deep_chain(n, p, spacing):
    """source 0 -> relays 1..n-2 -> sink n-1, straight up, every link p."""
    return static_topology(
        kinds={i: "source" if i == 0 else "sink" if i == n - 1 else "sensor"
               for i in range(n)},
        positions={i: (0.0, 0.0, spacing * i) for i in range(n)},
        candidates={i: (i + 1,) for i in range(n - 1)},
        link_prob={(i, i + 1): p for i in range(n - 1)},
        neighbors={i: tuple(j for j in (i - 1, i + 1) if 0 <= j < n) for i in range(n)},
        gen_packets={0: 10.0},
        holding_k_s=HOLDING_K_S,
    )


class TestCandidateForwardProb:
    def test_single_candidate(self):
        assert forward_probs([0.9])[0] == pytest.approx(0.9)

    def test_second_behind_half(self):
        assert forward_probs([0.5, 0.5])[1] == pytest.approx(0.25)

    def test_three_candidate_product(self):
        p = [0.9, 0.8, 0.7]
        assert forward_probs(p)[2] == pytest.approx(0.7 * 0.1 * 0.2)
        total = sum(forward_probs(p))
        assert total == pytest.approx(0.994)
        assert total == pytest.approx(1 - 0.1 * 0.2 * 0.3)

    @given(st.lists(st.floats(0, 1), min_size=1, max_size=12))
    def test_vector_equals_the_per_candidate_loop(self, probs):
        explicit = []
        for j in range(len(probs)):
            prob = probs[j]
            for k in range(j):
                prob *= 1.0 - probs[k]
            explicit.append(prob)
        assert forward_probs(probs) == tuple(explicit)

    @given(st.lists(st.floats(0, 1), min_size=1, max_size=8))
    def test_identity_sums_to_union(self, probs):
        total = sum(forward_probs(probs))
        assert total == pytest.approx(1.0 - math.prod(1.0 - p for p in probs), abs=1e-12)


class TestDeliveryProb:
    def test_sink_neighbor(self):
        topo = line_topology(p1=0.9, p2=1.0)
        assert delivery_prob_to_sink(topo, 1) == 1.0  # next hop IS the sink... via p2
        topo = line_topology(p1=1.0, p2=0.9)
        assert delivery_prob_to_sink(topo, 1) == pytest.approx(0.9)

    def test_two_hop_chain(self):
        assert delivery_prob_to_sink(line_topology(0.9, 0.9), 0) == pytest.approx(0.81)

    def test_void_node(self):
        topo = static_topology(
            kinds={0: "source", 1: "sink"},
            positions={0: (0, 0, 0), 1: (0, 0, 200)},
            candidates={0: ()},
            link_prob={},
            neighbors={0: (), 1: ()},
            gen_packets={0: 1.0},
            holding_k_s=HOLDING_K_S)
        assert delivery_prob_to_sink(topo, 0) == 0.0

    def test_sink_base_case(self):
        assert delivery_prob_to_sink(line_topology(), 2) == 1.0

    def test_cycle_detection(self):
        # a cycle needs a candidate that is not strictly shallower: refused
        # when the topology is built
        with pytest.raises(TopologyError, match="candidate 0 of node 1 is not strictly shallower"):
            static_topology(
                kinds={0: "sensor", 1: "sensor", 2: "sink"},
                positions={0: (0, 0, 0), 1: (0, 0, 10), 2: (0, 0, 200)},
                candidates={0: (1,), 1: (0,)},
                link_prob={(0, 1): 0.9, (1, 0): 0.9},
                neighbors={0: (1,), 1: (0,)},
                gen_packets={},
                holding_k_s=HOLDING_K_S)

    def test_candidate_without_position_refused(self):
        with pytest.raises(TopologyError, match="candidate 5 of node 0 has no position"):
            StaticTopology(kinds={0: "source", 1: "sink"},
                           positions={0: (0, 0, 0), 1: (0, 0, 100)},
                           candidates={0: (1, 5)},
                           links={0: ((0.1, 0.9), (0.1, 0.9))}, neighbors={},
                           gen_packets={}, holding_k_s=HOLDING_K_S, tx_power_w=2.0,
                           rx_power_w=0.5, seconds_per_packet=AIRTIME)

    def test_missing_or_improper_link_refused(self):
        for links in ({}, {(0, 1): 1.5}):
            with pytest.raises(TopologyError, match=r"link \(0, 1\) has probability"):
                static_topology(kinds={0: "source", 1: "sink"},
                                positions={0: (0, 0, 0), 1: (0, 0, 100)},
                                candidates={0: (1,)}, link_prob=links, neighbors={},
                                gen_packets={}, holding_k_s=HOLDING_K_S)

    @staticmethod
    def rows_topology(links):
        """Source 0 lists sensor 1 and sink 2; sensor 1 lists sink 2; sensor
        3 lists nothing."""
        return StaticTopology(kinds={0: "source", 1: "sensor", 2: "sink", 3: "sensor"},
                              positions={0: (0, 0, 0), 1: (0, 0, 50), 2: (0, 0, 100),
                                         3: (0, 50, 0)},
                              candidates={0: (1, 2), 1: (2,), 3: ()},
                              links=links, neighbors={}, gen_packets={},
                              holding_k_s=HOLDING_K_S, tx_power_w=2.0, rx_power_w=0.5,
                              seconds_per_packet=AIRTIME)

    @pytest.mark.parametrize("row, count", [(((0.1, 0.9),), 1), (((0.1, 0.9),) * 3, 3)],
                             ids=["shorter", "longer"])
    def test_row_of_another_length_refused(self, row, count):
        with pytest.raises(TopologyError, match=f"node 0 has a link row of length {count} "
                                                 "for a candidate list of length 2"):
            self.rows_topology({0: row, 1: ((0.1, 0.9),)})

    def test_list_without_row_refused(self):
        with pytest.raises(TopologyError, match="node 1 has a link row of length 0 "
                                                "for a candidate list of length 1"):
            self.rows_topology({0: ((0.1, 0.9), (0.1, 0.9))})

    def test_empty_list_needs_no_row(self):
        topo = self.rows_topology({0: ((0.1, 0.9), (0.1, 0.9)), 1: ((0.1, 0.9),)})
        assert delivery_prob_to_sink(topo, 3) == 0.0
        assert delivery_prob_to_sink(topo, 0) == pytest.approx(0.9 * 0.9 + 0.1 * 0.9, rel=1e-12)

    def test_monte_carlo_cross_check_small(self):
        topo, src = diamond4()
        p = delivery_prob_to_sink(topo, src)
        delivered, _, _ = run_trials(topo, src, 20_000, seed=3)
        sigma = math.sqrt(p * (1 - p) / 20_000)
        assert abs(delivered / 20_000 - p) < 4 * sigma


class TestExpectedHolding:
    def test_always_first_priority(self):
        topo = line_topology()
        # head of its sender's list
        assert expected_holding_time(topo, 1, outgoing_traffic(topo)) == 0.0

    def test_source_has_no_senders(self):
        topo = line_topology()
        assert expected_holding_time(topo, 0, outgoing_traffic(topo)) == 0.0

    def test_second_priority_single_sender(self):
        # second-priority candidate behind a p = 0.5 head, k = 0.05
        topo = second_priority_topology()
        # tau(2) * P_sender,2 = 0.05 * (1 - 0.5) * 0.8
        assert (expected_holding_time(topo, 2, outgoing_traffic(topo))
                == pytest.approx(0.05 * 0.5 * 0.8))

    def test_multi_sender_traffic_weighting(self):
        # two senders with 3:1 traffic; node 3 is head for one, second for the other
        k = 2.0 * 0.1 / 4
        topo = static_topology(
            kinds={0: "source", 1: "source", 2: "sensor", 3: "sensor", 4: "sink"},
            positions={0: (0, 0, 0), 1: (60, 0, 0), 2: (0, 0, 100), 3: (30, 0, 100),
                       4: (0, 0, 220)},
            candidates={0: (2, 3), 1: (3,), 2: (4,), 3: (4,)},
            link_prob={(0, 2): 0.6, (0, 3): 0.9, (1, 3): 0.8, (2, 4): 1.0, (3, 4): 1.0},
            neighbors={0: (1, 2, 3), 1: (0, 3), 2: (0, 3, 4), 3: (0, 1, 2, 4), 4: (2, 3)},
            gen_packets={0: 30.0, 1: 10.0},
            holding_k_s=k)
        w0, w1 = 30.0 / 40.0, 10.0 / 40.0
        expected = (w0 * k * (1 - 0.6) * 0.9  # second priority for source 0
                    + w1 * 0.0 * 0.8)                 # head for source 1
        assert expected_holding_time(topo, 3, outgoing_traffic(topo)) == pytest.approx(expected)


class TestExpectedDelay:
    def test_sink_is_zero(self):
        assert expected_delay_to_sink(line_topology(), 2) == 0.0

    def test_direct_sink_neighbor(self):
        topo = line_topology(p1=1.0, p2=1.0, spacing=150.0)
        assert expected_delay_to_sink(topo, 1, conditional=True) == pytest.approx(0.1 + AIRTIME)

    def test_three_node_line_all_sure(self):
        topo = line_topology(p1=1.0, p2=1.0, spacing=120.0)
        expected = 2 * (120.0 / 1500.0 + AIRTIME)
        assert expected_delay_to_sink(topo, 0) == pytest.approx(expected)
        assert expected_delay_to_sink(topo, 0, conditional=True) == pytest.approx(expected)

    def test_raw_equals_conditional_times_p(self):
        topo, src = random_dag10()
        raw = expected_delay_to_sink(topo, src)
        cond = expected_delay_to_sink(topo, src, conditional=True)
        p = delivery_prob_to_sink(topo, src)
        assert raw == pytest.approx(cond * p, rel=1e-12)

    def test_void_conditional_is_nan(self):
        topo = static_topology(
            kinds={0: "source", 1: "sink"},
            positions={0: (0, 0, 0), 1: (0, 0, 200)},
            candidates={0: ()}, link_prob={}, neighbors={0: (), 1: ()},
            gen_packets={0: 1.0}, holding_k_s=HOLDING_K_S)
        assert expected_delay_to_sink(topo, 0) == 0.0
        assert math.isnan(expected_delay_to_sink(topo, 0, conditional=True))

    def test_deep_chain(self):
        # far deeper than Python's recursion limit
        n, spacing = 1500, 10.0
        sure = deep_chain(n, 1.0, spacing)
        assert (expected_delay_to_sink(sure, 0)
                == pytest.approx((n - 1) * (spacing / 1500.0 + AIRTIME)))
        lossy = deep_chain(n, 0.9995, spacing)
        assert delivery_prob_to_sink(lossy, 0) == pytest.approx(0.9995 ** (n - 1), rel=1e-12)
        rows = analysis.per_node_report(lossy, 600.0, 100.0)
        assert len(rows) == n and rows[-1]["delivery_prob"] == 1.0

    def test_loss_past_the_first_hop_is_not_charged(self):
        # every packet reaches relay 1 and half of them the sink: a delivered
        # packet took both hops, and a packet lost on the second adds nothing
        topo = line_topology(p1=1.0, p2=0.5)
        expected = 2 * (120.0 / 1500.0 + AIRTIME)  # 0.2624 s
        assert expected_delay_to_sink(topo, 0, conditional=True) == pytest.approx(expected)

    def test_hold_of_the_list_position_on_the_edge(self):
        # relay 1 forwards with f = 0.5 and holds nothing; node 2 forwards
        # with f = 0.5 * 0.8 = 0.4 and holds tau(2) = k = 0.05 s first
        topo = second_priority_topology()
        d1, d2 = 100.0 / 1500.0, math.hypot(50.0, 100.0) / 1500.0
        raw = 0.5 * 2 * (AIRTIME + d1) + 0.4 * (2 * (AIRTIME + d2) + 0.05)
        assert raw / 0.9 == pytest.approx(0.264950, abs=1e-6)
        assert expected_delay_to_sink(topo, 0, conditional=True) == pytest.approx(raw / 0.9)

    def test_source_sends_its_own_packets_at_once(self):
        # source 2 is second on source 0's list, so it holds a relayed copy
        # for k; its own packets leave without a hold
        topo = second_priority_topology(kind2="source", p02=1.0)
        expected = AIRTIME + math.hypot(50.0, 100.0) / 1500.0  # 0.125736 s
        assert expected_delay_to_sink(topo, 2, conditional=True) == pytest.approx(expected)

    def test_monte_carlo_cross_check_small(self):
        topo, src = chain3()
        cond = expected_delay_to_sink(topo, src, conditional=True)
        _, mc_delay, _ = run_trials(topo, src, 20_000, seed=5)
        assert cond == pytest.approx(mc_delay, rel=0.05)


class TestTraffic:
    def test_source_traffic_is_generation(self):
        traffic = outgoing_traffic(line_topology())
        assert traffic[0] == pytest.approx(100.0)

    def test_single_relay_share(self):
        traffic = outgoing_traffic(line_topology(p1=0.9, p2=0.5))
        assert traffic[1] == pytest.approx(90.0)

    def test_unlisted_node_carries_nothing(self):
        topo, src = diamond4()
        traffic = outgoing_traffic(topo)
        assert traffic[1] == pytest.approx(100.0 * 0.9)
        assert traffic[2] == pytest.approx(100.0 * 0.1 * 0.88)
        assert traffic[3] == 0.0  # sinks absorb

    def test_conservation(self):
        topo, src = random_dag10()
        traffic = outgoing_traffic(topo)
        relayed = sum(v for nid, v in traffic.items() if topo.kinds[nid] == "sensor")
        assert relayed <= sum(topo.gen_packets.values()) * 10  # finite, no blowup
        # inbound expected forwards never exceed what sources emit, hop by hop
        for nid in topo.kinds:
            if topo.kinds[nid] == "sensor":
                assert traffic[nid] <= sum(topo.gen_packets.values()) + 1e-9

    def test_cycle_guard(self):
        # two nodes at one height that list each other: refused when the
        # topology is built, so the traffic pass never meets the cycle
        with pytest.raises(TopologyError, match="candidate 1 of node 0 is not strictly shallower"):
            static_topology(
                kinds={0: "sensor", 1: "sensor", 2: "sink"},
                positions={0: (0, 0, 0), 1: (0, 0, 0), 2: (0, 0, 200)},
                candidates={0: (1,), 1: (0,)},
                link_prob={(0, 1): 0.9, (1, 0): 0.9},
                neighbors={0: (1,), 1: (0,)}, gen_packets={},
                holding_k_s=HOLDING_K_S)


class TestSendersOf:
    @pytest.mark.parametrize("fixture", [chain3, diamond4, random_dag10, wide_dag48])
    def test_index_equals_scan_of_every_list(self, fixture):
        topo, _ = fixture()
        for node in topo.kinds:
            scan = [(sender, cands.index(node) + 1)
                    for sender, cands in topo.candidates.items() if node in cands]
            assert topo.senders_of(node) == scan


class TestWideLists:
    """Senders listing 8-12 candidates, as a depth-based protocol's implicit
    lists do; the benchmark's 400-node report only reaches positions 1-4."""

    def test_report_digest_pinned(self):
        h = hashlib.sha256()
        for row in per_node_report(wide_dag48()[0], 600.0, 100.0):
            h.update(repr(sorted(row.items())).encode())
        assert h.hexdigest() == "0995e3a8ef95f918b96c2711d851706b25cb7e6ea16d6954aa91a76721676825"

    def test_forward_vectors_equal_the_closed_form(self):
        topo, _ = wide_dag48()
        for sender, cands in topo.candidates.items():
            ps = [p for _, p in topo.links[sender]]
            assert len(topo._forward[sender]) == len(cands)
            for j, cand in enumerate(cands, 1):
                exact = forward_probs(ps)[j - 1]
                assert topo._forward[sender][j - 1] == exact
                assert analysis.forward_prob(topo, sender, cand) == exact

    def test_snapshot_links_equal_the_closed_form(self):
        snapshot = wide_snapshot()
        assert max(len(e["candidates"]) for e in snapshot["nodes"]) == 12
        assert_links_equal_the_closed_form(snapshot)


class TestNodeEnergy:
    def test_isolated_idle_node(self):
        topo = static_topology(
            kinds={0: "sensor", 1: "sink"},
            positions={0: (0, 0, 0), 1: (0, 0, 200)},
            candidates={0: ()}, link_prob={}, neighbors={0: (), 1: ()},
            gen_packets={}, holding_k_s=HOLDING_K_S)
        assert node_energy(topo, 0, outgoing_traffic(topo)) == 0.0

    def test_transmit_only(self):
        # 10 packets, 0.0512 s each at 2 W: 1.024 J
        topo = static_topology(
            kinds={0: "source", 1: "sink"},
            positions={0: (0, 0, 100), 1: (0, 0, 200)},
            candidates={0: (1,)}, link_prob={(0, 1): 1.0},
            neighbors={0: (), 1: (0,)},
            gen_packets={0: 10.0}, holding_k_s=HOLDING_K_S)
        assert node_energy(topo, 0, outgoing_traffic(topo)) == pytest.approx(1.024)

    def test_overhearing_cost(self):
        # a relay hears 100 packets from one geometric neighbor: 100*0.0512*0.5
        topo = static_topology(
            kinds={0: "source", 1: "sensor", 2: "sink"},
            positions={0: (0, 0, 0), 1: (100, 0, 0), 2: (0, 0, 150)},
            candidates={0: (2,), 1: ()},
            link_prob={(0, 2): 1.0},
            neighbors={0: (1,), 1: (0,), 2: (0,)},
            gen_packets={0: 100.0}, holding_k_s=HOLDING_K_S)
        assert node_energy(topo, 1, outgoing_traffic(topo)) == pytest.approx(100 * 0.0512 * 0.5)

    def test_sinks_cost_nothing(self):
        topo, _ = chain3()
        assert node_energy(topo, 2, outgoing_traffic(topo)) == 0.0


class TestNetworkLifetime:
    """The network lifetime is the least `lifetime_s` of `per_node_report`'s
    rows, as `uwroute analyze` aggregates it."""

    @staticmethod
    def lifetimes(topo, run_time_s=100.0, initial_energy_j=100.0):
        """id -> projected lifetime of every row."""
        return {r["id"]: r["lifetime_s"]
                for r in per_node_report(topo, run_time_s, initial_energy_j)}

    def test_direct_ratio(self):
        # node consuming 1 J over 100 s with 100 J initial: 1e4 s
        topo = static_topology(
            kinds={0: "source", 1: "sink"},
            positions={0: (0, 0, 100), 1: (0, 0, 200)},
            candidates={0: (1,)}, link_prob={(0, 1): 1.0},
            neighbors={0: (), 1: (0,)},
            gen_packets={0: 1.0 / (0.0512 * 2.0)},  # exactly 1 J of transmit
            holding_k_s=HOLDING_K_S)
        lifetimes = self.lifetimes(topo)
        assert lifetimes[0] == pytest.approx(1e4)
        assert min(lifetimes.values()) == lifetimes[0]

    def test_doubling_traffic_halves_lifetime(self):
        # chain3: the source sends 100 packets and overhears the relay's 95
        # (12.672 J); the relay sends 95 and overhears 100 (12.288 J)
        topo, _ = chain3()
        base = self.lifetimes(topo)
        assert base[0] == pytest.approx(1e4 / 12.672)
        assert base[1] == pytest.approx(1e4 / 12.288)
        assert min(base.values()) == base[0]
        doubled = self.lifetimes(dataclasses.replace(topo, gen_packets={0: 200.0}))
        assert min(doubled.values()) == pytest.approx(base[0] / 2)

    def test_sinks_never_constrain(self):
        topo, _ = chain3()
        lifetimes = self.lifetimes(topo)
        assert lifetimes[2] == float("inf")
        traffic = outgoing_traffic(topo)
        for nid in topo.kinds:
            if topo.kinds[nid] != "sink":
                e = node_energy(topo, nid, traffic)
                if e > 0:
                    assert min(lifetimes.values()) <= 100.0 * 100.0 / e + 1e-9

    def test_idle_network_sentinel(self):
        topo = static_topology(
            kinds={0: "sensor", 1: "sink"},
            positions={0: (0, 0, 0), 1: (0, 0, 200)},
            candidates={0: ()}, link_prob={}, neighbors={0: (), 1: ()},
            gen_packets={}, holding_k_s=HOLDING_K_S)
        assert self.lifetimes(topo) == {0: float("inf"), 1: float("inf")}


class TestSnapshotLoading:
    def test_round_trip_from_engine(self, tmp_path):
        import json

        from uwroute.engine import Simulation

        cfg = ScenarioConfig(region_x_m=300.0, region_y_m=300.0, region_z_m=300.0,
                             n_sensors=40, n_sources=4, n_sinks=3,
                             max_sim_time_s=80.0, seed=2)
        sim = Simulation(cfg)
        sim.run()
        snapshot = sim.snapshot_topology()
        path = tmp_path / "snapshot.json"
        path.write_text(json.dumps(snapshot))
        topo = analysis.load_snapshot(json.loads(path.read_text()))
        del snapshot["params"]["protocol"]  # an unlabelled snapshot reads as qlfr
        assert analysis.load_snapshot(snapshot) == topo
        for source in (n.id for n in sim.sources):
            p = delivery_prob_to_sink(topo, source)
            assert 0.0 <= p <= 1.0
        rows = analysis.per_node_report(topo, cfg.max_sim_time_s, cfg.initial_node_energy_j)
        assert len(rows) == 43
        assert min(r["lifetime_s"] for r in rows) > 0.0

    def test_one_link_model_per_snapshot(self, monkeypatch):
        snapshot = engine_snapshot()
        link_model, made = channel.link_model, []

        def counting_link_model(params):
            made.append(params)
            return link_model(params)

        monkeypatch.setattr(channel, "link_model", counting_link_model)
        topo = analysis.load_snapshot(snapshot)
        assert len(made) == 1 and sum(map(len, topo.links.values())) > 1

    def test_engine_links_equal_the_closed_form(self):
        assert_links_equal_the_closed_form(engine_snapshot())

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("scenario", [
        {},  # the default scenario: 100 sensors in the 500 m cube
        {"n_sensors": 150, "region_x_m": 300.0, "region_y_m": 300.0, "region_z_m": 300.0},
    ], ids=["default", "150-in-300m"])
    def test_links_equal_the_engine_link_table(self, scenario, seed):
        import json

        from uwroute.engine import Simulation

        sim = Simulation(ScenarioConfig(max_sim_time_s=40.0, seed=seed, **scenario))
        sim.run()
        topo = analysis.load_snapshot(json.loads(json.dumps(sim.snapshot_topology())))
        engine = {(n.id, other): (delay, p)
                  for n in sim.nodes for other, delay, p in sim._link_table(n)}
        assert sum(map(len, topo.links.values())) > 100
        for s, cands in topo.candidates.items():
            assert len(topo.links[s]) == len(cands)
            for c, pair in zip(cands, topo.links[s]):
                assert pair == engine[s, c], (s, c)

    def test_candidate_on_its_sender(self):
        # source 0 lists sensor 1, which shares its position 100 m below sink
        # 2: the loader refuses the candidate by the model's own rule, as it
        # is not strictly shallower
        nodes = [{"id": 0, "kind": "source", "x": 0.0, "y": 0.0, "z": 0.0,
                  "generated": 10, "candidates": [1, 2]},
                 {"id": 1, "kind": "sensor", "x": 0.0, "y": 0.0, "z": 0.0,
                  "generated": 0, "candidates": []},
                 {"id": 2, "kind": "sink", "x": 0.0, "y": 0.0, "z": 100.0,
                  "generated": 0, "candidates": []}]
        with pytest.raises(TopologyError, match="candidate 1 of node 0 is not strictly shallower"):
            analysis.load_snapshot({
                "params": {"protocol": "qlfr", "tx_range_m": 150.0, "sound_speed_mps": 1500.0,
                           "holding_h": 20, "tx_power_w": 2.0, "rx_power_w": 0.5,
                           "channel": CHANNEL},
                "nodes": nodes,
            })

    @staticmethod
    def two_node_snapshot(sink_z):
        """Source 0 at the origin lists sink 1 straight above it; range 150 m."""
        return {
            "params": {"protocol": "qlfr", "tx_range_m": 150.0, "sound_speed_mps": 1500.0,
                       "holding_h": 20, "tx_power_w": 2.0, "rx_power_w": 0.5,
                       "channel": CHANNEL},
            "nodes": [{"id": 0, "kind": "source", "x": 0.0, "y": 0.0, "z": 0.0,
                       "generated": 10, "candidates": [1]},
                      {"id": 1, "kind": "sink", "x": 0.0, "y": 0.0, "z": sink_z,
                       "generated": 0, "candidates": []}],
        }

    def test_candidate_at_the_range_is_accepted(self):
        topo = analysis.load_snapshot(self.two_node_snapshot(150.0))
        (delay, p), = topo.links[0]
        assert topo.candidates[0] == (1,) and delay == 0.1 and 0.0 < p < 1.0
        assert delivery_prob_to_sink(topo, 0) == p

    def test_candidate_past_the_range_is_refused(self):
        # a rounding hair past the range is refused, as the engine's link
        # table leaves it out: its squared length exceeds 150 m squared
        for sink_z, shown in ((150.0 * (1.0 + 1e-10), r"150\.000000015"),
                              (150.001, r"150\.001")):
            with pytest.raises(TopologyError, match=rf"candidate 1 of node 0 is {shown} m away, "
                                                    r"beyond world\.tx_range_m = 150\.0 m"):
                analysis.load_snapshot(self.two_node_snapshot(sink_z))

    def test_neighbors_equal_brute_force_scan(self):
        # random nodes plus pairs exactly tx_range_m apart along each axis,
        # across the edges of the loader's cells (a hair wider than 150 m)
        r = 150.0
        rng = random.Random(5)
        points = [(rng.uniform(-50.0, 650.0), rng.uniform(0.0, 600.0), rng.uniform(0.0, 600.0))
                  for _ in range(150)]
        for a, b in ((0.0, 150.0), (75.0, 225.0), (-75.0, 75.0), (150.0, 300.0),
                     (300.0 + 1e-7, 450.0 + 1e-7)):
            points += [(a, 10.0, 20.0), (b, 10.0, 20.0), (30.0, a, 40.0), (30.0, b, 40.0),
                       (500.0, 400.0, a + 150.0), (500.0, 400.0, b + 150.0)]
        points.append(points[0])  # a second node at the same spot
        nodes = [{"id": i, "kind": "sensor", "x": x, "y": y, "z": z,
                  "generated": 0, "candidates": []} for i, (x, y, z) in enumerate(points)]
        nodes[-1]["kind"] = "sink"
        snapshot = {
            "params": {"protocol": "qlfr", "tx_range_m": r, "sound_speed_mps": 1500.0,
                       "holding_h": 20, "tx_power_w": 2.0, "rx_power_w": 0.5,
                       "channel": CHANNEL},
            "nodes": nodes,
        }
        topo = analysis.load_snapshot(snapshot)
        brute = {i: tuple(j for j in range(len(points))
                          if j != i and math.dist(points[i], points[j]) <= r)
                 for i in range(len(points))}
        assert topo.neighbors == brute
        assert len(topo.neighbors[len(points) - 1]) >= 1
        exact = sum(math.dist(points[i], points[j]) == r
                    for i in brute for j in brute[i])
        assert exact >= 30
