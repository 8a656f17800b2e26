"""Event-kernel tests: closed-form single-hop timing, energy accounting and
the exact ledger, death and lifetime semantics, determinism, causality."""

import contextlib
import dataclasses
import hashlib
import json
import math
import random
import signal
from collections import Counter

import pytest

from uwroute import channel as chan
from uwroute import engine
from uwroute.config import ScenarioConfig
from uwroute.engine import EngineError, Simulation
from uwroute.qlfr import PacketHeader
from uwroute.world import NodePosition, NodeState, RoutingKnowledge, neighbors_in_range


def make_node(node_id, z, region_z=450.0, kind="sensor", x=0.0, y=0.0, energy=100.0):
    return NodeState(node_id, kind, NodePosition(x, y, z), region_z, energy, list_length=2)


def base_config(**kw):
    base = dict(region_x_m=100.0, region_y_m=100.0, region_z_m=450.0,
                n_sensors=1, n_sources=1, n_sinks=1, protocol="qlfr",
                mobility_speed_mps=0.0, energy_per_bit=1e25,
                source_interval_s=10.0, max_sim_time_s=25.0, seed=1)
    base.update(kw)
    return ScenarioConfig(**base)


class TestSingleHop:
    def test_chain_closed_form(self):
        # source 150 m straight below a sink, perfect channel: pdr 1 and
        # delay = propagation + serialization M/mu
        region_z = 150.0
        nodes = [make_node(0, 0.0, region_z, kind="source"),
                 make_node(1, region_z, region_z, kind="sink")]
        cfg = base_config(region_z_m=region_z)
        record = Simulation(cfg, nodes=nodes).run()
        assert record.generated == 2  # t = 10 and t = 20
        assert record.pdr == 1.0
        expected = 150.0 / 1500.0 + 512 / 10_000.0
        assert record.mean_e2e_delay_s == pytest.approx(expected, abs=1e-12)

    def test_serialization_can_be_zeroed(self):
        # there is no switch for airtime: a high bit rate approaches the
        # zero-airtime limit, leaving the 0.1 s of propagation alone
        region_z = 150.0
        nodes = [make_node(0, 0.0, region_z, kind="source"),
                 make_node(1, region_z, region_z, kind="sink")]
        cfg = base_config(region_z_m=region_z, bit_rate_bps=1e9)
        record = Simulation(cfg, nodes=nodes).run()
        assert record.pdr == 1.0
        assert record.mean_e2e_delay_s == pytest.approx(0.1 + 512 / 1e9, abs=1e-12)
        assert record.mean_e2e_delay_s - 0.1 < 1e-6

    def test_second_priority_forwarder_adds_one_k_step(self):
        # the head candidate is planted in the source's table but sits out of
        # range, so the second candidate rescues after exactly one k step
        region_z = 300.0
        source = make_node(0, 0.0, region_z, kind="source")
        ghost = make_node(1, 280.0, region_z, x=4000.0)  # advertised but unreachable
        relay = make_node(2, 150.0, region_z)
        sink = make_node(3, 300.0, region_z, kind="sink")
        cfg = base_config(region_z_m=region_z, n_sensors=3, max_sim_time_s=15.0,
                          holding_h=4)
        sim = Simulation(cfg, nodes=[source, ghost, relay, sink])
        src = sim.by_id[0]
        src.neighbor_knowledge[1] = (RoutingKnowledge(0.0, 20.0, 100.0), 9.9)
        record = sim.run()
        assert record.pdr == 1.0
        # two 150 m hops of propagation and airtime M/mu, plus one tau(2) = k
        # wait at the relay: 0.3524 s
        expected = 150.0 / 1500.0 + 0.0512 + 0.05 + 150.0 / 1500.0 + 0.0512
        assert record.mean_e2e_delay_s == pytest.approx(expected, abs=1e-9)

    def test_first_sink_arrival_counts(self):
        # two sinks at different distances: delay uses the nearer one
        region_z = 300.0
        nodes = [make_node(0, 160.0, region_z, kind="source"),
                 make_node(1, 300.0, region_z, kind="sink"),
                 make_node(2, 300.0, region_z, kind="sink", x=60.0)]
        cfg = base_config(region_z_m=region_z, n_sinks=2, max_sim_time_s=15.0)
        record = Simulation(cfg, nodes=nodes).run()
        assert record.delivered == 1
        assert record.mean_e2e_delay_s == pytest.approx(140.0 / 1500.0 + 0.0512, abs=1e-12)


class TestTransmitEnergy:
    def test_per_transmit_cost(self):
        # 2 W for 512 bits at 10 kbit/s: 0.1024 J per data transmission
        nodes = [make_node(0, 0.0, kind="source"), make_node(1, 450.0, kind="sink")]
        sim = Simulation(base_config(), nodes=nodes)
        src = sim.by_id[0]
        header = PacketHeader(0, 0, RoutingKnowledge(0.0, src.depth, src.residual_energy_j), 0)
        sim.transmit(src, header)
        assert src.consumed_j == pytest.approx(0.1024, rel=1e-9)
        assert src.tx_seconds == pytest.approx(0.0512, rel=1e-9)

    def test_propagation_timing(self):
        # the one arrival shows in the trace as node 1 dropping the packet it
        # is not listed for
        nodes = [make_node(0, 0.0, kind="source"), make_node(1, 150.0)]
        events = []
        sim = Simulation(base_config(), nodes=nodes, trace=events.append)
        src = sim.by_id[0]
        sim.transmit(src, PacketHeader(0, 0, RoutingKnowledge(0.0, src.depth, 100.0), 0))
        sim.drain(math.inf)
        tx, arrival = events
        assert tx["event"] == "tx"
        assert (arrival["event"], arrival["node"]) == ("drop", 1)
        # 150 m at 1500 m/s plus the 0.0512 s airtime
        assert arrival["t"] == pytest.approx(0.1512, abs=1e-12)

    def test_broadcast_into_void_still_costs(self):
        nodes = [make_node(0, 0.0, kind="source"), make_node(1, 400.0)]  # 400 m away
        sim = Simulation(base_config(), nodes=nodes)
        src = sim.by_id[0]
        sim.transmit(src, PacketHeader(0, 0, RoutingKnowledge(0.0, src.depth, 100.0), 0))
        assert src.consumed_j == pytest.approx(0.1024, rel=1e-9)
        assert sim.in_range(src) == []  # nobody in range, no arrivals
        sim.drain(math.inf)
        assert sim.now == 0.0  # and no event was queued

    def test_out_of_range_never_charged(self):
        nodes = [make_node(0, 0.0, kind="source"), make_node(1, 400.0)]
        sim = Simulation(base_config(), nodes=nodes)
        sim.transmit(sim.by_id[0], PacketHeader(0, 0, RoutingKnowledge(0.0, 450.0, 100.0), 0))
        sim.drain(math.inf)
        assert sim.by_id[1].consumed_j == 0.0

    def test_reception_charged_even_when_corrupt(self):
        # a hopeless channel: every arrival is corrupt, energy still burnt
        nodes = [make_node(0, 0.0, kind="source"), make_node(1, 100.0)]
        cfg = base_config(energy_per_bit=1e-12)
        sim = Simulation(cfg, nodes=nodes)
        src = sim.by_id[0]
        sim.transmit(src, PacketHeader(0, 0, RoutingKnowledge(0.0, src.depth, 100.0), 0))
        sim.drain(math.inf)
        assert sim.by_id[1].consumed_j == pytest.approx(0.0256, rel=1e-9)
        assert sim.by_id[1].rx_seconds == pytest.approx(0.0512, rel=1e-9)
        assert sim.corrupt_packets == 1

    def test_sinks_outside_energy_model(self):
        nodes = [make_node(0, 300.0, kind="source"), make_node(1, 450.0, kind="sink")]
        sim = Simulation(base_config(), nodes=nodes)
        src = sim.by_id[0]
        sim.transmit(src, PacketHeader(0, 0, RoutingKnowledge(0.0, src.depth, 100.0), 0))
        sim.drain(math.inf)
        assert sim.by_id[1].consumed_j == 0.0


class TestDeathAndLifetime:
    def test_transmit_refused_when_broke(self):
        nodes = [make_node(0, 0.0, kind="source", energy=0.05), make_node(1, 450.0, kind="sink")]
        sim = Simulation(base_config(), nodes=nodes)
        src = sim.by_id[0]
        sim.now = 7.0
        sim.transmit(src, PacketHeader(0, 0, RoutingKnowledge(0.0, src.depth, 0.05), 0))
        assert not src.alive
        assert src.death_time_s == 7.0
        assert src.consumed_j == 0.0  # the unaffordable transmit never happened

    def test_lifetime_is_first_sensor_death(self):
        # relay with only enough energy for a couple of receptions dies early
        region_z = 300.0
        nodes = [make_node(0, 0.0, region_z, kind="source"),
                 make_node(1, 150.0, region_z, energy=0.06),
                 make_node(2, 300.0, region_z, kind="sink")]
        cfg = base_config(region_z_m=region_z, n_sensors=2, max_sim_time_s=60.0,
                          source_interval_s=5.0)
        record = Simulation(cfg, nodes=nodes).run()
        assert record.network_lifetime_s < 60.0
        assert record.network_lifetime_s == pytest.approx(
            min(n.death_time_s for n in [nodes[1]] if n.death_time_s is not None))

    def test_lifetime_extrapolation_without_death(self):
        region_z = 150.0
        nodes = [make_node(0, 0.0, region_z, kind="source"),
                 make_node(1, region_z, region_z, kind="sink")]
        cfg = base_config(region_z_m=region_z)
        sim = Simulation(cfg, nodes=nodes)
        record = sim.run()
        src = sim.by_id[0]
        expected = src.initial_energy_j * cfg.max_sim_time_s / src.consumed_j
        assert record.network_lifetime_s == pytest.approx(expected, rel=1e-12)
        assert record.network_lifetime_s > cfg.max_sim_time_s

    def test_lifetime_never_exceeds_any_node(self):
        cfg = base_config(n_sensors=30, n_sources=3, n_sinks=2, region_x_m=300.0,
                          region_y_m=300.0, region_z_m=300.0, max_sim_time_s=60.0,
                          energy_per_bit=None)
        sim = Simulation(cfg)
        record = sim.run()
        for node in sim.nodes:
            if node.is_sink or node.consumed_j <= 0:
                continue
            node_lifetime = (node.death_time_s if node.death_time_s is not None
                             else node.initial_energy_j * cfg.max_sim_time_s / node.consumed_j)
            assert record.network_lifetime_s <= node_lifetime + 1e-9


class TestEnergyLedger:
    def test_exact_ledger(self):
        cfg = base_config(n_sensors=40, n_sources=4, n_sinks=3, region_x_m=300.0,
                          region_y_m=300.0, region_z_m=300.0, max_sim_time_s=120.0,
                          mobility_speed_mps=3.0, energy_per_bit=None)
        sim = Simulation(cfg)
        record = sim.run()
        lhs, rhs = sim.audit_energy()
        assert lhs == pytest.approx(rhs, rel=1e-9)
        assert record.total_energy_j == pytest.approx(
            cfg.tx_power_w * record.tx_seconds + cfg.rx_power_w * record.rx_seconds,
            rel=1e-9)

    def test_every_decrement_attributable(self):
        cfg = base_config(n_sensors=25, n_sources=3, n_sinks=2, region_x_m=300.0,
                          region_y_m=300.0, region_z_m=300.0, max_sim_time_s=80.0,
                          energy_per_bit=None)
        sim = Simulation(cfg)
        sim.run()
        for node in sim.nodes:
            if node.is_sink:
                continue
            assert node.initial_energy_j - node.residual_energy_j == pytest.approx(
                node.consumed_j, abs=1e-9)
            assert node.consumed_j == pytest.approx(
                cfg.tx_power_w * node.tx_seconds + cfg.rx_power_w * node.rx_seconds,
                rel=1e-12)
            assert 0.0 <= node.residual_energy_j <= node.initial_energy_j


class TestDeterminism:
    def test_identical_records(self):
        cfg = base_config(n_sensors=30, n_sources=3, n_sinks=2, region_x_m=300.0,
                          region_y_m=300.0, region_z_m=300.0, max_sim_time_s=60.0,
                          mobility_speed_mps=3.0, energy_per_bit=None, seed=11)
        a = engine.run(cfg)
        b = engine.run(cfg)
        assert a.to_csv_row() == b.to_csv_row()
        assert a.per_node_energy_j == b.per_node_energy_j

    def test_identical_event_traces(self):
        cfg = base_config(n_sensors=20, n_sources=2, n_sinks=2, region_x_m=300.0,
                          region_y_m=300.0, region_z_m=300.0, max_sim_time_s=40.0,
                          energy_per_bit=None, seed=5)
        t1, t2 = [], []
        Simulation(cfg, trace=t1.append).run()
        Simulation(cfg, trace=t2.append).run()
        assert t1 == t2

    def test_untraced_run_builds_no_hot_path_events(self):
        # with no trace, no event site calls _emit, so none builds its fields
        cfg = base_config(n_sensors=20, n_sources=2, n_sinks=2, region_x_m=300.0,
                          region_y_m=300.0, region_z_m=300.0, max_sim_time_s=40.0,
                          energy_per_bit=None, seed=5)
        traced, untraced = [], []
        Simulation(cfg, trace=traced.append).run()
        sim = Simulation(cfg)
        sim._emit = lambda event, **fields: untraced.append(event)
        sim.run()
        hot = {"tx", "schedule", "cancel", "drop", "forward", "gen", "deliver"}
        assert hot & {e["event"] for e in traced} == hot
        assert untraced == []

    def test_seed_changes_outcome(self):
        cfg = base_config(n_sensors=30, n_sources=3, n_sinks=2, region_x_m=300.0,
                          region_y_m=300.0, region_z_m=300.0, max_sim_time_s=60.0,
                          energy_per_bit=None)
        a = engine.run(dataclasses.replace(cfg, seed=1))
        b = engine.run(dataclasses.replace(cfg, seed=2))
        assert a.per_node_energy_j != b.per_node_energy_j


class TestNeighbourGrid:
    """Broadcast fan-out through the cell grid against the brute-force
    `neighbors_in_range` scan over all nodes."""

    @staticmethod
    def receivers(sim, sender):
        """Receiver ids `transmit` schedules, in arrival insertion order: a
        hello and a data copy reach the same nodes, each through the handler
        of its kind."""
        hellos, data = [], []

        def record_into(scheduled):
            return lambda t, handler, *args: scheduled.append((handler, args))

        copy = PacketHeader(sender.id, 0, RoutingKnowledge(0.0, sender.depth, 1.0), sender.id)
        try:
            sim.schedule = record_into(hellos)
            sim.transmit(sender, sim.protocol.hello_header(sender))
            sim.schedule = record_into(data)
            sim.transmit(sender, copy)
        finally:
            del sim.schedule
        assert all(handler == sim._handle_hello_arrival for handler, _ in hellos)
        assert all(handler == sim._handle_arrival for handler, _ in data)
        assert [args[0] for _, args in data] == [args[0] for _, args in hellos]
        return [args[0] for _, args in hellos]

    def assert_matches_brute_force(self, sim):
        r = sim.config.tx_range_m
        for sender in sim.nodes:
            expected = [nid for nid in neighbors_in_range(sender, sim.nodes, r)
                        if sim.by_id[nid].alive]
            got = self.receivers(sim, sender)
            assert sorted(got) == expected
            assert got == expected
            assert [nid for nid, _, _ in sim.in_range(sender)] == expected
            # the link table itself holds dead receivers too
            assert [nid for nid, _, _ in sim._link_table(sender)] == neighbors_in_range(
                sender, sim.nodes, r)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_random_deployments_before_and_after_mobility(self, seed):
        cfg = base_config(n_sensors=60, n_sources=3, n_sinks=3, region_x_m=400.0,
                          region_y_m=400.0, region_z_m=400.0, mobility_speed_mps=3.0,
                          energy_per_bit=None, seed=seed)
        sim = Simulation(cfg)
        rng = random.Random(seed)
        for node in rng.sample(sim.nodes, 8):
            node.alive = False
        self.assert_matches_brute_force(sim)
        before = [n.position for n in sim.nodes]
        sim.now = cfg.mobility_tick_s
        sim._handle_mobility()
        assert [n.position for n in sim.nodes] != before
        self.assert_matches_brute_force(sim)

    def test_exact_range_across_cell_boundaries(self):
        # the cell side is a hair wider than the 150 m range, so 150.0 and
        # 300.0 fall in cells 0 and 1, and -75.0 / 75.0 in cells -1 and 0
        r = 150.0
        xs = [0.0, 150.0, 300.0, -75.0, 75.0, -150.0, 300.0 + 1e-7, 450.0 - 1e-9]
        nodes = [make_node(i, 100.0, x=x) for i, x in enumerate(xs)]
        nodes += [make_node(len(xs), 100.0 + r, x=150.0),  # straight up, exactly r
                  make_node(len(xs) + 1, 100.0, y=-r)]      # along y, exactly r
        sim = Simulation(base_config(n_sensors=len(nodes), tx_range_m=r), nodes=nodes)
        self.assert_matches_brute_force(sim)
        assert self.receivers(sim, sim.by_id[1]) == [0, 2, 4, 8]
        assert self.receivers(sim, sim.by_id[3]) == [0, 4, 5]

    def test_nodes_outside_region_box(self):
        nodes = [make_node(0, 0.0, kind="source", x=-4000.0, y=-4000.0),
                 make_node(1, 100.0, x=-4000.0, y=-4000.0),
                 make_node(2, -500.0, x=9000.0),
                 make_node(3, -400.0, x=9000.0, y=100.0),
                 make_node(4, 450.0, kind="sink")]
        sim = Simulation(base_config(n_sensors=4), nodes=nodes)
        self.assert_matches_brute_force(sim)
        assert self.receivers(sim, sim.by_id[0]) == [1]
        assert self.receivers(sim, sim.by_id[2]) == [3]

    def test_dead_nodes_and_sender_excluded(self):
        nodes = [make_node(i, 10.0 * i) for i in range(6)]
        sim = Simulation(base_config(n_sensors=6), nodes=nodes)
        sim.by_id[2].alive = False
        sim.by_id[4].alive = False
        assert self.receivers(sim, sim.by_id[3]) == [0, 1, 5]
        self.assert_matches_brute_force(sim)


class TestHelloArrival:
    def test_corrupt_or_dead_receiver_learns_nothing_and_pays_nothing(self):
        nodes = [make_node(i, 10.0 * i) for i in range(4)]
        sim = Simulation(base_config(n_sensors=4), nodes=nodes)
        sender, corrupt, dying, intact = sim.nodes
        draws = iter([1.0, 0.0, 0.0])  # node 1's copy is corrupt, 2's and 3's intact
        sim.rng.random = lambda: next(draws)
        sim.transmit(sender, sim.protocol.hello_header(sender))
        dying.alive = False  # dies after the broadcast, before its copy arrives
        sim.drain(1.0)
        assert corrupt.neighbor_knowledge == {} and dying.neighbor_knowledge == {}
        assert list(intact.neighbor_knowledge) == [sender.id]
        for node in sim.nodes:
            assert node.residual_energy_j == node.initial_energy_j
            assert node.consumed_j == 0.0 and node.rx_seconds == 0.0


class CountingRandom(random.Random):
    """A Random that counts its `random()` draws."""

    draws = 0

    def random(self):
        self.draws += 1
        return super().random()


class TestLinkTable:
    """The first broadcast after a move computes every in-range pair's delay
    and link probability once, for the tables of both ends; broadcasts reuse
    them until the next move."""

    @staticmethod
    def simulation():
        cfg = base_config(n_sensors=30, n_sources=3, n_sinks=2, region_x_m=300.0,
                          region_y_m=300.0, region_z_m=300.0, mobility_speed_mps=3.0,
                          energy_per_bit=None, seed=4)
        sim = Simulation(cfg)
        rng = CountingRandom()
        rng.setstate(sim.rng.getstate())
        sim.rng = rng
        link_calls = []
        link = sim.link_delivery_prob
        sim.link_delivery_prob = lambda dist: link_calls.append(dist) or link(dist)
        return sim, link_calls

    @staticmethod
    def broadcast(sim, sender):
        """(receiver, arrival time, delivered) of each arrival one hello
        broadcast of `sender` schedules, and the RNG draws it made."""
        scheduled = []
        draws = sim.rng.draws
        sim.schedule = lambda t, handler, node_id, pkt, ok: scheduled.append((node_id, t, ok))
        try:
            sim.transmit(sender, sim.protocol.hello_header(sender))
        finally:
            del sim.schedule
        return scheduled, sim.rng.draws - draws

    @staticmethod
    def in_range_pairs(sim):
        """Half the summed table lengths, checked against a brute-force scan."""
        total = sum(len(sim._link_table(n)) for n in sim.nodes)
        r = sim.config.tx_range_m
        assert total == sum(len(neighbors_in_range(n, sim.nodes, r)) for n in sim.nodes)
        return total // 2

    def test_second_broadcast_reuses_receivers_and_offsets(self):
        sim, link_calls = self.simulation()
        sender = sim.by_id[7]
        sim.now = 0.5
        first, first_draws = self.broadcast(sim, sender)
        assert len(first) >= 3 and first_draws == len(first)
        assert len(link_calls) == self.in_range_pairs(sim)  # one call per pair
        calls = len(link_calls)
        second, second_draws = self.broadcast(sim, sender)
        assert [(nid, t) for nid, t, _ in second] == [(nid, t) for nid, t, _ in first]
        assert second_draws == first_draws
        for other in sim.nodes:
            self.broadcast(sim, other)
        assert len(link_calls) == calls  # no link probability recomputed

    def test_receiver_killed_between_broadcasts(self):
        sim, _ = self.simulation()
        sender = sim.by_id[7]
        first, first_draws = self.broadcast(sim, sender)
        victim = first[1][0]
        sim.by_id[victim].alive = False
        second, second_draws = self.broadcast(sim, sender)
        assert [nid for nid, _, _ in second] == [nid for nid, _, _ in first if nid != victim]
        assert second_draws == first_draws - 1

    def test_cached_entries_equal_channel_model(self):
        sim, _ = self.simulation()
        v0 = sim.config.sound_speed_mps
        for sender in sim.nodes:
            p = sender.position
            for nid, delay, prob in sim._link_table(sender):
                o = sim.by_id[nid].position
                dx, dy, dz = o.x - p.x, o.y - p.y, o.z - p.z
                dist = math.sqrt(dx * dx + dy * dy + dz * dz)
                assert delay == dist / v0
                assert prob == chan.packet_delivery_prob(dist, sim.channel)

    def test_mobility_drops_every_table(self):
        sim, link_calls = self.simulation()
        sender = sim.by_id[7]
        self.broadcast(sim, sender)
        before = len(link_calls)
        sim.now = sim.config.mobility_tick_s
        sim._handle_mobility()
        moved, _ = self.broadcast(sim, sender)
        assert len(link_calls) == before + self.in_range_pairs(sim)
        expected = [nid for nid in neighbors_in_range(sender, sim.nodes, sim.config.tx_range_m)
                    if sim.by_id[nid].alive]
        assert [nid for nid, _, _ in moved] == expected

    def test_finished_run_holds_no_tables(self):
        cfg = base_config(n_sensors=30, n_sources=3, n_sinks=2, region_x_m=300.0,
                          region_y_m=300.0, region_z_m=300.0, mobility_speed_mps=3.0,
                          max_sim_time_s=65.0, energy_per_bit=None, seed=4)
        sim = Simulation(cfg)
        sim.run()
        assert sim._links is None
        # a run whose tables are put back after it ends
        kept, tables = Simulation(cfg), []
        drain = kept.drain

        def drain_keeping_tables(until):
            drain(until)
            tables.append(kept._links)

        kept.drain = drain_keeping_tables
        kept.run()
        assert tables[0] is not None
        kept._links = tables[0]
        assert sim.snapshot_topology() == kept.snapshot_topology()
        assert kept._links is tables[0]


@contextlib.contextmanager
def time_limit(seconds):
    """Raise TimeoutError in the test if the block runs longer than `seconds`."""
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestMobility:
    def test_huge_speed_stays_in_the_box(self):
        # each 10 s tick moves a node 300 m at the top speed, 300 widths of the
        # smallest region
        side = 1.0
        cfg = base_config(n_sensors=10, n_sources=2, n_sinks=2, region_x_m=side,
                          region_y_m=side, region_z_m=side, mobility_speed_mps=30.0,
                          max_sim_time_s=30.0, energy_per_bit=None)
        sim = Simulation(cfg)
        with time_limit(20):
            record = sim.run()
        assert record.generated > 0
        for node in sim.nodes:
            p = node.position
            assert 0.0 <= p.x <= side and 0.0 <= p.y <= side and 0.0 <= p.z <= side


class TestCoLocatedNodes:
    @pytest.mark.parametrize("protocol", ["qlfr", "dbr"])
    def test_run_with_relay_on_the_source_completes(self, protocol):
        # the relay shares the source's position: every broadcast of one
        # reaches the other over a 0 m link, which delivers with p = 1
        region_z = 150.0
        nodes = [make_node(0, 0.0, region_z, kind="source"),
                 make_node(1, 0.0, region_z),
                 make_node(2, region_z, region_z, kind="sink")]
        cfg = base_config(region_z_m=region_z, n_sensors=2, protocol=protocol)
        sim = Simulation(cfg, nodes=nodes)
        assert sim.in_range(sim.by_id[0]) == [(1, 0.0, 1.0),
                                              (2, 0.1, sim.link_delivery_prob(region_z))]
        record = sim.run()
        assert record.generated == 2
        assert record.pdr == 1.0
        assert record.mean_e2e_delay_s == pytest.approx(0.1512, abs=1e-12)
        assert sim.by_id[1].rx_seconds == pytest.approx(2 * 0.0512, rel=1e-12)


class TestGoldenDigest:
    """Pinned outputs of two short mobile runs. A performance or design change
    must leave every RNG draw in place, which comparing two runs of the same
    code cannot show. The record digests were taken before the spatial grid
    existed; the trace digests, before qlfr and dbr shared one forwarding
    core, also pin every drop reason, holding time, priority position and
    cancel, which the record alone does not show."""

    @staticmethod
    def qlfr_default():
        return ScenarioConfig(protocol="qlfr", max_sim_time_s=120.0)

    @staticmethod
    def dbr_200_sensors():
        edge = 500.0 * 2.0 ** (1.0 / 3.0)
        return ScenarioConfig(protocol="dbr", n_sensors=200, region_x_m=edge,
                              region_y_m=edge, region_z_m=edge, max_sim_time_s=60.0)

    @staticmethod
    def digest(record, events=()):
        h = hashlib.sha256()
        for event in events:
            h.update(json.dumps(event, sort_keys=True).encode())
        h.update(",".join(record.to_csv_row()).encode())
        h.update(repr(sorted(record.per_node_energy_j.items())).encode())
        return h.hexdigest()

    def traced_digest(self, cfg):
        events = []
        record = engine.run(cfg, trace=events.append)
        return len(events), self.digest(record, events)

    def test_qlfr_default_scenario(self):
        # the benchmark's events_per_s counts calls of the `schedule`
        # attribute, so every event must still go through it
        sim = Simulation(self.qlfr_default())
        scheduled = []
        schedule = sim.schedule
        sim.schedule = lambda *args: scheduled.append(None) or schedule(*args)
        record = sim.run()
        assert self.digest(record) == (
            "b38cf2a5b8b02fcfd01b37c18dc06531db64f31e1ff1b88c4e855f0cd4d19620")
        assert len(scheduled) == 12833

    def test_dbr_200_sensors_default_density(self):
        assert self.digest(engine.run(self.dbr_200_sensors())) == (
            "1214ab84fb2ef0a774b26ee70d9aae26843f87fd443e1a711d5aefe7228ed012")

    def test_qlfr_default_scenario_trace(self):
        assert self.traced_digest(self.qlfr_default()) == (
            3161, "2d3b545610afab98082a8ff53a716800bbd2dfd9add47e871ad02853ad393110")

    def test_dbr_200_sensors_trace(self):
        assert self.traced_digest(self.dbr_200_sensors()) == (
            13791, "880f71ec8d35d152a75380732085d682a8a1a887b9ba6462269275c78eeae354")


class TestReceivePath:
    @pytest.mark.parametrize("protocol", ["qlfr", "dbr"])
    def test_on_receive_gets_data_copies_from_others_only(self, protocol):
        """The engine hands hellos to `hear` and never delivers a node its
        own broadcast, so `on_receive` sees neither."""
        sim = Simulation(base_config(protocol=protocol, n_sensors=30, n_sources=3, n_sinks=2,
                                     region_x_m=300.0, region_y_m=300.0, region_z_m=300.0,
                                     max_sim_time_s=40.0, mobility_speed_mps=3.0,
                                     energy_per_bit=None))
        received = []
        on_receive = sim.protocol.on_receive

        def spy(node, pkt, now):
            received.append((node.id, pkt.sender_id, pkt.is_hello))
            return on_receive(node, pkt, now)

        sim.protocol.on_receive = spy
        sim.run()
        assert received
        assert not any(is_hello for _, _, is_hello in received)
        assert all(node_id != sender_id for node_id, sender_id, _ in received)


class TestListLengthPin:
    """The adaptive list length of the default seed-1 qlfr run, 600 s: every
    review that changed the sinks' length, and each non-sink node's final
    (list_length, suppression_epoch). The golden digests see this state only
    through the lists it shaped; this pins it directly."""

    def test_default_seed_1(self):
        events = []
        sim = Simulation(ScenarioConfig(protocol="qlfr"), trace=events.append)
        sim.run()
        reviews = [(e["t"], e["value"], e["pdr"]) for e in events if e["event"] == "list-length"]
        assert reviews == [(30.0, 1, 1.0), (90.0, 2, 1 / 7), (120.0, 3, 7 / 29),
                           (150.0, 4, 0.7), (570.0, 3, 1.0), (600.0, 4, 9 / 19)]
        state = [(n.id, n.list_length, n.suppression_epoch) for n in sim.nodes
                 if not n.is_sink]
        assert sorted(Counter(length for _, length, _ in state).items()) == [
            (1, 8), (2, 30), (3, 28), (4, 34)]
        assert sorted(Counter(epoch for _, _, epoch in state).items()) == [
            (0, 16), (2, 9), (3, 5), (4, 36), (5, 29), (6, 5)]
        assert hashlib.sha256(repr(state).encode()).hexdigest() == (
            "8fc6245e8d066b329996b952f044d41c7d3db59223194c23ad199d58727aca3d")


class TestErrors:
    def test_zero_generated_is_error(self):
        cfg = base_config(max_sim_time_s=5.0)  # ends before the first packet
        with pytest.raises(EngineError):
            engine.run(cfg)

    def test_causality_guard(self):
        sim = Simulation(base_config(), nodes=[make_node(0, 0.0, kind="source"),
                                               make_node(1, 450.0, kind="sink")])
        sim.now = 10.0
        with pytest.raises(EngineError):
            sim.schedule(9.0, lambda: None)

    def test_config_validated_before_events(self):
        with pytest.raises(Exception):
            Simulation(base_config(n_sources=5, n_sensors=2))


class TestChannelConsistency:
    def test_cached_link_budget_matches_channel_module(self):
        from uwroute import channel as chan
        sim = Simulation(base_config(energy_per_bit=None))
        for d in (10.0, 75.0, 150.0):
            assert sim.link_delivery_prob(d) == chan.packet_delivery_prob(d, sim.channel)

    def test_perfect_channel_chain_delivers_everything(self):
        region_z = 440.0
        nodes = [make_node(0, 0.0, region_z, kind="source"),
                 make_node(1, 145.0, region_z),
                 make_node(2, 295.0, region_z),
                 make_node(3, 440.0, region_z, kind="sink")]
        # 95 s horizon leaves the last packet (t = 90) time to drain
        cfg = base_config(region_z_m=region_z, n_sensors=3, max_sim_time_s=95.0)
        record = Simulation(cfg, nodes=nodes).run()
        assert record.pdr == 1.0


class TestProtocolInvariantsUnderLoad:
    def desk_config(self):
        return base_config(n_sensors=40, n_sources=4, n_sinks=3, region_x_m=300.0,
                           region_y_m=300.0, region_z_m=300.0, max_sim_time_s=90.0,
                           mobility_speed_mps=3.0, energy_per_bit=None)

    def test_q_values_stay_bounded(self):
        from uwroute.qcore import q_bounds
        cfg = self.desk_config()
        sim = Simulation(cfg)
        sim.run()
        lo, hi = q_bounds(cfg.gamma)
        entries = [q for n in sim.nodes for q in n.q_table.values()]
        assert entries, "no learning happened"
        assert all(lo - 1e-9 <= q <= hi + 1e-9 for q in entries)

    def test_priority_lists_valid_at_build_time(self):
        # every transmitted list names only known, strictly-shallower neighbors
        captured = []

        class Probe(Simulation):
            def transmit(self, sender, pkt):
                if not pkt.is_hello and pkt.priority_list:
                    for nid in pkt.priority_list:
                        kn = sender.neighbor_knowledge.get(nid)
                        captured.append((kn is not None,
                                         kn is not None and kn[0].depth_m < sender.depth))
                super().transmit(sender, pkt)

        Probe(self.desk_config()).run()
        assert captured, "no data transmissions"
        assert all(known and shallower for known, shallower in captured)

    def test_no_node_forwards_twice(self):
        events = []
        Simulation(self.desk_config(), trace=events.append).run()
        seen = set()
        for e in events:
            if e["event"] == "forward":
                item = (e["node"], tuple(e["key"]))
                assert item not in seen
                seen.add(item)


class TestSnapshot:
    def test_snapshot_candidates_are_valid(self):
        cfg = base_config(n_sensors=30, n_sources=3, n_sinks=2, region_x_m=300.0,
                          region_y_m=300.0, region_z_m=300.0, max_sim_time_s=60.0,
                          energy_per_bit=None)
        sim = Simulation(cfg)
        sim.run()
        snap = sim.snapshot_topology()
        by_id = {e["id"]: e for e in snap["nodes"]}
        r = snap["params"]["tx_range_m"]
        for entry in snap["nodes"]:
            for cand in entry["candidates"]:
                other = by_id[cand]
                dist = math.dist((entry["x"], entry["y"], entry["z"]),
                                 (other["x"], other["y"], other["z"]))
                assert dist <= r + 1e-9
                assert other["z"] > entry["z"]  # strictly shallower
