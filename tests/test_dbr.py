"""Depth-based routing baseline: depth rule, cooperative holding, the
forwarding core it shares with qlfr, and engine-level suppression traces."""

import pytest

from uwroute.config import ScenarioConfig
from uwroute.dbr import DbrProtocol, dbr_holding_time
from uwroute.engine import Simulation
from uwroute.qlfr import Deliver, Drop, PacketHeader, QlfrProtocol, Schedule
from uwroute.world import NodePosition, NodeState, RoutingKnowledge


def make_node(node_id, depth, region_z=300.0, kind="sensor", x=0.0, y=0.0):
    return NodeState(node_id, kind, NodePosition(x, y, region_z - depth), region_z, 100.0,
                     list_length=2)


def header_from(sender):
    return PacketHeader(source_id=sender.id, seq=0,
                        knowledge=RoutingKnowledge(0.0, sender.depth, sender.residual_energy_j),
                        sender_id=sender.id)


class TestDepthRule:
    def test_deeper_receiver_drops(self):
        proto = dbr_protocol()
        node = make_node(2, depth=200.0)
        assert proto.on_receive(node, header_from(make_node(1, 150.0)), 0.0) == Drop("not-candidate")

    def test_equal_depth_drops(self):
        proto = dbr_protocol()
        node = make_node(2, depth=150.0)
        assert proto.on_receive(node, header_from(make_node(1, 150.0)), 0.0) == Drop("not-candidate")

    def test_shallower_receiver_schedules(self):
        proto = dbr_protocol()
        node = make_node(2, depth=100.0)
        action = proto.on_receive(node, header_from(make_node(1, 150.0)), 0.0)
        assert isinstance(action, Schedule)
        assert action.tau == pytest.approx(dbr_holding_time(50.0, 0.1, 150.0, 2))

    def test_holding_decreases_with_advance(self):
        taus = [dbr_holding_time(d, 0.1, 150.0, 0) for d in (10.0, 50.0, 100.0, 149.0)]
        assert all(b < a for a, b in zip(taus, taus[1:]))

    def test_id_jitter_breaks_ties(self):
        a = dbr_holding_time(75.0, 0.1, 150.0, 3)
        b = dbr_holding_time(75.0, 0.1, 150.0, 4)
        assert a < b
        assert b - a == pytest.approx(1e-6)


def qlfr_protocol():
    return QlfrProtocol(ScenarioConfig())


def dbr_protocol():
    return DbrProtocol(ScenarioConfig())


@pytest.fixture(params=[qlfr_protocol, dbr_protocol], ids=["qlfr", "dbr"])
def proto(request):
    return request.param()


class TestSharedForwardingCore:
    """Receive and hold-expiry rules that qlfr and dbr take from one core,
    written once and run against both protocols."""

    @staticmethod
    def relay(node_id=5, kind="sensor"):
        node = make_node(node_id, depth=100.0, kind=kind)
        # a fresh shallower neighbor, so a qlfr forward is not void
        node.neighbor_knowledge[2] = (RoutingKnowledge(0.0, 40.0, 100.0), 0.0)
        return node

    @staticmethod
    def copy_from(sender_id, seq=0, epoch=0):
        """A copy of packet (9, seq) that makes node 5 a candidate under either
        protocol: it lists node 5 and comes from deeper down."""
        return PacketHeader(source_id=9, seq=seq, knowledge=RoutingKnowledge(0.0, 180.0, 100.0),
                            sender_id=sender_id, priority_list=(5,), suppression_epoch=epoch)

    def test_sink_delivers(self, proto):
        sink = self.relay(node_id=5, kind="sink")
        assert proto.on_receive(sink, self.copy_from(1), 1.0) == Deliver()
        assert not sink.pending

    def test_overheard_copy_suppressed_then_duplicate(self, proto):
        node = self.relay()
        pkt = self.copy_from(1)
        assert isinstance(proto.on_receive(node, pkt, 1.0), Schedule)
        assert proto.on_receive(node, self.copy_from(3), 1.01) == Drop("suppressed")
        assert pkt.key not in node.pending
        assert pkt.key in node.duplicate_cache
        assert proto.on_receive(node, self.copy_from(4), 1.02) == Drop("duplicate")
        assert proto.on_hold_expire(node, pkt, 1.1) == ("stale", None)

    def test_sent_key_enters_forwarded_cache(self, proto):
        node = self.relay()
        pkt = self.copy_from(1)
        proto.on_receive(node, pkt, 1.0)
        status, header = proto.on_hold_expire(node, pkt, 1.1)
        assert status == "send"
        assert (header.source_id, header.seq, header.sender_id) == (9, 0, 5)
        assert pkt.key in node.forwarded_cache
        assert not node.pending
        assert proto.on_receive(node, self.copy_from(3), 1.2) == Drop("already-forwarded")

    def test_sent_header_advertises_sender_and_keeps_packet_fields(self, proto):
        node = self.relay()
        node.residual_energy_j = 70.0
        if isinstance(proto, QlfrProtocol):  # a qlfr epoch names a review that took place
            proto.at_sink(self.copy_from(1, seq=9))
            assert proto.review(delivered=5) == (3, 0.5)
        pkt = self.copy_from(1, epoch=1)
        proto.on_receive(node, pkt, 1.0)
        status, header = proto.on_hold_expire(node, pkt, 1.1)
        assert status == "send"
        # read after the send, so a qlfr sender advertises its updated V
        assert header.knowledge == RoutingKnowledge(node.v_value, node.depth, 70.0)
        assert header.suppression_epoch == 1

    def test_second_and_superseded_tokens_are_stale(self, proto):
        """A hold is named by the held copy itself: an equal copy that is a
        different object (PacketHeader is a frozen dataclass) is stale and
        leaves the hold alone, and a fired hold is stale the second time."""
        node = self.relay()
        pkt = self.copy_from(1)
        proto.on_receive(node, pkt, 1.0)
        assert node.pending[pkt.key] is pkt
        twin = self.copy_from(1)
        assert twin == pkt and twin is not pkt
        assert proto.on_hold_expire(node, twin, 1.1) == ("stale", None)
        assert node.pending[pkt.key] is pkt
        assert pkt.key not in node.forwarded_cache
        assert proto.on_hold_expire(node, pkt, 1.1)[0] == "send"
        assert proto.on_hold_expire(node, pkt, 1.1) == ("stale", None)

    def test_originated_key_enters_forwarded_cache(self, proto):
        source = self.relay(node_id=9, kind="source")
        header = proto.originate(source, seq=4, now=1.0)
        assert (header.source_id, header.seq, header.sender_id) == (9, 4, 9)
        assert (9, 4) in source.forwarded_cache
        assert proto.on_receive(source, self.copy_from(1, seq=4), 1.1) == Drop(
            "already-forwarded")


def chain_config(**kw):
    base = dict(region_x_m=100.0, region_y_m=100.0, region_z_m=450.0,
                n_sensors=2, n_sources=1, n_sinks=1, protocol="dbr",
                mobility_speed_mps=0.0, energy_per_bit=1e25,
                source_interval_s=10.0, max_sim_time_s=25.0, seed=1)
    base.update(kw)
    return ScenarioConfig(**base)


class TestEngineTraces:
    def build_two_candidate_net(self):
        # source at depth 300; A (shallow, big advance) and B (small advance)
        # both in range of the source and of each other; sink on the surface
        region_z = 450.0
        source = make_node(0, 300.0, region_z, kind="source")
        a = make_node(1, 170.0, region_z)
        b = make_node(2, 280.0, region_z, x=30.0)
        sink = make_node(3, 0.0, region_z, kind="sink")
        return [source, a, b, sink]

    def test_shallower_fires_first_and_suppresses(self):
        events = []
        # at 1 Gbit/s the airtime is 0.512 us; at the default 0.0512 s node 1's
        # copy reaches node 2 after its hold expired, and both forward
        sim = Simulation(chain_config(bit_rate_bps=1e9),
                         nodes=self.build_two_candidate_net(),
                         trace=events.append)
        sim.run()
        forwards = [e for e in events if e["event"] == "forward"]
        cancels = [e for e in events if e["event"] == "cancel"]
        assert [f["node"] for f in forwards if f["key"] == [0, 0] or f["key"] == (0, 0)]
        # node 1 (advance 130) outruns node 2 (advance 50), which cancels
        first_forward = forwards[0]
        assert first_forward["node"] == 1
        assert any(c["node"] == 2 for c in cancels)
        assert sim.suppressed_forwards >= 1

    def test_monotone_upward_forwarding(self):
        captured = []
        class Probe(Simulation):
            def _handle_arrival(self, node_id, pkt, ok):
                node = self.by_id[node_id]
                before = dict(node.pending)
                super()._handle_arrival(node_id, pkt, ok)
                for key in node.pending:
                    if key not in before:
                        captured.append((node.depth, pkt.knowledge.depth_m))

        cfg = chain_config(n_sensors=30, n_sources=3, n_sinks=2, region_x_m=300.0,
                           region_y_m=300.0, region_z_m=300.0, max_sim_time_s=60.0,
                           energy_per_bit=None)
        sim = Probe(cfg)
        sim.run()
        assert captured, "no forwards were scheduled"
        assert all(node_depth < sender_depth for node_depth, sender_depth in captured)

    def test_no_duplicate_forwards_per_node(self):
        events = []
        cfg = chain_config(n_sensors=40, n_sources=4, n_sinks=2, region_x_m=300.0,
                           region_y_m=300.0, region_z_m=300.0, max_sim_time_s=80.0,
                           energy_per_bit=None)
        Simulation(cfg, trace=events.append).run()
        seen = set()
        for e in events:
            if e["event"] == "forward":
                item = (e["node"], tuple(e["key"]))
                assert item not in seen
                seen.add(item)

    def test_reproducible_across_protocols(self):
        # identical config and seed give identical deployments for qlfr and dbr
        cfg_a = chain_config(protocol="dbr", n_sensors=20, n_sources=2, n_sinks=2,
                             region_x_m=300.0, region_y_m=300.0, region_z_m=300.0)
        cfg_b = ScenarioConfig(**{**cfg_a.__dict__, "protocol": "qlfr"})
        sim_a = Simulation(cfg_a)
        sim_b = Simulation(cfg_b)
        pos_a = [(n.id, n.position) for n in sim_a.nodes]
        pos_b = [(n.id, n.position) for n in sim_b.nodes]
        assert pos_a == pos_b
