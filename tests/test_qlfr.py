"""Protocol state-machine tests: priority lists, holding times, receive and
hold-expiry paths, overhear suppression, and the adaptive list length."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from uwroute import qcore
from uwroute.config import ScenarioConfig
from uwroute.engine import Simulation
from uwroute.qlfr import (Deliver, Drop, PacketHeader, QlfrProtocol, Schedule,
                          build_priority_list, holding_time)
from uwroute.world import NodePosition, NodeState, RoutingKnowledge, remember

GAMMA = 0.8
D_MAX = 150.0
STALE = 20.0


def make_node(node_id=0, depth=100.0, region_z=300.0, kind="sensor", e_res=None):
    node = NodeState(node_id, kind, NodePosition(0.0, 0.0, region_z - depth),
                     region_z, 100.0)
    if e_res is not None:
        node.residual_energy_j = e_res
    return node


def protocol(h=4, length=2, max_list=4, threshold=0.9):
    """qlfr at the default config (gamma GAMMA, range D_MAX, staleness STALE,
    t_max 0.1 s) with these holding and list-length keys."""
    return QlfrProtocol(ScenarioConfig(holding_h=h, initial_list_length=length,
                                       max_list_length=max_list, pdr_threshold=threshold))


def data_header(sender: NodeState, plist, source_id=9, seq=0, epoch=0):
    return PacketHeader(source_id=source_id, seq=seq,
                        knowledge=RoutingKnowledge(sender.v_value, sender.depth,
                                                   sender.residual_energy_j),
                        sender_id=sender.id, priority_list=tuple(plist),
                        suppression_epoch=epoch)


def score(sender: NodeState, kn: RoutingKnowledge, gamma=GAMMA) -> float:
    """The ranking value r + gamma * V of one advertised neighbor of `sender`."""
    return (qcore.reward_from(sender, D_MAX)(kn.residual_energy_j, kn.depth_m)
            + gamma * kn.v_value)


class TestHeaders:
    def test_fields_cannot_be_assigned(self):
        sender = make_node(node_id=1)
        pkt = data_header(sender, plist=[5])
        with pytest.raises(AttributeError):
            pkt.seq = 1
        with pytest.raises(AttributeError):
            pkt.knowledge.depth_m = 0.0
        assert pkt.key == (9, 0) and pkt.knowledge.depth_m == sender.depth


class TestHoldingTime:
    def test_head_waits_nothing(self):
        assert holding_time(1, ScenarioConfig(holding_h=4).holding_k_s) == 0.0

    def test_table_values(self):
        # R = 150 m, v0 = 1500 m/s: t_max = 0.1 s; h = 4 gives k = 0.05 s
        k = ScenarioConfig(tx_range_m=150.0, sound_speed_mps=1500.0, holding_h=4).holding_k_s
        assert k == pytest.approx(0.05)
        assert holding_time(3, k) == pytest.approx(0.1)

    def test_h_one(self):
        k = ScenarioConfig(holding_h=1).holding_k_s
        assert k == pytest.approx(0.2)
        assert holding_time(2, k) == pytest.approx(0.2)

    def test_strictly_increasing_with_constant_step(self):
        k = ScenarioConfig(holding_h=5).holding_k_s
        taus = [holding_time(n, k) for n in range(1, 12)]
        steps = [b - a for a, b in zip(taus, taus[1:])]
        assert all(s == pytest.approx(k) for s in steps)

    def test_domain_error(self):
        with pytest.raises(ValueError):
            holding_time(0, ScenarioConfig(holding_h=4).holding_k_s)


class TestSuppressionSoundness:
    def test_exhaustive_worst_case_grid(self):
        """Worst-case receive offset and propagation (both t_max): a candidate
        h or more positions behind can never fire before it hears the earlier
        forward. Exact rational arithmetic, zero tolerance."""
        t_max = Fraction(1, 10)
        violations = []
        for n2 in range(2, 21):
            for n1 in range(1, n2):
                for h in range(1, n2 - n1 + 1):
                    k = 2 * t_max / h
                    lhs = t_max + k * (n1 - 1) + t_max  # t1 + tau(n1) + t_prop, t2 = 0
                    rhs = k * (n2 - 1)
                    if lhs > rhs:
                        violations.append((n1, n2, h))
        assert violations == []

    def test_float_matches_rational(self):
        k = ScenarioConfig(holding_h=7).holding_k_s
        for n in range(1, 25):
            exact = Fraction(2, 1) * Fraction(1, 10) / 7 * (n - 1)
            assert holding_time(n, k) == pytest.approx(float(exact), abs=1e-12)


class TestPriorityList:
    def test_sorts_by_score_descending(self):
        sender = make_node(depth=100.0)
        # advertised V values chosen so scores are exactly -1 (A) and -0.5 (B)
        sender.neighbor_knowledge = {
            1: (RoutingKnowledge(-5.0 / 6.0, 50.0, 100.0), 0.0),  # A
            2: (RoutingKnowledge(-1.0 / 6.0, 60.0, 100.0), 0.0),  # B
        }
        assert score(sender, sender.neighbor_knowledge[1][0]) == pytest.approx(-1.0)
        assert score(sender, sender.neighbor_knowledge[2][0]) == pytest.approx(-0.5)
        assert build_priority_list(sender, D_MAX, 2, GAMMA, now=1.0, staleness_s=STALE) == [2, 1]

    def test_filters_deeper_neighbors(self):
        sender = make_node(depth=100.0)
        sender.neighbor_knowledge = {
            1: (RoutingKnowledge(0.0, 150.0, 100.0), 0.0),
            2: (RoutingKnowledge(0.0, 100.0, 100.0), 0.0),  # equal depth is not progress
        }
        assert build_priority_list(sender, D_MAX, 2, GAMMA, now=0.0, staleness_s=STALE) == []

    def test_truncates_to_length_with_sort_oracle(self):
        sender = make_node(depth=140.0)
        knowledge = {}
        for nid, depth in enumerate((10.0, 80.0, 40.0, 120.0, 60.0), start=1):
            knowledge[nid] = (RoutingKnowledge(0.0, depth, 100.0), 0.0)
        sender.neighbor_knowledge = dict(knowledge)
        got = build_priority_list(sender, D_MAX, 3, GAMMA, now=0.0, staleness_s=STALE)
        scores = {nid: score(sender, kn) for nid, (kn, _) in knowledge.items()}
        oracle = sorted(scores, key=lambda nid: (-scores[nid], nid))[:3]
        assert got == oracle
        assert len(got) == 3

    def test_stale_entries_excluded(self):
        sender = make_node(depth=100.0)
        sender.neighbor_knowledge = {
            1: (RoutingKnowledge(0.0, 50.0, 100.0), 0.0),
            2: (RoutingKnowledge(0.0, 40.0, 100.0), 30.0),
        }
        got = build_priority_list(sender, D_MAX, 2, GAMMA, now=25.0, staleness_s=STALE)
        assert got == [2]

    def test_id_tiebreak(self):
        sender = make_node(depth=100.0)
        sender.neighbor_knowledge = {
            7: (RoutingKnowledge(0.0, 50.0, 100.0), 0.0),
            3: (RoutingKnowledge(0.0, 50.0, 100.0), 0.0),
        }
        assert build_priority_list(sender, D_MAX, 2, GAMMA, now=0.0, staleness_s=STALE) == [3, 7]

    def test_argmax_invariance_under_constant_shift(self):
        sender = make_node(depth=120.0)
        base = {1: (-0.9, 30.0), 2: (-0.1, 90.0), 3: (-0.4, 60.0)}
        for shift in (0.0, -1.0, -5.0):
            sender.neighbor_knowledge = {
                nid: (RoutingKnowledge(v + shift, d, 100.0), 0.0)
                for nid, (v, d) in base.items()
            }
            got = build_priority_list(sender, D_MAX, 3, GAMMA, now=0.0, staleness_s=STALE)
            assert got == [2, 3, 1]

    def test_clamps_out_of_window_depths(self):
        # stale advertised depth beyond d_max must not raise
        sender = make_node(depth=280.0)
        sender.neighbor_knowledge = {1: (RoutingKnowledge(0.0, 10.0, 100.0), 0.0)}
        got = build_priority_list(sender, D_MAX, 1, GAMMA, now=0.0, staleness_s=STALE)
        assert got == [1]


def reference_priority_list(sender, d_max, list_length, gamma, now, staleness_s):
    """The ranking loop that allocated per neighbor: the advertised knowledge
    copied with its depth clamped, then the reward's three costs."""
    scored = []
    for nid, (kn, heard) in sender.neighbor_knowledge.items():
        if now - heard > staleness_s or not kn.depth_m < sender.depth:
            continue
        depth = min(max(kn.depth_m, sender.depth - d_max), sender.depth + d_max)
        kn = kn._replace(depth_m=depth)
        e_ini = sender.initial_energy_j
        r = (-qcore.energy_cost(sender.residual_energy_j, e_ini)
             - qcore.energy_cost(min(kn.residual_energy_j, e_ini), e_ini)
             - qcore.depth_cost(sender.depth, kn.depth_m, d_max))
        scored.append((-(r + gamma * kn.v_value), nid))
    scored.sort()
    return [nid for _, nid in scored[:list_length]]


def outcome(fn):
    """fn()'s result, or the type and message of the ValueError it raised."""
    try:
        return fn()
    except ValueError as exc:
        return type(exc), str(exc)


neighbor_tables = st.dictionaries(
    st.integers(1, 40),
    st.tuples(st.floats(-12.0, 0.0),     # V
              st.floats(-400.0, 700.0),  # depth, often beyond +-d_max
              st.floats(-5.0, 250.0),    # residual energy, above the budget too
              st.floats(0.0, 40.0)),     # last heard
    max_size=12)


class TestRankingReference:
    @settings(max_examples=200)
    @given(neighbor_tables, st.floats(0.0, 500.0), st.floats(0.0, 105.0), st.integers(1, 6),
           st.sampled_from([0.0, 0.8, 1.0]))
    def test_equals_sorting_on_score_and_the_allocating_loop(self, table, depth, e_res,
                                                              length, gamma):
        sender = make_node(depth=depth, region_z=500.0, e_res=e_res)
        knowledge = {nid: (RoutingKnowledge(v, d, e), heard)
                     for nid, (v, d, e, heard) in table.items()}
        now = 30.0
        sender.neighbor_knowledge = dict(knowledge)
        expected = outcome(lambda: reference_priority_list(
            sender, D_MAX, length, gamma, now, STALE))
        got = outcome(lambda: build_priority_list(sender, D_MAX, length, gamma, now, STALE))
        assert got == expected
        if isinstance(got, list):
            fresh = {nid: kn for nid, (kn, heard) in knowledge.items()
                     if now - heard <= STALE}
            assert sender.neighbor_knowledge == {nid: knowledge[nid] for nid in fresh}
            scores = {nid: score(sender, kn, gamma)
                      for nid, kn in fresh.items() if kn.depth_m < sender.depth}
            assert got == sorted(scores, key=lambda nid: (-scores[nid], nid))[:length]


    def test_range_checks_fire_only_when_a_neighbor_is_scored(self):
        # an over-budget sender is refused by the first reward it computes,
        # and a sender with no shallower fresh neighbor computes none
        sender = make_node(depth=100.0, e_res=101.0)
        sender.neighbor_knowledge = {1: (RoutingKnowledge(0.0, 150.0, 100.0), 0.0),
                                     2: (RoutingKnowledge(0.0, 50.0, 100.0), -30.0)}
        assert build_priority_list(sender, D_MAX, 2, GAMMA, now=0.0, staleness_s=STALE) == []
        sender.neighbor_knowledge[3] = (RoutingKnowledge(0.0, 50.0, 100.0), 0.0)
        with pytest.raises(ValueError, match="residual energy 101.0"):
            build_priority_list(sender, D_MAX, 2, GAMMA, now=0.0, staleness_s=STALE)
        sender.residual_energy_j = 100.0
        sender.neighbor_knowledge[3] = (RoutingKnowledge(0.0, 50.0, -1.0), 0.0)
        with pytest.raises(ValueError, match="residual energy -1.0"):
            build_priority_list(sender, D_MAX, 2, GAMMA, now=0.0, staleness_s=STALE)


class TestNeighborKnowledge:
    """The table is written by `QlfrProtocol.hear` and read, with stale
    entries evicted, by `build_priority_list`."""

    @staticmethod
    def hear(proto, node, sender_id, knowledge, now):
        proto.hear(node, PacketHeader(0, -1, knowledge, sender_id, is_hello=True), now)

    def test_fresh_entry_present(self):
        proto, node = protocol(), make_node(depth=200.0)
        self.hear(proto, node, 3, RoutingKnowledge(-0.5, 120.0, 80.0), now=10.0)
        assert build_priority_list(node, D_MAX, 2, GAMMA, now=12.0, staleness_s=20.0) == [3]
        assert node.neighbor_knowledge[3] == (RoutingKnowledge(-0.5, 120.0, 80.0), 10.0)

    def test_stale_entry_evicted(self):
        proto, node = protocol(), make_node(depth=200.0)
        self.hear(proto, node, 3, RoutingKnowledge(0.0, 120.0, 80.0), now=0.0)
        assert build_priority_list(node, D_MAX, 2, GAMMA, now=25.0, staleness_s=20.0) == []
        assert 3 not in node.neighbor_knowledge  # evicted by the walk

    def test_stale_entries_evicted_and_the_rest_keep_their_order(self):
        proto, node = protocol(), make_node(depth=200.0)
        for nid, heard in ((3, 0.0), (7, 10.0), (1, 10.0), (5, 0.0), (4, 10.0)):
            self.hear(proto, node, nid, RoutingKnowledge(0.0, 120.0, 80.0), now=heard)
        build_priority_list(node, D_MAX, 2, GAMMA, now=25.0, staleness_s=20.0)
        assert list(node.neighbor_knowledge) == [7, 1, 4]

    def test_overwrite_keeps_single_entry(self):
        proto, node = protocol(), make_node(depth=200.0)
        self.hear(proto, node, 3, RoutingKnowledge(0.0, 120.0, 80.0), now=0.0)
        self.hear(proto, node, 3, RoutingKnowledge(-1.0, 90.0, 70.0), now=5.0)
        assert len(node.neighbor_knowledge) == 1
        assert node.neighbor_knowledge[3] == (RoutingKnowledge(-1.0, 90.0, 70.0), 5.0)

    def test_rejects_self_knowledge(self):
        proto, node = protocol(), make_node(depth=200.0)
        with pytest.raises(ValueError):
            self.hear(proto, node, 0, RoutingKnowledge(0, 0, 0), now=0.0)
        assert not node.neighbor_knowledge


class TestOnReceive:
    def test_non_candidate_drops_but_learns(self):
        proto = protocol()
        node = make_node(node_id=5, depth=50.0)
        sender = make_node(node_id=1, depth=100.0)
        pkt = data_header(sender, plist=[8, 9])
        action = proto.on_receive(node, pkt, now=3.0)
        assert action == Drop("not-candidate")
        assert node.neighbor_knowledge[1][0].depth_m == 100.0

    def test_head_schedules_immediately(self):
        proto = protocol()
        node = make_node(node_id=5, depth=50.0)
        pkt = data_header(make_node(node_id=1, depth=100.0), plist=[5, 8])
        action = proto.on_receive(node, pkt, now=3.0)
        assert action == Schedule(0.0, 1)
        assert node.pending[pkt.key] is pkt

    def test_schedule_is_read_only(self):
        proto = protocol()
        node = make_node(node_id=5, depth=50.0)
        action = proto.on_receive(node, data_header(make_node(node_id=1, depth=100.0),
                                                    plist=[5]), now=3.0)
        assert isinstance(action, Schedule)
        with pytest.raises(AttributeError):
            action.tau = 1.0

    def test_second_priority_waits_k(self):
        proto = protocol(h=4)
        node = make_node(node_id=8, depth=50.0)
        pkt = data_header(make_node(node_id=1, depth=100.0), plist=[5, 8])
        action = proto.on_receive(node, pkt, now=3.0)
        assert action == Schedule(pytest.approx(0.05), 2)

    def test_already_forwarded_drops(self):
        proto = protocol()
        node = make_node(node_id=5, depth=50.0)
        remember(node.forwarded_cache, (9, 0))
        pkt = data_header(make_node(node_id=1, depth=100.0), plist=[5])
        assert proto.on_receive(node, pkt, now=3.0) == Drop("already-forwarded")

    def test_sink_delivers(self):
        proto = protocol()
        sink = make_node(node_id=4, depth=0.0, kind="sink")
        pkt = data_header(make_node(node_id=1, depth=100.0), plist=[4])
        assert proto.on_receive(sink, pkt, now=3.0) == Deliver()

    def test_hello_updates_table_only(self):
        # the engine hands an intact hello to `hear`; it schedules nothing
        node, sender = make_node(node_id=5, depth=50.0), make_node(node_id=2, depth=90.0)
        sim = Simulation(ScenarioConfig(region_z_m=300.0, energy_per_bit=1e25),
                         nodes=[node, sender])
        sim.now = 1.0
        sim._handle_hello_arrival(node.id, sim.protocol.hello_header(sender), True)
        assert node.neighbor_knowledge == {2: (RoutingKnowledge(0.0, 90.0, 100.0), 1.0)}
        assert not node.pending and not sim._queue

    def test_duplicate_while_scheduled_cancels(self):
        proto = protocol()
        node = make_node(node_id=5, depth=50.0)
        pkt = data_header(make_node(node_id=1, depth=100.0), plist=[5, 8])
        proto.on_receive(node, pkt, now=3.0)
        copy = data_header(make_node(node_id=8, depth=70.0), plist=[5])
        assert proto.on_receive(node, copy, now=3.02) == Drop("suppressed")
        assert pkt.key not in node.pending
        # a third copy is a plain duplicate now
        assert proto.on_receive(node, copy, now=3.05) == Drop("duplicate")


class TestOverhear:
    """A copy overheard while its packet is held cancels the hold, and the key
    enters the duplicate cache so that later copies are not rescheduled."""

    @staticmethod
    def held(proto, key):
        node = make_node(node_id=5, depth=50.0)
        pkt = data_header(make_node(node_id=1, depth=100.0), plist=[5], seq=key[1])
        assert pkt.key == key
        proto.on_receive(node, pkt, now=3.0)
        assert node.pending[key] is pkt
        return node, pkt

    def test_cancel_pending(self):
        proto = protocol()
        node, _ = self.held(proto, (9, 0))
        copy = data_header(make_node(node_id=8, depth=70.0), plist=[2], seq=0)
        assert proto.on_receive(node, copy, now=3.02) == Drop("suppressed")
        assert (9, 0) not in node.pending
        assert (9, 0) in node.duplicate_cache

    def test_keep_on_key_mismatch(self):
        proto = protocol()
        node, _ = self.held(proto, (9, 0))
        other = data_header(make_node(node_id=8, depth=70.0), plist=[2], seq=1)
        assert proto.on_receive(node, other, now=3.02) == Drop("not-candidate")
        assert (9, 0) in node.pending
        assert (9, 1) not in node.duplicate_cache

    def test_no_effect_after_expiry(self):
        proto = protocol()
        node, pkt = self.held(proto, (9, 0))
        node.neighbor_knowledge = {2: (RoutingKnowledge(0.0, 10.0, 100.0), 3.0)}
        assert proto.on_hold_expire(node, pkt, now=3.0)[0] == "send"
        copy = data_header(make_node(node_id=2, depth=10.0), plist=[1], seq=0)
        assert proto.on_receive(node, copy, now=3.1) == Drop("already-forwarded")
        assert (9, 0) not in node.duplicate_cache


class TestHoldExpire:
    def setup_relay(self):
        proto = protocol()
        relay = make_node(node_id=5, depth=100.0, e_res=80.0)
        relay.neighbor_knowledge = {
            2: (RoutingKnowledge(-0.2, 40.0, 90.0), 2.9),
            3: (RoutingKnowledge(-0.9, 60.0, 50.0), 2.9),
        }
        pkt = data_header(make_node(node_id=1, depth=180.0), plist=[5], seq=7)
        assert proto.on_receive(relay, pkt, now=3.0) == Schedule(0.0, 1)
        return proto, relay, pkt

    def test_header_rewritten_and_learning_fired(self):
        proto, relay, pkt = self.setup_relay()
        status, header = proto.on_hold_expire(relay, pkt, now=3.0)
        assert status == "send"
        assert header.sender_id == 5
        assert header.knowledge.depth_m == pytest.approx(100.0)
        assert header.knowledge.residual_energy_j == pytest.approx(80.0)
        assert header.source_id == 9 and header.seq == 7
        assert header.priority_list == (2, 3)
        # Q updated toward the first candidate's one-step target
        assert 2 in relay.q_table and relay.q_table[2] < 0.0
        assert header.knowledge.v_value == pytest.approx(relay.v_value)
        assert pkt.key in relay.forwarded_cache

    def test_second_expiry_is_stale(self):
        proto, relay, pkt = self.setup_relay()
        proto.on_hold_expire(relay, pkt, now=3.0)
        assert proto.on_hold_expire(relay, pkt, now=3.0) == ("stale", None)

    def test_void_drop(self):
        proto = protocol()
        relay = make_node(node_id=5, depth=100.0)
        pkt = data_header(make_node(node_id=1, depth=180.0), plist=[5])
        proto.on_receive(relay, pkt, now=3.0)
        relay.neighbor_knowledge.clear()
        assert proto.on_hold_expire(relay, pkt, now=3.0) == ("void", None)
        assert pkt.key not in relay.forwarded_cache
        assert pkt.key in relay.duplicate_cache

    def test_never_forwards_same_key_twice(self):
        proto, relay, pkt = self.setup_relay()
        proto.on_hold_expire(relay, pkt, now=3.0)
        # the same packet arriving again is refused outright
        again = data_header(make_node(node_id=2, depth=160.0), plist=[5], seq=7)
        assert proto.on_receive(relay, again, now=3.5) == Drop("already-forwarded")


class TestSuppressionAdjust:
    """`QlfrProtocol.review` steps the sinks' list length by one against the
    delivery-ratio threshold of the window since the last review."""

    @staticmethod
    def reviewed(delivered, generated, **kwargs):
        """The review of `delivered` of `generated` packets, and the protocol."""
        proto = protocol(**kwargs)
        sink = make_node(node_id=20, depth=0.0, kind="sink")
        pkt = data_header(make_node(node_id=1, depth=100.0), plist=[20], seq=generated - 1)
        assert proto.on_receive(sink, pkt, now=1.0) == Deliver()
        return proto.review(delivered), proto

    def test_shrinks_above_threshold(self):
        change, proto = self.reviewed(95, 100, length=3, threshold=0.9)
        assert change == (2, 0.95)
        assert proto.list_length == 2

    def test_grows_below_threshold(self):
        change, proto = self.reviewed(80, 100, length=2, threshold=0.9)
        assert change == (3, 0.8)
        assert proto.list_length == 3

    def test_boundary_leaves_unchanged(self):
        change, proto = self.reviewed(90, 100, length=2, threshold=0.9)
        assert change is None
        assert proto.list_length == 2

    def test_floor_and_cap(self):
        change, proto = self.reviewed(100, 100, length=1, threshold=0.5, max_list=4)
        assert change is None and proto.list_length == 1
        change, proto = self.reviewed(0, 100, length=4, threshold=0.5, max_list=4)
        assert change is None and proto.list_length == 4

    def test_rejects_zero_total(self):
        # no packet generated since the last review: no ratio, no step
        proto = protocol(length=3)
        assert proto.review(delivered=1) is None
        assert proto.list_length == 3


def review_at(proto, seq, delivered):
    """Let a sink see `seq`, then review `delivered` unique deliveries."""
    sink = make_node(node_id=20, depth=0.0, kind="sink")
    pkt = data_header(make_node(node_id=1, depth=100.0), plist=[20], seq=seq)
    assert proto.on_receive(sink, pkt, now=1.0) == Deliver()
    return proto.review(delivered)


class TestDirective:
    """A listed relay adds the step of the review whose epoch a copy carries,
    once per epoch."""

    def test_directive_applied_once_per_epoch(self):
        proto = protocol()
        assert review_at(proto, seq=9, delivered=5) == (3, 0.5)  # epoch 1, step +1
        node = make_node(node_id=5, depth=50.0)
        node.list_length = 2
        pkt = data_header(make_node(node_id=1, depth=100.0), plist=[5], epoch=1)
        proto.on_receive(node, pkt, now=1.0)
        assert node.list_length == 3
        other = data_header(make_node(node_id=2, depth=90.0), plist=[5], seq=1, epoch=1)
        proto.on_receive(node, other, now=1.1)
        assert node.list_length == 3  # same epoch, no re-application

    def test_directive_rides_forwarded_header(self):
        proto = protocol()
        assert review_at(proto, seq=9, delivered=5) == (3, 0.5)  # epoch 1, step +1
        assert review_at(proto, seq=19, delivered=15) == (2, 1.0)  # epoch 2, step -1
        relay = make_node(node_id=5, depth=100.0)
        relay.list_length = 2
        relay.neighbor_knowledge = {2: (RoutingKnowledge(0.0, 40.0, 100.0), 0.9)}
        pkt = data_header(make_node(node_id=1, depth=180.0), plist=[5], epoch=2)
        proto.on_receive(relay, pkt, now=1.0)
        assert relay.list_length == 1  # only epoch 2's step
        status, header = proto.on_hold_expire(relay, pkt, now=1.0)
        assert status == "send"
        assert header.suppression_epoch == 2

    def test_older_epoch_adds_its_own_step(self):
        # a copy sent before the newest review still announces its own one
        proto = protocol()
        assert review_at(proto, seq=9, delivered=5) == (3, 0.5)  # epoch 1, step +1
        assert review_at(proto, seq=19, delivered=15) == (2, 1.0)  # epoch 2, step -1
        node = make_node(node_id=5, depth=50.0)
        node.list_length = 2
        proto.on_receive(node, data_header(make_node(node_id=1, depth=100.0), plist=[5],
                                           epoch=1), now=1.0)
        assert (node.list_length, node.suppression_epoch) == (3, 1)
        proto.on_receive(node, data_header(make_node(node_id=1, depth=100.0), plist=[5],
                                           seq=1, epoch=2), now=1.1)
        assert (node.list_length, node.suppression_epoch) == (2, 2)


class TestReview:
    """The list-length review driven directly: sinks count each source's
    generated packets from the seqs they receive, and a changing review hands
    every source a directive that its next header carries once."""

    @staticmethod
    def source(node_id):
        node = make_node(node_id=node_id, depth=200.0, kind="source")
        node.neighbor_knowledge = {2: (RoutingKnowledge(0.0, 40.0, 100.0), 0.0)}
        return node

    @staticmethod
    def sink_receives(proto, seq, sink_id=20):
        sink = make_node(node_id=sink_id, depth=0.0, kind="sink")
        pkt = data_header(make_node(node_id=1, depth=100.0), plist=[sink_id], seq=seq)
        assert proto.on_receive(sink, pkt, now=1.0) == Deliver()

    def test_empty_window_returns_none_and_does_not_advance(self):
        proto = protocol()
        assert proto.review(delivered=0) is None
        assert proto.list_length == 2
        self.sink_receives(proto, seq=9)
        assert proto.review(delivered=6) == (3, 0.6)  # 6 of 10
        # a late copy of an older seq adds a delivery but no generated packet
        assert proto.review(delivered=7) is None
        self.sink_receives(proto, seq=19)
        # the window runs from the last review that saw packets: 10 of 10
        assert proto.review(delivered=16) == (2, 1.0)

    def test_changing_review_reaches_each_source_once(self):
        proto = protocol()
        a, b = self.source(7), self.source(8)
        assert proto.originate(a, 0, now=1.0).suppression_epoch == 0
        self.sink_receives(proto, seq=9)
        assert proto.review(delivered=5) == (3, 0.5)
        assert proto.originate(a, 1, now=2.0).suppression_epoch == 1
        assert a.list_length == 3
        assert proto.originate(a, 2, now=3.0).suppression_epoch == 0
        assert a.list_length == 3
        assert proto.originate(b, 0, now=3.0).suppression_epoch == 1
        assert b.list_length == 3
        assert proto.originate(b, 1, now=4.0).suppression_epoch == 0

    def test_newer_review_replaces_an_unsent_directive(self):
        proto = protocol()
        a = self.source(7)
        self.sink_receives(proto, seq=9)
        assert proto.review(delivered=5) == (3, 0.5)
        self.sink_receives(proto, seq=19)
        assert proto.review(delivered=15) == (2, 1.0)  # 10 of 10
        assert proto.originate(a, 0, now=1.0).suppression_epoch == 2
        assert a.list_length == 1  # only the newer step applied
        assert proto.originate(a, 1, now=2.0).suppression_epoch == 0

    def test_copies_at_two_sinks_count_one_generation(self):
        proto = protocol()
        self.sink_receives(proto, seq=9, sink_id=20)
        self.sink_receives(proto, seq=9, sink_id=21)
        self.sink_receives(proto, seq=3, sink_id=21)  # older seqs add nothing
        assert proto.review(delivered=10) == (1, 1.0)
