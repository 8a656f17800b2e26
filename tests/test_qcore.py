"""Q-learning arithmetic: closed-form values and algebraic invariants."""

import pytest
from hypothesis import given, strategies as st

from uwroute import qcore
from uwroute.world import NodePosition, NodeState


def make_sender(depth=100.0, e_res=100.0, e_ini=100.0, region_z=200.0):
    node = NodeState(0, "sensor", NodePosition(0.0, 0.0, region_z - depth),
                     region_z, e_ini)
    node.residual_energy_j = e_res
    return node


class TestEnergyCost:
    def test_full_battery(self):
        assert qcore.energy_cost(100.0, 100.0) == 0.0

    def test_empty_battery(self):
        assert qcore.energy_cost(0.0, 100.0) == 1.0

    def test_linear_midpoint(self):
        assert qcore.energy_cost(50.0, 100.0) == pytest.approx(0.5)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            qcore.energy_cost(101.0, 100.0)
        with pytest.raises(ValueError):
            qcore.energy_cost(-1.0, 100.0)
        with pytest.raises(ValueError):
            qcore.energy_cost(1.0, 0.0)


class TestDepthCost:
    def test_maximal_upward_progress(self):
        assert qcore.depth_cost(150.0, 0.0, 150.0) == 0.0

    def test_same_depth(self):
        assert qcore.depth_cost(80.0, 80.0, 150.0) == pytest.approx(0.5)

    def test_maximal_downward(self):
        assert qcore.depth_cost(0.0, 150.0, 150.0) == pytest.approx(1.0)

    def test_domain_error(self):
        assert qcore.depth_cost(200.0, 0.0, 150.0) == 0.0  # clamped to the window's edge
        with pytest.raises(ValueError):
            qcore.depth_cost(0.0, 0.0, 0.0)

    @given(st.floats(-150, 150))
    def test_range(self, d):
        assert 0.0 <= qcore.depth_cost(d, 0.0, 150.0) <= 1.0


class TestReward:
    def test_all_costs_zero(self):
        sender = make_sender(depth=150.0)
        # full energy, d_max shallower
        assert qcore.reward(sender, 100.0, 0.0, 150.0) == pytest.approx(0.0)

    def test_all_costs_one(self):
        sender = make_sender(depth=0.0, e_res=0.0)
        assert qcore.reward(sender, 0.0, 150.0, 150.0) == pytest.approx(-3.0)

    def test_half_energy_same_depth(self):
        sender = make_sender(depth=80.0, e_res=50.0)
        assert qcore.reward(sender, 100.0, 80.0, 150.0) == pytest.approx(-1.0)

    def test_out_of_window_depth_scores_as_the_window_edge(self):
        # the sender's window is 150 +- 100 m; advertised depths drift beyond it
        sender = make_sender(depth=150.0)

        def reward(depth_m):
            return qcore.reward(sender, 100.0, depth_m, 100.0)

        assert reward(10.0) == reward(50.0)
        assert reward(300.0) == reward(250.0)
        assert qcore.depth_cost(150.0, 10.0, 100.0) == 0.0

    def test_window_edge_is_exact_where_depth_minus_d_max_rounds(self):
        # 976.1 - 137.3 rounds, so clamping the neighbour's depth to it would
        # leave a difference one ulp past d_max
        sender = make_sender(depth=976.1, region_z=2000.0)
        assert sender.depth == 976.1
        assert qcore.reward(sender, 100.0, 0.0, 137.3) == 0.0

    @given(st.floats(1, 10000), st.floats(0, 10000), st.floats(0, 10000),
           st.floats(0, 100), st.floats(0, 200))
    def test_every_declared_range_and_depth_scores_in_the_window(self, d_max, depth_s,
                                                                 depth_n, e_s, e_n):
        # d_max is world.tx_range_m, declared in [1, 10000]
        sender = make_sender(depth=depth_s, e_res=e_s, region_z=10000.0)
        r = qcore.reward(sender, e_n, depth_n, d_max)
        assert -3.0 <= r <= 0.0
        d = sender.depth - depth_n
        if d >= d_max:
            assert qcore.depth_cost(sender.depth, depth_n, d_max) == 0.0
        elif d <= -d_max:
            assert qcore.depth_cost(sender.depth, depth_n, d_max) == 1.0

    @given(st.floats(0, 100), st.floats(0, 100), st.floats(-150, 150))
    def test_always_nonpositive_in_range(self, e_s, e_n, d):
        sender = make_sender(depth=150.0, e_res=e_s)
        r = qcore.reward(sender, e_n, 150.0 - d, 150.0)
        assert -3.0 <= r <= 0.0


class TestQUpdate:
    def test_degenerate_update(self):
        assert qcore.q_update(5.0, -1.0, 99.0, gamma=0.0, alpha=1.0) == -1.0

    def test_hand_evaluation(self):
        got = qcore.q_update(-2.0, -1.0, -1.0, gamma=0.8, alpha=0.5)
        assert got == pytest.approx(-1.9)

    @given(st.floats(-10, 0), st.floats(-3, 0), st.floats(-10, 0),
           st.floats(0.01, 1.0), st.floats(0, 1))
    def test_fixed_point(self, q, r, v, alpha, gamma):
        fixed = r + gamma * v
        assert qcore.q_update(fixed, r, v, gamma, alpha) == pytest.approx(fixed, abs=1e-9)

    @given(st.floats(-10, 0), st.floats(-10, 0), st.floats(-3, 0), st.floats(-10, 0))
    def test_monotone_in_each_argument(self, q1, q2, r, v):
        def update(q, r, v):
            return qcore.q_update(q, r, v, gamma=0.8, alpha=0.5)
        lo, hi = sorted((q1, q2))
        assert update(lo, r, v) <= update(hi, r, v)
        assert update(lo, r, v) <= update(lo, r + 0.5, v)
        assert update(lo, r, v) <= update(lo, r, v + 0.5)

    @given(st.lists(st.tuples(st.floats(-3, 0), st.floats(-15, 0)), min_size=1, max_size=50))
    def test_bound_preservation(self, steps):
        # rewards in [-3, 0] keep Q inside [-3/(1-gamma), 0]
        lo, hi = qcore.q_bounds(0.8)
        q = 0.0
        for r, v in steps:
            q = qcore.q_update(q, r, max(v, lo), gamma=0.8, alpha=0.5)
            assert lo - 1e-9 <= q <= hi + 1e-9


class TestVValue:
    def test_max_of_entries(self):
        assert qcore.v_value({1: -1.0, 2: -2.0}) == -1.0

    def test_empty_table(self):
        assert qcore.v_value({}) == 0.0

    def test_singleton(self):
        assert qcore.v_value({7: -0.3}) == -0.3

    @given(st.dictionaries(st.integers(0, 20), st.floats(-15, 0), min_size=1))
    def test_dominates_entries(self, table):
        v = qcore.v_value(table)
        assert all(v >= q for q in table.values())


class TestParams:
    def test_bounds(self):
        lo, hi = qcore.q_bounds(0.8)
        assert lo == pytest.approx(-15.0)
        assert hi == 0.0
