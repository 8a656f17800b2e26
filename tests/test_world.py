"""Deployment, node kinds, mobility, geometry and key-cache tests."""

import math
import random

import pytest

from uwroute import world
from uwroute.config import ScenarioConfig
from uwroute.world import (NodePosition, NodeState, deploy, neighbors_in_range, pairs_in_range,
                           random_walk_step, remember)


def config(**kw):
    base = dict(region_x_m=500.0, region_y_m=500.0, region_z_m=500.0,
                n_sensors=100, n_sources=5, n_sinks=5)
    base.update(kw)
    return ScenarioConfig(**base)


class TestDeploy:
    def test_table_defaults_counts(self):
        nodes = deploy(config(), random.Random(1))
        assert len(nodes) == 105
        assert sum(1 for n in nodes if n.kind == "sink") == 5
        assert sum(1 for n in nodes if n.kind == "source") == 5

    def test_sources_bottom_sinks_surface(self):
        nodes = deploy(config(), random.Random(1))
        for n in nodes:
            assert 0.0 <= n.position.x <= 500.0
            assert 0.0 <= n.position.y <= 500.0
            assert 0.0 <= n.position.z <= 500.0
            if n.kind == "source":
                assert n.position.z == 0.0 and n.depth == 500.0
            if n.kind == "sink":
                assert n.position.z == 500.0 and n.depth == 0.0

    def test_minimal_topology(self):
        nodes = deploy(config(n_sensors=1, n_sources=1, n_sinks=1), random.Random(9))
        assert len(nodes) == 2
        assert nodes[0].kind == "source" and nodes[0].depth == 500.0
        assert nodes[1].kind == "sink" and nodes[1].depth == 0.0

    def test_determinism(self):
        a = deploy(config(), random.Random(42))
        b = deploy(config(), random.Random(42))
        assert [(n.id, n.position) for n in a] == [(n.id, n.position) for n in b]

    @pytest.mark.parametrize("seed", [1, 2, 7, 12345])
    @pytest.mark.parametrize("sides, counts", [
        ((500.0, 500.0, 500.0), (100, 5, 5)),
        ((300, 250, 7), (40, 3, 2)),  # integer sides
        ((1.0, 1234.5, 3.3), (9, 9, 1)),  # every sensor a source
        ((2000.0, 2000.0, 2000.0), (1, 1, 1)),
    ])
    def test_positions_equal_uniform_draws(self, seed, sides, counts):
        # each coordinate is one draw, bit for bit rng.uniform(0, side)
        (lx, ly, lz), (n_sensors, n_sources, n_sinks) = sides, counts
        cfg = config(region_x_m=lx, region_y_m=ly, region_z_m=lz,
                     n_sensors=n_sensors, n_sources=n_sources, n_sinks=n_sinks)
        rng = random.Random(seed)
        expected = []
        for i in range(n_sensors):
            x, y = rng.uniform(0, lx), rng.uniform(0, ly)
            expected.append(NodePosition(x, y, 0.0 if i < n_sources else rng.uniform(0, lz)))
        for _ in range(n_sinks):
            expected.append(NodePosition(rng.uniform(0, lx), rng.uniform(0, ly), lz))
        got_rng = random.Random(seed)
        assert [n.position for n in deploy(cfg, got_rng)] == expected
        assert got_rng.getstate() == rng.getstate()

    def test_zero_volume_rejected(self):
        with pytest.raises(Exception):
            deploy(config(region_z_m=0.0), random.Random(1))

    def test_unique_ids(self):
        nodes = deploy(config(), random.Random(3))
        assert len({n.id for n in nodes}) == len(nodes)

    def test_is_sink_only_for_sink_kind(self):
        for kind in ("sensor", "source", "sink"):
            node = NodeState(0, kind, NodePosition(0, 0, 0), 300.0, 100.0)
            assert node.is_sink == (kind == "sink")
        nodes = deploy(config(), random.Random(1))
        assert all(n.is_sink == (n.kind == "sink") for n in nodes)
        assert sum(n.is_sink for n in nodes) == 5


class TestRandomWalk:
    REGION = (500.0, 500.0, 500.0)

    def make_node(self, x, y, z):
        return NodeState(0, "sensor", NodePosition(x, y, z), 500.0, 100.0)

    def test_zero_speed(self):
        node = self.make_node(100, 100, 100)
        assert random_walk_step(node, 0.0, 1.0, random.Random(1), self.REGION) == node.position

    def test_displacement_magnitude(self):
        # v = 3 m/s for 1 s moves exactly 3 m when no wall is hit
        node = self.make_node(250, 250, 250)
        for seed in range(30):
            new = random_walk_step(node, 3.0, 1.0, random.Random(seed), self.REGION)
            start = (node.position.x, node.position.y, node.position.z)
            assert math.dist(start, (new.x, new.y, new.z)) == pytest.approx(3.0, rel=1e-9)

    def test_reflection_oracle(self):
        # recompute the drawn direction and fold the raw step independently
        def fold(c, limit):
            while c < 0 or c > limit:
                c = -c if c < 0 else 2 * limit - c
            return c

        node = self.make_node(2.0, 499.0, 1.0)
        for seed in range(200):
            rng = random.Random(seed)
            preview = random.Random()
            preview.setstate(rng.getstate())
            ux, uy, uz = world.random_direction(preview)
            new = random_walk_step(node, 5.0, 2.0, rng, self.REGION)
            assert new.x == pytest.approx(fold(2.0 + 10.0 * ux, 500.0), abs=1e-9)
            assert new.y == pytest.approx(fold(499.0 + 10.0 * uy, 500.0), abs=1e-9)
            assert new.z == pytest.approx(fold(1.0 + 10.0 * uz, 500.0), abs=1e-9)
            assert 0.0 <= new.x <= 500.0 and 0.0 <= new.y <= 500.0 and 0.0 <= new.z <= 500.0

    def test_large_overshoot_folds_by_the_period(self):
        # a fold repeats every 2 * limit and is symmetric about 0; values
        # chosen so that fmod is exact
        assert world._reflect(1e6 + 123.0, 500.0) == 123.0
        assert world._reflect(-1e6 - 123.0, 500.0) == 123.0
        assert world._reflect(1e6 + 700.0, 500.0) == 300.0
        assert world._reflect(-1e6 - 700.0, 500.0) == 300.0
        assert 0.0 <= world._reflect(1e16 + 0.25, 300.0) <= 300.0

    def test_rejects_bad_dt(self):
        with pytest.raises(ValueError):
            random_walk_step(self.make_node(1, 1, 1), 3.0, 0.0, random.Random(1), self.REGION)


class TestNeighbors:
    def test_brute_force_oracle(self):
        rng = random.Random(17)
        nodes = [NodeState(i, "sensor",
                           NodePosition(rng.uniform(0, 400), rng.uniform(0, 400),
                                        rng.uniform(0, 400)), 400.0, 100.0)
                 for i in range(50)]
        for node in nodes:
            got = neighbors_in_range(node, nodes, 150.0)
            expected = [o.id for o in nodes if o.id != node.id
                        and math.dist((node.position.x, node.position.y, node.position.z),
                                      (o.position.x, o.position.y, o.position.z)) <= 150.0]
            assert sorted(got) == sorted(expected)

    def test_symmetry(self):
        rng = random.Random(5)
        nodes = [NodeState(i, "sensor",
                           NodePosition(rng.uniform(0, 300), rng.uniform(0, 300),
                                        rng.uniform(0, 300)), 300.0, 100.0)
                 for i in range(30)]
        table = {n.id: set(neighbors_in_range(n, nodes, 150.0)) for n in nodes}
        for a in nodes:
            for b_id in table[a.id]:
                assert a.id in table[b_id]

    def test_strict_range_cut(self):
        a = NodeState(0, "sensor", NodePosition(0, 0, 0), 300.0, 100.0)
        b = NodeState(1, "sensor", NodePosition(151.0, 0, 0), 300.0, 100.0)
        c = NodeState(2, "sensor", NodePosition(150.0, 0, 0), 300.0, 100.0)
        assert neighbors_in_range(a, [a, b, c], 150.0) == [2]

    def test_excludes_self(self):
        a = NodeState(0, "sensor", NodePosition(0, 0, 0), 300.0, 100.0)
        assert neighbors_in_range(a, [a], 150.0) == []


class TestPairsInRange:
    @staticmethod
    def pair_map(pairs):
        """{(lower id, higher id): squared distance} of `pairs`, checking
        that no pair is listed twice."""
        found = {}
        for a, b, d2 in pairs:
            key = (min(a, b), max(a, b))
            assert a != b and key not in found
            found[key] = d2
        return found

    def test_matches_brute_force(self):
        rng = random.Random(23)
        nodes = [NodeState(i, "sensor",
                           NodePosition(rng.uniform(-100, 500), rng.uniform(0, 400),
                                        rng.uniform(0, 400)), 400.0, 100.0)
                 for i in range(80)]
        nodes.reverse()  # insertion order must not matter
        by_id = {n.id: n.position for n in nodes}
        for r in (40.0, 150.0, 1000.0):
            found = self.pair_map(pairs_in_range(
                ((n.id, n.position.x, n.position.y, n.position.z) for n in nodes), r))
            assert set(found) == {(n.id, j) for n in nodes
                                  for j in neighbors_in_range(n, nodes, r) if n.id < j}
            for (a, b), d2 in found.items():
                # equal to the squared distance summed from either end
                for p, o in ((by_id[a], by_id[b]), (by_id[b], by_id[a])):
                    dx, dy, dz = o.x - p.x, o.y - p.y, o.z - p.z
                    assert d2 == dx * dx + dy * dy + dz * dz

    def test_exact_range_kept_across_cell_edges(self):
        # the cell side is a hair wider than r = 150, so 150.0 and 300.0 fall
        # in cells 0 and 1, and -75.0 / 75.0 in cells -1 and 0, on each axis
        coords = [0.0, 150.0, 300.0, -75.0, 75.0, 225.0]
        for axis in range(3):
            def point(pid, coord):
                xyz = [0.0, 0.0, 0.0]
                xyz[axis] = coord
                return (pid, *xyz)

            points = [point(i, c) for i, c in enumerate(coords)]
            found = self.pair_map(pairs_in_range(points, 150.0))
            assert sorted(found) == [(0, 1), (0, 3), (0, 4), (1, 2), (1, 4), (1, 5),
                                     (2, 5), (3, 4), (4, 5)]
            assert found[0, 1] == found[1, 2] == found[3, 4] == 150.0 * 150.0
            assert pairs_in_range([point(0, 0.0), point(1, 150.0 + 1e-9)], 150.0) == []

    @pytest.mark.parametrize("a, b, listed", [
        ((120.0, 110.0, 100.0), (160.0, 170.0, 220.0), (0, 1)),  # cell (0, 0, 0) -> (1, 1, 1)
        ((120.0, 110.0, 100.0), (80.0, 170.0, 220.0), (0, 1)),  # cell (0, 0, 0) -> (0, 1, 1)
        ((150.0, 110.0, 100.0), (110.0, 170.0, 220.0), (1, 0)),  # visited from b's (0, 1, 1)
    ], ids=["three-edges", "two-edges", "from-b"])
    def test_exact_range_kept_on_a_diagonal(self, a, b, listed):
        # offsets of 40, 60 and 120 m: d2 = 19 600 = 140 * 140 exactly
        assert pairs_in_range([(0, *a), (1, *b)], 140.0) == [(*listed, 140.0 ** 2)]
        bx, by, bz = b
        assert pairs_in_range([(0, *a), (1, bx, by, bz + 1e-7)], 140.0) == []

    def test_rejects_nonpositive_range(self):
        with pytest.raises(ValueError):
            pairs_in_range([], 0.0)


class TestRemember:
    def test_lru_eviction(self):
        cache = {}
        for item in range(1024):
            remember(cache, item)
        assert list(cache) == list(range(1024))  # full, nothing evicted
        remember(cache, 0)  # refresh 0
        remember(cache, 1024)  # evicts 1, now the oldest
        assert 0 in cache and 2 in cache and 1024 in cache
        assert 1 not in cache
        assert len(cache) == 1024
        assert list(cache)[-2:] == [0, 1024]
