"""Node deployment, random-walk mobility, geometry queries, the
`RoutingKnowledge` tuple that nodes advertise, `remember`, which keeps a
node's packet-key caches (plain dicts) bounded, and `projected_lifetime_s`,
the one lifetime projection of the engine and the analysis. A node's
neighbor-knowledge table is read and written only by `qlfr`.

`pairs_in_range` is the one neighbour sweep, for the engine's link tables
and the analysis: it lists every pair of points within range once, so the
engine computes each link of a mobility epoch once for both ends.
`neighbors_in_range` is the brute-force scan it is checked against.

Coordinates: z is height above the sea floor, so depth = region_z - z.
Sinks sit on the surface (z = region_z, depth 0) and never move; sources are
sensor nodes that start on the bottom layer (z = 0). A `NodePosition` is a
value: the engine replaces a node's position whole at each mobility tick and
never assigns one of its fields. `NodePosition` and `NodeState` are slotted,
so they carry no instance dict.
"""

import math
import random
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple


@dataclass(slots=True)
class NodePosition:
    x: float
    y: float
    z: float


class RoutingKnowledge(NamedTuple):
    """The advertised tuple <V-value, depth, residual energy>; immutable."""

    v_value: float
    depth_m: float
    residual_energy_j: float


CACHE_KEYS = 1024  # the most keys a packet-key cache keeps


def remember(cache: dict, key) -> None:
    """Add `key` as the newest key of `cache`, evicting the oldest past `CACHE_KEYS`."""
    cache.pop(key, None)
    cache[key] = None
    if len(cache) > CACHE_KEYS:
        del cache[next(iter(cache))]


@dataclass(slots=True)
class NodeState:
    """A sensor, source or sink node and everything the protocol knows at it."""

    id: int
    kind: str  # "sensor" | "source" | "sink"
    is_sink: bool = field(init=False)  # kind == "sink", set at construction
    position: NodePosition
    region_z: float
    initial_energy_j: float
    residual_energy_j: float = field(default=-1.0)
    v_value: float = 0.0
    q_table: dict = field(default_factory=dict)  # neighbor id -> Q
    neighbor_knowledge: dict = field(default_factory=dict)  # id -> (RoutingKnowledge, last_heard)
    duplicate_cache: dict = field(default_factory=dict)  # keys of held copies given up
    forwarded_cache: dict = field(default_factory=dict)  # keys of copies sent
    list_length: int = 2  # current priority-list length (suppression state)
    suppression_epoch: int = 0  # newest list-length directive applied
    pending: dict = field(default_factory=dict)  # packet key -> the held copy, naming its hold
    # energy ledger, owned by the engine
    alive: bool = True
    death_time_s: float | None = None
    tx_seconds: float = 0.0
    rx_seconds: float = 0.0
    consumed_j: float = 0.0

    def __post_init__(self):
        self.is_sink = self.kind == "sink"
        if self.residual_energy_j < 0:
            self.residual_energy_j = self.initial_energy_j

    @property
    def depth(self) -> float:
        return self.region_z - self.position.z


def projected_lifetime_s(initial_j: float, run_time_s: float, consumed_j: float) -> float:
    """Seconds until a node that consumed `consumed_j` of its `initial_j` in
    `run_time_s` runs dry at that average rate; inf if it consumed nothing."""
    return initial_j * run_time_s / consumed_j if consumed_j > 0 else math.inf


def deploy(config, rng: random.Random) -> list[NodeState]:
    """Place n_sensors sensors uniformly in the region box (the first
    n_sources of them as sources on the bottom layer) and n_sinks sinks on
    the surface. Deterministic for a given rng state. `config` is a
    `ScenarioConfig`, valid by construction. Each coordinate is one draw,
    `l * rng.random()`, which is bit for bit `rng.uniform(0, l)`.
    """
    lx, ly, lz = config.region_x_m, config.region_y_m, config.region_z_m
    draw, nodes = rng.random, []
    for i in range(config.n_sensors):
        if i < config.n_sources:
            pos = NodePosition(lx * draw(), ly * draw(), 0.0)
            kind = "source"
        else:
            pos = NodePosition(lx * draw(), ly * draw(), lz * draw())
            kind = "sensor"
        nodes.append(NodeState(i, kind, pos, lz, config.initial_node_energy_j,
                               list_length=config.initial_list_length))
    for j in range(config.n_sinks):
        pos = NodePosition(lx * draw(), ly * draw(), lz)
        nodes.append(NodeState(config.n_sensors + j, "sink", pos, lz,
                               config.initial_node_energy_j,
                               list_length=config.initial_list_length))
    return nodes


def _reflect(coord: float, limit: float) -> float:
    # specular reflection into [0, limit]. Folding repeats with period
    # 2 * limit and is symmetric about 0, so an overshoot of more than one
    # width is first reduced modulo the period; one fold then lands inside.
    if coord < -limit or coord > 2.0 * limit:
        coord = abs(math.fmod(coord, 2.0 * limit))
    if coord < 0.0:
        return -coord
    if coord > limit:
        return 2.0 * limit - coord
    return coord


def random_direction(rng: random.Random) -> tuple[float, float, float]:
    """Uniform direction on the unit sphere."""
    while True:
        dx, dy, dz = rng.gauss(0, 1), rng.gauss(0, 1), rng.gauss(0, 1)
        norm = math.sqrt(dx * dx + dy * dy + dz * dz)
        if norm > 1e-12:
            return (dx / norm, dy / norm, dz / norm)


def random_walk_step(node: NodeState, speed_v: float, dt: float,
                     rng: random.Random, region: tuple[float, float, float]) -> NodePosition:
    """Move `node` a distance speed_v * dt in a freshly drawn random
    direction, reflecting at the region walls. Does not mutate the node.
    """
    if dt <= 0:
        raise ValueError(f"dt must be > 0, got {dt}")
    if speed_v == 0.0:
        return node.position
    ux, uy, uz = random_direction(rng)
    step = speed_v * dt
    return NodePosition(
        _reflect(node.position.x + ux * step, region[0]),
        _reflect(node.position.y + uy * step, region[1]),
        _reflect(node.position.z + uz * step, region[2]),
    )


def neighbors_in_range(node: NodeState, all_nodes: Iterable[NodeState], r: float) -> list[int]:
    """Ids of all nodes within Euclidean distance r of `node`, excluding it."""
    if r <= 0:
        raise ValueError(f"range must be > 0, got {r}")
    px, py, pz = node.position.x, node.position.y, node.position.z
    r2 = r * r
    out = []
    for other in all_nodes:
        if other.id == node.id:
            continue
        dx = other.position.x - px
        dy = other.position.y - py
        dz = other.position.z - pz
        if dx * dx + dy * dy + dz * dz <= r2:
            out.append(other.id)
    return out


# the 13 of the 26 neighbouring cell offsets that sort after (0, 0, 0): every
# pair of adjacent cells is visited once, from the cell that sorts first
_FORWARD = tuple((i, j, k) for i in (-1, 0, 1) for j in (-1, 0, 1) for k in (-1, 0, 1)
                 if (i, j, k) > (0, 0, 0))


def pairs_in_range(points: Iterable[tuple[int, float, float, float]], r: float) -> list:
    """(a, b, squared distance) once for every unordered pair of points
    (id, x, y, z) within r > 0, in no fixed order. Points sit in cubic cells
    a hair wider than r, so rounding at a cell edge cannot put a pair within
    r more than one cell apart; each point is tested against the later
    points of its cell and every point of the 13 cells ahead of it. The
    squared distance is summed from b - a per axis; IEEE subtraction is
    antisymmetric, so it equals bit for bit the value computed from b's end."""
    if r <= 0:
        raise ValueError(f"range must be > 0, got {r}")
    r2, cell, cells, out = r * r, r * (1.0 + 1e-9), {}, []
    for pid, x, y, z in points:
        key = (math.floor(x / cell), math.floor(y / cell), math.floor(z / cell))
        cells.setdefault(key, []).append((x, y, z, pid))
    for (ci, cj, ck), here in cells.items():
        ahead = []
        for di, dj, dk in _FORWARD:
            there = cells.get((ci + di, cj + dj, ck + dk))
            if there is not None:
                ahead += there
        for n, (xa, ya, za, a) in enumerate(here, 1):
            for xb, yb, zb, b in here[n:] + ahead:
                dx, dy, dz = xb - xa, yb - ya, zb - za
                d2 = dx * dx + dy * dy + dz * dz
                if d2 <= r2:
                    out.append((a, b, d2))
    return out
