"""Q-learning arithmetic for routing decisions.

Reward = -(energy cost of sender) - (energy cost of neighbor) - (depth cost),
each cost in [0, 1], so a single-step reward lies in [-3, 0]. Q-values are
updated with the standard one-step rule and therefore stay within
[-3 / (1 - gamma), 0] for gamma < 1. The discount gamma in [0, 1] and the
learning rate alpha in (0, 1] are `protocol.gamma` and `protocol.alpha`,
which `ScenarioConfig` validates; the functions here take them as numbers.
"""

from typing import Mapping


def energy_cost(e_res: float, e_ini: float) -> float:
    """Residual-energy cost 1 - e_res/e_ini: 0 at full charge, 1 at empty."""
    if e_ini <= 0:
        raise ValueError(f"initial energy must be > 0, got {e_ini}")
    if not 0.0 <= e_res <= e_ini:
        raise ValueError(f"residual energy {e_res} outside [0, {e_ini}]")
    return 1.0 - e_res / e_ini


def depth_cost(depth_sender: float, depth_neighbor: float, d_max: float) -> float:
    """Depth cost 0.5 * (1 - d/d_max) with d = depth_sender - depth_neighbor
    clamped into the one-hop window [-d_max, d_max].

    0 when the neighbor is d_max or more shallower, 0.5 at equal depth,
    1 when d_max or more deeper. Advertised depths can drift out of the
    window under mobility and staleness; the clamp makes such a neighbor
    cost exactly what the window's edge costs.
    """
    if d_max <= 0:
        raise ValueError(f"d_max must be > 0, got {d_max}")
    d = min(max(depth_sender - depth_neighbor, -d_max), d_max)
    return 0.5 * (1.0 - d / d_max)


def reward_from(sender: "NodeState", d_max: float):
    """The one-step reward for forwarding from `sender` as it stands now, as
    a function of a neighbor's advertised residual energy and depth:
    -c_e(sender) - c_e(neighbor) - c_d(sender, neighbor), in [-3, 0].

    The sender's energy cost is computed once, here, so ranking all of a
    sender's neighbors costs it once. The neighbor's energy cost uses its
    advertised residual energy against the sender's initial energy (all
    nodes start with the same budget).
    """
    e_ini = sender.initial_energy_j
    ce_sender = energy_cost(sender.residual_energy_j, e_ini)
    depth_sender = sender.depth

    def reward_to(residual_j: float, depth_m: float) -> float:
        ce_neighbor = energy_cost(min(residual_j, e_ini), e_ini)
        return -ce_sender - ce_neighbor - depth_cost(depth_sender, depth_m, d_max)

    return reward_to


def reward(sender: "NodeState", residual_j: float, depth_m: float, d_max: float) -> float:
    """One-step reward for forwarding from `sender` to a neighbor advertising
    `residual_j` and `depth_m` (see `reward_from`)."""
    return reward_from(sender, d_max)(residual_j, depth_m)


def q_update(q_old: float, r: float, v_next: float, gamma: float, alpha: float) -> float:
    """One-step Q update: alpha * (r + gamma * v_next) + (1 - alpha) * q_old."""
    return alpha * (r + gamma * v_next) + (1.0 - alpha) * q_old


def v_value(q_table: Mapping[int, float]) -> float:
    """State value: max over the Q-table entries, 0 for an empty table.

    Zero is the optimistic initial value; rewards are never positive, so an
    untried state cannot look worse than a tried one.
    """
    if not q_table:
        return 0.0
    return max(q_table.values())


def q_bounds(gamma: float) -> tuple[float, float]:
    """Valid Q-value interval [-3/(1-gamma), 0] (gamma < 1), else (-inf, 0]."""
    if gamma >= 1.0:
        return (float("-inf"), 0.0)
    return (-3.0 / (1.0 - gamma), 0.0)
