"""Depth-based routing baseline on the shared anypath forwarding core.

Packets are broadcast without a candidate list; every receiver strictly
shallower than the sender holds the packet for a time that shrinks with its
depth advance, so the shallowest candidate fires first and suppresses the
rest by being overheard. Exact depth ties are broken by a deterministic
per-node jitter.
"""

from .config import ScenarioConfig
from .qlfr import ForwardingCore, PacketHeader
from .world import NodeState

ID_JITTER_S = 1e-6


def dbr_holding_time(depth_advance: float, t_max: float, tx_range: float, node_id: int) -> float:
    """Holding time (2 t_max / R) * (R - d) + id jitter for depth advance d."""
    return (2.0 * t_max / tx_range) * (tx_range - depth_advance) + ID_JITTER_S * node_id


class DbrProtocol(ForwardingCore):
    def __init__(self, config: ScenarioConfig):
        self.t_max, self.tx_range = config.t_max_s, config.tx_range_m

    def rank(self, node: NodeState, pkt: PacketHeader) -> tuple[float, int] | None:
        depth_advance = pkt.knowledge.depth_m - node.depth
        if depth_advance <= 0:
            return None
        return dbr_holding_time(depth_advance, self.t_max, self.tx_range, node.id), 0

    def priority_list(self, node: NodeState, now: float) -> tuple[()]:
        """No list: the sender's depth in the header decides candidacy."""
        return ()
