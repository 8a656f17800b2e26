"""Q-learning anypath routing on a forwarding core shared with dbr: priority
lists, holding times, duplicate and overhear suppression, and the adaptive
list length.

Every header, hello or data, advertises its sender's <V-value, depth,
residual energy> as one `RoutingKnowledge`. `QlfrProtocol.hear` stores it as
sent in the receiver's neighbor-knowledge table, and `build_priority_list`
reads that table and evicts its stale entries; no other module touches it.
A sender ranks its strictly-shallower fresh neighbors by the one-step target
r + gamma * V(neighbor) computed from that knowledge, embeds the top
`list_length` of them as a priority list, and updates its own stored Q toward
that target when it transmits, before the header is built. Receivers hold a
copy for a holding time proportional to their list position;
`ForwardingCore.on_receive` takes data copies from other nodes only and
cancels the hold on overhearing any copy. It returns shared outcomes, one
`Drop` per reason and one `Deliver`, so only a hold allocates its outcome;
headers and holds are `NamedTuple`s, which are cheap to build.

The list length adapts to the delivery ratio at the sinks, which count a
source's generated packets as its highest seq received plus one. A periodic
`QlfrProtocol.review` steps the length by one against the threshold, and
each change takes a new epoch. A copy carries the epoch of the review it
announces: each source's next packet carries the newest epoch once, and the
relays that packet lists add that review's step to their own length.

`QlfrProtocol` reads gamma, alpha, the holding step `holding_k_s`, the range,
the staleness and the list-length keys from the validated `ScenarioConfig`
it is built with; the module's functions take them as plain numbers.
"""

from dataclasses import dataclass
from typing import NamedTuple

from . import qcore, world
from .config import ScenarioConfig
from .world import NodeState, RoutingKnowledge


class PacketHeader(NamedTuple):
    source_id: int
    seq: int
    knowledge: RoutingKnowledge  # the sender's, when it sent this copy
    sender_id: int
    priority_list: tuple = ()
    suppression_epoch: int = 0  # the list-length review announced, 0 for none
    is_hello: bool = False

    @property
    def key(self) -> tuple[int, int]:
        return (self.source_id, self.seq)


def advertised(node: NodeState) -> RoutingKnowledge:
    """The knowledge `node` puts in a header it sends now."""
    return RoutingKnowledge(node.v_value, node.depth, node.residual_energy_j)


def holding_time(n: int, k: float) -> float:
    """Holding time of the n-th candidate (1-indexed) at step k between
    adjacent priorities: k * (n - 1)."""
    if n < 1:
        raise ValueError(f"priority index must be >= 1, got {n}")
    return k * (n - 1)


# --- receive-side actions -------------------------------------------------

@dataclass(frozen=True)
class Drop:
    reason: str  # "not-candidate" | "already-forwarded" | "duplicate" | "suppressed"


class Schedule(NamedTuple):
    tau: float
    position: int


# No longer returned: `perfbench/tracing.py` imports it, so it goes with the
# next benchmark change (ROADMAP item 1).
@dataclass(frozen=True)
class Ignore:
    reason: str


@dataclass(frozen=True)
class Deliver:
    pass


_SUPPRESSED = Drop("suppressed")
_ALREADY_FORWARDED = Drop("already-forwarded")
_DUPLICATE = Drop("duplicate")
_NOT_CANDIDATE = Drop("not-candidate")
_DELIVER = Deliver()


def build_priority_list(sender: NodeState, d_max: float, list_length: int,
                        gamma: float, now: float, staleness_s: float) -> list[int]:
    """Ordered forwarding candidates: fresh neighbors strictly shallower than
    the sender, sorted by descending r + gamma * V (ties to the lower id),
    truncated to list_length. Empty result means a void region. Entries older
    than staleness_s are evicted from the sender's table after the walk.
    """
    table = sender.neighbor_knowledge
    depth, reward_to, scored, expired = sender.depth, None, [], []
    for nid, (kn, heard) in table.items():
        if now - heard > staleness_s:
            expired.append(nid)
        elif kn.depth_m < depth:
            if reward_to is None:  # a sender with no candidate computes no cost
                reward_to = qcore.reward_from(sender, d_max)
            scored.append((-(reward_to(kn.residual_energy_j, kn.depth_m) + gamma * kn.v_value),
                           nid))
    for nid in expired:
        del table[nid]
    scored.sort()
    return [nid for _, nid in scored[:list_length]]


class ForwardingCore:
    """Anypath receive and hold-expiry rules shared by qlfr and dbr. The core
    keeps no state: all of it lives on the NodeState objects, and a hold is
    named by the held copy, `node.pending[key]`. A copy is delivered at a
    sink, suppressed when overheard while held (the hold is cancelled and the
    key enters the duplicate cache), dropped as already forwarded or
    duplicate, or held; an expired hold sends the packet or voids it.

    The core builds every data header: the held packet's key and list-length
    epoch, with the sender's id and `advertised` knowledge. A protocol
    supplies `rank(node, pkt)`, a candidate's (holding time, list position)
    or None, and `priority_list(node, now)`, the tuple of candidates to send
    or None for a void; `hear` may use every packet heard from another node,
    and `at_sink` every data copy a sink receives. `on_receive` takes data
    copies from other nodes only: the engine hands a received hello straight
    to `hear` and never delivers a node its own broadcast.
    """

    uses_hello = False

    def hear(self, node: NodeState, pkt: PacketHeader, now: float) -> None:
        pass

    def at_sink(self, pkt: PacketHeader) -> None:
        pass

    def on_receive(self, node: NodeState, pkt: PacketHeader, now: float):
        self.hear(node, pkt, now)
        if node.is_sink:
            self.at_sink(pkt)
            return _DELIVER
        key = (pkt.source_id, pkt.seq)
        if node.pending.pop(key, None) is not None:  # overheard while held
            world.remember(node.duplicate_cache, key)  # later copies are not rescheduled
            return _SUPPRESSED
        if key in node.forwarded_cache:
            return _ALREADY_FORWARDED
        if key in node.duplicate_cache:
            return _DUPLICATE
        ranked = self.rank(node, pkt)
        if ranked is None:
            return _NOT_CANDIDATE
        node.pending[key] = pkt
        return Schedule(*ranked)

    def on_hold_expire(self, node: NodeState, pkt: PacketHeader,
                       now: float) -> tuple[str, PacketHeader | None]:
        """Fire the hold of the copy `pkt`. Returns ("send", header),
        ("void", None) or ("stale", None) when `pkt` is no longer the held
        copy: the hold was cancelled, fired, or replaced by a later arrival."""
        key = (pkt.source_id, pkt.seq)
        if node.pending.get(key) is not pkt:
            return ("stale", None)
        del node.pending[key]
        header = self._header(node, key, pkt.suppression_epoch, now)
        if header is None:
            world.remember(node.duplicate_cache, key)
            return ("void", None)
        return ("send", header)

    def originate(self, source: NodeState, seq: int, now: float) -> PacketHeader | None:
        return self._header(source, (source.id, seq), 0, now)

    def _header(self, node: NodeState, key: tuple[int, int], epoch: int,
                now: float) -> PacketHeader | None:
        """The header `node` sends for packet `key`, or None for a void. The
        knowledge is read after `priority_list`, which may update it."""
        plist = self.priority_list(node, now)
        if plist is None:
            return None
        world.remember(node.forwarded_cache, key)
        return PacketHeader(key[0], key[1], advertised(node), node.id, plist, epoch)


class QlfrProtocol(ForwardingCore):
    """Priority lists from neighbor knowledge, holding by list position,
    Q-learning. The largest one-hop depth difference d_max is the range."""

    uses_hello = True

    def __init__(self, config: ScenarioConfig):
        self.config = config
        # derived quantities, taken once: `rank` and `candidates` run per packet
        self._k, self._staleness_s = config.holding_k_s, config.staleness_s
        self.list_length = config.initial_list_length  # the sinks' current length
        self._q_lo, self._q_hi = qcore.q_bounds(config.gamma)
        self._generated: dict[int, int] = {}  # source id -> highest seq at a sink + 1
        self._reviewed = (0, 0)  # (delivered, generated) at the last review
        self._steps = [0]  # epoch -> the step of the review that took it
        self._sent_epoch: dict[int, int] = {}  # source id -> epoch it last sent

    def hello_header(self, node: NodeState) -> PacketHeader:
        return PacketHeader(node.id, -1, advertised(node), node.id, is_hello=True)

    def hear(self, node: NodeState, pkt: PacketHeader, now: float) -> None:
        """Every heard packet replaces the sender's entry in `node`'s
        neighbor-knowledge table, candidate or not."""
        sender = pkt.sender_id
        if sender == node.id:
            raise ValueError("a node does not record knowledge about itself")
        node.neighbor_knowledge[sender] = (pkt.knowledge, now)

    def rank(self, node: NodeState, pkt: PacketHeader) -> tuple[float, int] | None:
        """A listed node holds by its position; it also takes up the list-length
        review whose epoch the header carries."""
        if node.id not in pkt.priority_list:
            return None
        self._apply_epoch(node, pkt.suppression_epoch)
        position = pkt.priority_list.index(node.id) + 1
        return holding_time(position, self._k), position

    def _apply_epoch(self, node: NodeState, epoch: int) -> None:
        """Add the step of review `epoch` once; epoch 0 announces none."""
        if epoch > node.suppression_epoch:
            node.suppression_epoch = epoch
            node.list_length = self._clamp(node.list_length + self._steps[epoch])

    def _clamp(self, length: int) -> int:
        return min(self.config.max_list_length, max(1, length))

    def at_sink(self, pkt: PacketHeader) -> None:
        src = pkt.source_id
        self._generated[src] = max(self._generated.get(src, 0), pkt.seq + 1)

    def review(self, delivered: int) -> tuple[int, float] | None:
        """Step the list length by the delivery ratio since the last review,
        given the unique packets the sinks have `delivered` so far: down above
        the threshold, up below it. A change takes the next epoch, which
        replaces any epoch not yet sent. Returns (new length, window delivery
        ratio), or None."""
        generated = sum(self._generated.values())
        window = generated - self._reviewed[1]
        if window <= 0:
            return None
        pdr = (delivered - self._reviewed[0]) / window
        self._reviewed = (delivered, generated)
        old, threshold = self.list_length, self.config.pdr_threshold
        new = self._clamp(old + (pdr < threshold) - (pdr > threshold))
        if new == old:
            return None
        self.list_length = new
        self._steps.append(new - old)
        return new, pdr

    def originate(self, source: NodeState, seq: int, now: float) -> PacketHeader | None:
        newest = len(self._steps) - 1
        epoch = 0 if self._sent_epoch.get(source.id, 0) == newest else newest
        self._sent_epoch[source.id] = newest
        self._apply_epoch(source, epoch)
        return self._header(source, (source.id, seq), epoch, now)

    def candidates(self, node: NodeState, now: float) -> list[int]:
        """The priority list `node` would send now, from its current knowledge."""
        cfg = self.config
        return build_priority_list(node, cfg.tx_range_m, node.list_length,
                                   cfg.gamma, now, self._staleness_s)

    def priority_list(self, node: NodeState, now: float) -> tuple[int, ...] | None:
        """Rebuild the priority list from current knowledge and update Q toward
        the chosen first candidate; None when no candidate exists."""
        candidates = self.candidates(node, now)
        if not candidates:
            return None
        self._learn(node, candidates[0])
        return tuple(candidates)

    def _learn(self, node: NodeState, chosen_id: int) -> None:
        """One-step Q update for the transmitting node toward its first
        candidate's advertised value."""
        kn, _ = node.neighbor_knowledge[chosen_id]
        cfg = self.config
        r = qcore.reward(node, kn.residual_energy_j, kn.depth_m, cfg.tx_range_m)
        q_new = qcore.q_update(node.q_table.get(chosen_id, 0.0), r, kn.v_value,
                               cfg.gamma, cfg.alpha)
        if not self._q_lo - 1e-9 <= q_new <= self._q_hi + 1e-9:
            raise RuntimeError(f"Q-value {q_new} outside [{self._q_lo}, {self._q_hi}]")
        node.q_table[chosen_id] = q_new
        node.v_value = qcore.v_value(node.q_table)
