"""Outside-in span tracer for uwroute.

The tracer never edits the package. It replaces public callables with timing
wrappers for the length of a `with tracer.patched(targets):` block and puts
the originals back when the block exits, also on error:

- `Simulation` and protocol methods are patched as instance attributes, so
  only the traced simulation sees them; restoring deletes the attribute and
  the class method shows through again.
- Module-level functions are patched as module attributes. This reaches a
  call only when the caller looks the name up on that module at call time,
  which is why the random walk is patched as `engine.random_walk_step`
  (engine imports it by name) and `build_priority_list` as a `qlfr` global.
- `StaticTopology.senders_of` is patched on the class: topologies are frozen
  dataclasses created inside the traced `load_snapshot` call.

Edge cases of wrapping from outside:

- `world.fresh_neighbors` is a generator. A wrapper around it would time only
  the creation of the generator object, not the iteration, so it is left
  unwrapped and its time lands in the self time of `build_priority_list`,
  which drains it.
- `analysis.delivery_prob_to_sink` recurses through its module global, so the
  recursive calls go through the wrapper too: its call count includes every
  recursive call and each level's self time excludes the levels below it.
- The `raw` closure inside `analysis.expected_delay_to_sink` is created per
  call and cannot be reached from outside. Its own work is attributed to the
  self time of the enclosing `expected_delay_to_sink` span; the wrapped
  functions it calls (`forward_prob`, `expected_holding_time`, ...) still get
  spans of their own. `hop_delay` is not wrapped, so its glue is in the same
  parent self time.

Wrappers draw nothing from any random number generator and keep no reference
to simulated state beyond the call, so a traced run produces the same outputs
as an untraced one; `tests/test_tracing.py` checks this.

Self time of a span is its duration minus the time its direct wrapped children
took, where a child's time includes the wrapper's own bookkeeping, so tracer
overhead of children is not charged to the parent. Spans are aggregated in
memory per name (calls, total, self) and per parent->child edge.
"""

import time
from collections import Counter, defaultdict
from contextlib import contextmanager

from uwroute import analysis, channel, engine, qcore, qlfr
from uwroute.qlfr import Drop, Ignore


class Tracer:
    def __init__(self):
        self.calls = Counter()
        self.total_s = defaultdict(float)
        self.self_s = defaultdict(float)
        self.edges = Counter()  # (parent span, child span) -> calls
        self.counts = Counter()  # outcome counters filled by `after` hooks
        self._stack = []
        self._patches = []

    def wrap(self, name, fn, after=None):
        """Timing wrapper around `fn`; `after(args, result)` runs on success
        and is charged neither to the span nor to its parent."""
        stack, calls, total_s, self_s, edges = (
            self._stack, self.calls, self.total_s, self.self_s, self.edges)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [name, 0.0]  # span name, time of wrapped children
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                calls[name] += 1
                total_s[name] += t1 - t0
                self_s[name] += t1 - t0 - frame[1]
            if after is not None:
                after(args, result)
            if stack:
                parent = stack[-1]
                edges[parent[0], name] += 1
                parent[1] += clock() - t0
            return result

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def patched(self, targets):
        """Install `(owner, attribute, span name, after hook)` wrappers for the
        block and restore every original on exit."""
        try:
            for owner, attr, name, after in targets:
                had_own = attr in vars(owner)
                original = vars(owner).get(attr)
                setattr(owner, attr, self.wrap(name, getattr(owner, attr), after))
                self._patches.append((owner, attr, had_own, original))
            yield self
        finally:
            while self._patches:
                owner, attr, had_own, original = self._patches.pop()
                if had_own:
                    setattr(owner, attr, original)
                else:
                    delattr(owner, attr)


def rx_outcome(action) -> str:
    """Name of a protocol receive action: its reason for Drop and Ignore,
    the lower-cased class name (schedule, deliver) otherwise."""
    if isinstance(action, (Drop, Ignore)):
        return action.reason
    return type(action).__name__.lower()


def setup_targets():
    """Wrappers for building inputs: only channel calibration is a layer call."""
    return [(channel, "calibrate_energy_per_bit", "channel.calibrate", None)]


def engine_targets(tracer, sim):
    """Wrappers for one simulation run; the protocol prefix is qlfr or dbr."""
    proto = sim.config.protocol
    counts = tracer.counts
    r2 = sim.config.tx_range_m ** 2

    def after_transmit(args, _):
        sender, pkt = args
        if pkt.is_hello:
            counts["engine.transmit.hello_calls"] += 1
            return
        if not sender.alive:  # could not pay for the transmission: nothing sent
            return
        sp = sender.position
        for nid in pkt.priority_list:
            other = sim.by_id[nid]
            op = other.position
            d2 = (op.x - sp.x) ** 2 + (op.y - sp.y) ** 2 + (op.z - sp.z) ** 2
            counts["qlfr.plist.entries"] += 1
            if not other.alive or d2 > r2:
                counts["qlfr.plist.out_of_range"] += 1

    def after_receive(args, action):
        counts[f"{proto}.rx.{rx_outcome(action)}"] += 1

    def after_hold(args, result):
        counts[f"{proto}.hold.{result[0]}"] += 1

    return [
        (sim, "run", "engine.loop", None),
        (sim, "transmit", "engine.transmit", after_transmit),
        (sim, "schedule", "engine.schedule", None),
        (sim, "receive_energy_accounting", "engine.rx_energy", None),
        (sim, "link_delivery_prob", "channel.link_prob", None),
        (sim.protocol, "on_receive", f"{proto}.on_receive", after_receive),
        (sim.protocol, "on_hold_expire", f"{proto}.on_hold_expire", after_hold),
        (engine, "random_walk_step", "world.random_walk_step", None),
        (qlfr, "build_priority_list", "qlfr.build_priority_list", None),
        (qcore, "reward", "qcore.reward", None),
        (qcore, "q_update", "qcore.q_update", None),
    ]


def analysis_targets():
    """Wrappers for loading a snapshot and building the per-node report."""
    names = ["load_snapshot", "per_node_report", "outgoing_traffic",
             "delivery_prob_to_sink", "expected_delay_to_sink",
             "expected_holding_time", "forward_prob"]
    return ([(analysis, n, f"analysis.{n}", None) for n in names]
            + [(analysis.StaticTopology, "senders_of", "analysis.senders_of", None),
               (channel, "packet_delivery_prob", "channel.link_prob", None)])
