"""uwroute benchmark: host cost of engine runs and analytical reports.

Run from the repository root:

    python3 perfbench/run.py --workload qlfr_default --seed 1 --seconds 35 --trace 0

--trace 0 measures the end-to-end metrics with nothing wrapped; --trace 1
runs each input once untraced and once traced and reports the per-layer
metrics. Every input run is timed between two runs of a fixed host probe,
and its wall times are scaled to a host on which the probe takes
PROBE_NOMINAL_S. The last line of standard output is one JSON object with the
keys correct, attempted, failed and metrics. See perfbench/README.md.
"""

import argparse
import gc
import hashlib
import heapq
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path
from random import Random

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# name, unit, better, bound (share of the parent's median it may worsen by)
END_TO_END = [
    ("run_s", "s", "lower", 0.25),
    ("events_per_s", "1/s", "higher", 0.25),
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
    ("ok_frac", "frac", "higher", 0.01),
]


def _spans(prefix, names, with_self=True):
    out = []
    for n in names:
        out.append((f"{prefix}.{n}.calls", "count", "lower"))
        if with_self:
            out.append((f"{prefix}.{n}.self_s", "s", "lower"))
    return out


_DROPS = ["not-candidate", "already-forwarded", "duplicate", "suppressed"]

PER_LAYER = (
    _spans("engine", ["transmit"])
    + [("engine.transmit.hello_calls", "count", "lower"),
       ("engine.arrivals_per_tx", "arrivals/tx", "lower")]
    + _spans("engine", ["schedule"])
    + _spans("engine", ["rx_energy"], with_self=False)
    + [("engine.loop.self_s", "s", "lower")]
    + _spans("channel", ["link_prob"])
    + [("channel.calibrate_s", "s", "lower")]
    + _spans("world", ["random_walk_step"])
    + _spans("qlfr", ["on_receive"])
    + [(f"qlfr.rx.{o}", "count", "lower") for o in ["schedule", "deliver", *_DROPS, "hello"]]
    + [("qlfr.rx.useful_frac", "frac", "higher")]
    + _spans("qlfr", ["on_hold_expire"], with_self=False)
    + [(f"qlfr.hold.{o}", "count", "lower") for o in ["send", "void", "stale"]]
    + _spans("qlfr", ["build_priority_list"])
    + [("qlfr.plist.entries", "count", "lower"),
       ("qlfr.plist.out_of_range_frac", "frac", "lower")]
    + _spans("qcore", ["reward"])
    + _spans("qcore", ["q_update"], with_self=False)
    + _spans("dbr", ["on_receive"])
    + [(f"dbr.rx.{o}", "count", "lower") for o in ["schedule", "deliver", *_DROPS]]
    + [("dbr.rx.useful_frac", "frac", "higher")]
    + _spans("dbr", ["on_hold_expire"], with_self=False)
    + [("analysis.load_snapshot.self_s", "s", "lower"),
       ("analysis.per_node_report.self_s", "s", "lower")]
    + _spans("analysis", ["outgoing_traffic", "delivery_prob_to_sink", "expected_delay_to_sink",
                          "expected_holding_time", "senders_of", "forward_prob"])
    + [("sim.generated", "packets", "higher"),
       ("sim.delivered", "packets", "higher"),
       ("sim.pdr", "frac", "higher"),
       ("sim.mean_e2e_delay_s", "s", "lower"),
       ("sim.total_energy_j", "J", "lower"),
       ("sim.digest", "id", "lower"),
       ("trace.overhead_frac", "frac", "lower"),
       ("host_ref_s", "s", "lower")]
)

MIN_TIMED_CYCLES = 3
MAX_MEASURE_S = 120.0  # keeps a run on a slow host inside its time limit

PROBE_CELLS = 2000
PROBE_STEPS = 24_000
# the host speed that times are scaled to: about the probe's median time on
# the two-vCPU VM the benchmark was written on; it sets the scale only
PROBE_NOMINAL_S = 0.1


class _Cell:
    __slots__ = ("x", "y", "hits")


def host_reference(repeats: int = 1) -> float:
    """Mean seconds of `repeats` runs of a fixed pure-Python job shaped like
    uwroute's hot loops (heap pops and pushes, slot attributes, float
    geometry, dict counters) that shares no code with uwroute: how fast the
    host runs such code now. A change to uwroute cannot move it, so dividing
    by it removes the host's drift from a time and keeps the program's share."""
    return sum(_probe_job() for _ in range(repeats)) / repeats


def _probe_job() -> float:
    rng = Random(12345)
    cells = []
    for _ in range(PROBE_CELLS):
        c = _Cell()
        c.x, c.y, c.hits = rng.random(), rng.random(), {}
        cells.append(c)
    t0 = time.perf_counter()
    heap = [(rng.random(), i) for i in range(PROBE_CELLS)]
    heapq.heapify(heap)
    for n in range(PROBE_STEPS):
        t, i = heapq.heappop(heap)
        a = cells[i]
        j = (i * 7919) % (PROBE_CELLS - 8)
        for k, b in enumerate(cells[j:j + 8], j):
            if math.hypot(a.x - b.x, a.y - b.y) < 0.5:
                a.hits[k] = a.hits.get(k, 0) + 1
        heapq.heappush(heap, (t + rng.random(), (i * 31 + n) % PROBE_CELLS))
    return time.perf_counter() - t0


def cycle_digest(digests) -> str:
    """Digest of a cycle from its inputs' digests (None for an input that failed)."""
    return hashlib.sha256("".join(d or "-" for d in digests).encode()).hexdigest()


class Run:
    """Bookkeeping of one benchmark invocation: attempts, failures, digests."""

    def __init__(self, workload, seed):
        self.wl = workload
        self.inputs = workload.inputs(seed)
        self.attempted = 0
        self.failed = 0
        self.reference = [None] * len(self.inputs)  # digest of each input's first run
        self.host_ref = []  # mean of the two probes around each attempt
        self._last_probe = None  # the probe after one attempt is the one before the next
        self.probe_repeats = workload.probe_repeats

    def attempt(self, i, state_fn, execute_fn):
        """Set up and execute input i once between two host probes; returns
        (Times, state, output), or None when it raised or failed a check."""
        self.attempted += 1
        gc.collect()
        probe_before = self._last_probe or host_reference(self.probe_repeats)
        try:
            t0 = time.perf_counter()
            state = state_fn(self.inputs[i])
            t1 = time.perf_counter()
            t_run, out = execute_fn(state)
            problems = self.wl.check(state, out)
            digest = self.wl.digest(state, out)
        except Exception:
            traceback.print_exc()
            problems, digest = ["raised"], None
        self._last_probe = host_reference(self.probe_repeats)
        probe = (probe_before + self._last_probe) / 2
        self.host_ref.append(probe)
        if digest is not None:
            if self.reference[i] is None:
                self.reference[i] = digest
            elif digest != self.reference[i]:
                problems.append(f"digest {digest[:16]} differs from the first run's "
                                f"{self.reference[i][:16]}")
        if problems:
            self.failed += 1
            print(f"FAILED {self.wl.name} input {i}: " + "; ".join(problems), file=sys.stderr)
            return None
        return Times(t1 - t0, t_run, probe), state, out


@dataclass
class Times:
    """Times of one input run: wall seconds of set-up and of the timed part,
    and the mean of the host probes made just before and just after it."""
    wall_setup_s: float
    wall_run_s: float
    probe_s: float

    @property
    def scale(self) -> float:
        """Factor from this attempt's wall seconds to reference-host seconds."""
        return PROBE_NOMINAL_S / self.probe_s

    @property
    def setup_s(self) -> float:
        return self.wall_setup_s * self.scale

    @property
    def run_s(self) -> float:
        return self.wall_run_s * self.scale


def timed(wl):
    def execute(state):
        t0 = time.perf_counter()
        out = wl.execute(state)
        return time.perf_counter() - t0, out
    return execute


def measure(run, seconds):
    """End-to-end metrics: an untimed reference cycle that counts work, then
    timed cycles for `seconds`. Per input, the median over timed cycles of
    its reference-host seconds; also returns the same medians of wall seconds."""
    import tracing
    wl = run.wl
    n = len(run.inputs)
    work = [0] * n
    times = [[] for _ in range(n)]

    def counted(i):
        def execute(state):
            tracer = tracing.Tracer()
            with tracer.patched(wl.work_targets(tracer, state)):
                out = wl.execute(state)
            work[i] = wl.work(tracer, state, out)
            return 0.0, out
        return execute

    for i in range(n):
        run.attempt(i, wl.setup, counted(i))
    start = time.perf_counter()
    cycles = 0
    while True:
        t_cycle = time.perf_counter()
        for i in range(n):
            result = run.attempt(i, wl.setup, timed(wl))
            if result is not None:
                times[i].append(result[0])
        cycles += 1
        now = time.perf_counter()
        elapsed, last = now - start, now - t_cycle
        if cycles >= MIN_TIMED_CYCLES and elapsed + last > seconds or elapsed + last > MAX_MEASURE_S:
            break
    for i, samples in enumerate(times):
        print(f"run_s samples of input {i}: "
              + " ".join(f"{a.run_s:.4f} (wall {a.wall_run_s:.4f})" for a in samples))
    if not all(times):
        return None, None, cycles

    def cycle_median(field):
        return sum(statistics.median(getattr(a, field) for a in samples) for samples in times)

    run_s = cycle_median("run_s")
    setup_s = cycle_median("setup_s")
    wall = {"run_s": cycle_median("wall_run_s"), "setup_s": cycle_median("wall_setup_s")}
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "run_s": run_s,
        "events_per_s": sum(work) / run_s,
        "setup_s": setup_s,
        "peak_rss_mb": peak_kib / 1024.0,
        "ok_frac": 1.0 - run.failed / run.attempted,
    }, wall, cycles


def trace(run):
    """Per-layer metrics: each input runs once untraced, then at once traced;
    the traced digest must equal the untraced one."""
    import tracing
    wl = run.wl
    tracer = tracing.Tracer()

    def traced_setup(spec):
        with tracer.patched(tracing.setup_targets()):
            return wl.setup(spec)

    def traced_execute(state):
        with tracer.patched(wl.trace_targets(tracer, state)):
            return timed(wl)(state)

    pairs = []
    for i in range(len(run.inputs)):
        untraced = run.attempt(i, wl.setup, timed(wl))
        traced = run.attempt(i, traced_setup, traced_execute)
        if untraced is not None and traced is not None:
            pairs.append((untraced, traced))
    if not pairs:
        return None
    values = layer_values(tracer)
    values.update(wl.summary([(state, out) for _, (_, state, out) in pairs]))
    values["sim.digest"] = int(cycle_digest(run.reference)[:13], 16)
    values["trace.overhead_frac"] = (sum(t[0].run_s for _, t in pairs)
                                     / sum(u[0].run_s for u, _ in pairs) - 1.0)
    values["host_ref_s"] = statistics.median(run.host_ref)
    return values, tracer


def layer_values(tracer) -> dict:
    """Per-layer values from a traced pass; a ratio whose base is 0 (a layer
    the workload does not use) reads 0."""
    def ratio(a, b):
        return a / b if b else 0.0

    values = {}
    for span in tracer.calls:
        values[f"{span}.calls"] = tracer.calls[span]
        values[f"{span}.self_s"] = tracer.self_s[span]
    values.update(tracer.counts)
    values["engine.arrivals_per_tx"] = ratio(tracer.edges["engine.transmit", "engine.schedule"],
                                             tracer.calls["engine.transmit"])
    values["channel.calibrate_s"] = tracer.total_s["channel.calibrate"]
    for proto in ("qlfr", "dbr"):
        c = tracer.counts
        data_rx = (tracer.calls[f"{proto}.on_receive"] - c[f"{proto}.rx.hello"]
                   - c[f"{proto}.rx.self"])
        values[f"{proto}.rx.useful_frac"] = ratio(
            c[f"{proto}.rx.schedule"] + c[f"{proto}.rx.deliver"], data_rx)
    values["qlfr.plist.out_of_range_frac"] = ratio(tracer.counts["qlfr.plist.out_of_range"],
                                                   tracer.counts["qlfr.plist.entries"])
    return values


def write_spans(path, workload, seed, tracer, values):
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {
        "workload": workload, "seed": seed,
        "spans": {name: {"calls": tracer.calls[name], "total_s": tracer.total_s[name],
                         "self_s": tracer.self_s[name]} for name in sorted(tracer.calls)},
        "edges": [[p, c, k] for (p, c), k in sorted(tracer.edges.items())],
        "counts": dict(sorted(tracer.counts.items())),
        "metrics": values,
    }
    path.write_text(json.dumps(doc, indent=1) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")

    # one core for the whole run, so the host probes see the core the program runs on
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(SRC))
    try:
        import uwroute
    except ImportError as exc:
        print(f"cannot import uwroute from {SRC}: {exc}", file=sys.stderr)
        return 2
    if Path(uwroute.__file__).resolve().parent.parent != SRC:
        print(f"uwroute was imported from {uwroute.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(WORKLOADS)}")

    run = Run(WORKLOADS[args.workload], args.seed)
    print(f"workload {args.workload}: {run.wl.describe(run.inputs)}, "
          f"{len(run.inputs)} input(s) per cycle")
    if args.trace:
        declared = PER_LAYER
        result = trace(run)
        values = None
        if result is not None:
            values, tracer = result
            out = HERE / "out" / f"trace-{args.workload}-seed{args.seed}.json"
            write_spans(out, args.workload, args.seed, tracer, values)
            print(f"spans written to {out.relative_to(HERE.parent)}")
            values = {name: values.get(name, 0) for name, _, _ in declared}
    else:
        values, wall, cycles = measure(run, args.seconds)
        declared = END_TO_END
        print(f"timed cycles {cycles}; each time is the sum over inputs of the median "
              f"of {cycles} repeats, in reference-host seconds")
        if values is not None:
            print(f"host_ref_s {statistics.median(run.host_ref)!r} s "
                  f"(median of {len(run.host_ref)} probes; nominal {PROBE_NOMINAL_S} s)")
            for name, t in wall.items():
                print(f"wall {name} {t!r} s (not scaled)")
    if values is None:
        print("no complete measurement: an input failed on every repeat", file=sys.stderr)
        return 1
    for i, ref in enumerate(run.reference):
        print(f"digest input {i} {ref}")
    print(f"digest {args.workload} {cycle_digest(run.reference)}")
    units = {d[0]: d[1] for d in declared}
    for name, unit in units.items():
        print(f"{name} {values[name]!r} {unit}")
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
