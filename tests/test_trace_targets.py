"""The benchmark's tracer wraps uwroute names from outside
(`perfbench/tracing.py`). Every name it wraps must exist, be reached by a
run, and be restored when the traced block exits; a renamed attribute would
otherwise only show up in the benchmark's own tests."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

import tracing  # noqa: E402
from uwroute import analysis  # noqa: E402
from uwroute.config import ScenarioConfig  # noqa: E402
from uwroute.engine import Simulation  # noqa: E402

SMALL = dict(n_sensors=20, n_sources=2, n_sinks=2, region_x_m=250.0, region_y_m=250.0,
             region_z_m=250.0, max_sim_time_s=40.0)


def patched_round_trip(tracer, targets, work):
    """Call `work()` with `targets` patched; check every attribute is a
    wrapper of its original inside the block and the original afterwards."""
    before = [(owner, attr, attr in vars(owner), vars(owner).get(attr), getattr(owner, attr))
              for owner, attr, _, _ in targets]
    with tracer.patched(targets):
        for owner, attr, _, _, original in before:
            assert getattr(owner, attr).__wrapped__ == original
        work()
    for owner, attr, had_own, own, original in before:
        assert (attr in vars(owner)) == had_own
        assert vars(owner).get(attr) is own
        assert getattr(owner, attr) == original


def test_setup_targets():
    tracer = tracing.Tracer()
    patched_round_trip(tracer, tracing.setup_targets(),
                       lambda: Simulation(ScenarioConfig(**SMALL)))
    assert tracer.calls["channel.calibrate"] == 1


@pytest.mark.parametrize("protocol", ["qlfr", "dbr"])
def test_engine_targets(protocol):
    sim = Simulation(ScenarioConfig(protocol=protocol, **SMALL))
    tracer = tracing.Tracer()
    patched_round_trip(tracer, tracing.engine_targets(tracer, sim), lambda: sim.run())
    for span in ("engine.loop", "engine.transmit", "engine.schedule", "channel.link_prob",
                 "world.random_walk_step", f"{protocol}.on_receive",
                 f"{protocol}.on_hold_expire"):
        assert tracer.calls[span] > 0, span
    # the hold hook reads the status, result[0], of `on_hold_expire`
    assert tracer.counts[f"{protocol}.hold.send"] > 0


def test_analysis_targets():
    sim = Simulation(ScenarioConfig(protocol="qlfr", **SMALL))
    sim.run()
    snapshot = sim.snapshot_topology()

    def report():
        topo = analysis.load_snapshot(snapshot)
        analysis.per_node_report(topo, 40.0, 100.0)

    tracer = tracing.Tracer()
    patched_round_trip(tracer, tracing.analysis_targets(), report)
    # the loader evaluates one `channel.link_model` per snapshot, so the
    # analysis no longer reaches the `channel.link_prob` span; the engine
    # targets above still do
    for span in ("analysis.load_snapshot", "analysis.per_node_report",
                 "analysis.senders_of"):
        assert tracer.calls[span] > 0, span
