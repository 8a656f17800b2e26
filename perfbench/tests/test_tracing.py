"""Tracing must not perturb the simulation, and must leave nothing patched.

Run from the repository root: python3 -m pytest -q perfbench/tests
"""

import json
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
from uwroute import analysis, channel, engine, qcore, qlfr  # noqa: E402
from uwroute.config import ScenarioConfig  # noqa: E402
from workloads import WORKLOADS, AnalyzeWorkload, EngineWorkload  # noqa: E402

SMALL = dict(n_sensors=30, region_x_m=300.0, region_y_m=300.0, region_z_m=300.0,
             max_sim_time_s=120.0)
SMALL_WORKLOADS = [
    EngineWorkload("qlfr_small", "", ScenarioConfig(protocol="qlfr", **SMALL), 2),
    EngineWorkload("dbr_small", "", ScenarioConfig(protocol="dbr", **SMALL), 2),
    AnalyzeWorkload("analyze_small", "", ScenarioConfig(**SMALL)),
]
MODULE_TARGETS = [(channel, "calibrate_energy_per_bit"), (channel, "packet_delivery_prob"),
                  (engine, "random_walk_step"), (qlfr, "build_priority_list"),
                  (qcore, "reward"), (qcore, "q_update"), (analysis, "load_snapshot"),
                  (analysis, "delivery_prob_to_sink"), (analysis.StaticTopology, "senders_of")]


def originals():
    return {(owner, attr): vars(owner)[attr] for owner, attr in MODULE_TARGETS}


def outputs(wl, spec, traced):
    tracer = tracing.Tracer()
    if traced:
        with tracer.patched(tracing.setup_targets()):
            state = wl.setup(spec)
        with tracer.patched(wl.trace_targets(tracer, state)):
            out = wl.execute(state)
    else:
        state = wl.setup(spec)
        out = wl.execute(state)
    return state, out, tracer


@pytest.mark.parametrize("wl", SMALL_WORKLOADS, ids=lambda w: w.name)
def test_traced_run_matches_untraced(wl):
    before = originals()
    for spec in wl.inputs(3):
        plain_state, plain_out, _ = outputs(wl, spec, traced=False)
        state, out, tracer = outputs(wl, spec, traced=True)
        assert wl.check(state, out) == []
        assert wl.digest(state, out) == wl.digest(plain_state, plain_out)
        assert sum(tracer.calls.values()) > 0
        if isinstance(wl, EngineWorkload):
            # wrappers drew nothing: the generator ends in the same state
            assert state.rng.getstate() == plain_state.rng.getstate()
            # instance patches are gone, the class methods show through
            assert "transmit" not in vars(state) and "on_receive" not in vars(state.protocol)
    assert originals() == before


def test_patches_are_restored_when_the_block_raises():
    before = originals()
    tracer = tracing.Tracer()
    with pytest.raises(ZeroDivisionError):
        with tracer.patched(tracing.analysis_targets() + tracing.setup_targets()):
            assert analysis.load_snapshot is not before[analysis, "load_snapshot"]
            1 / 0
    assert originals() == before


def test_recursive_calls_are_counted_and_self_time_nets_out_children():
    wl = SMALL_WORKLOADS[2]
    state, _, tracer = outputs(wl, wl.inputs(1)[0], traced=True)
    # one top-level call per node from per_node_report, plus the recursion
    n_nodes = len(state[1]["nodes"])
    assert tracer.calls["analysis.delivery_prob_to_sink"] > n_nodes
    for name in tracer.calls:
        assert -1e-9 <= tracer.self_s[name] <= tracer.total_s[name] + 1e-9


def test_declared_metrics_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"], m["better"], m["bound"]) for m in spec["end_to_end"]] \
        == [tuple(m) for m in run.END_TO_END]
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == [tuple(m) for m in run.PER_LAYER]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in spec["workloads"]] == [w.why for w in WORKLOADS.values()]


def test_engine_workload_inputs_are_consecutive_seeds():
    wl = WORKLOADS["qlfr_default"]
    assert [c.seed for c in wl.inputs(2)] == [10, 11, 12, 13, 14]
    assert wl.inputs(2)[0] == replace(ScenarioConfig(), seed=10)
