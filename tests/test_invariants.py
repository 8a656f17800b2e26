"""Property-based engine invariants over small random scenarios: a run is a
pure function of (config, seed), the energy ledger closes, and the delivery
counts are consistent; and every config inside the declared ranges builds,
calibrates and runs for 1 s, too short to clamp an advertised depth (see
`test_every_config_in_the_box_runs`)."""

from hypothesis import given, settings, strategies as st

from uwroute import analysis
from uwroute.config import _DECLS, ConfigError, ScenarioConfig
from uwroute.engine import Simulation

# holding-step divisors h: at the default 2 t_max = 0.2 s, the steps k = 2 t_max / h
# of 0.05 (the default h), 0.01, 0.025, 0.05, 0.1 and 0.2 s
H_GRID = (4, 20, 8, 4, 2, 1)


@st.composite
def scenarios(draw):
    n_sensors = draw(st.integers(5, 30))
    edge = 500.0 * (n_sensors / 100.0) ** (1.0 / 3.0)  # the default node density
    return ScenarioConfig(
        protocol=draw(st.sampled_from(("qlfr", "dbr"))),
        n_sensors=n_sensors,
        n_sources=draw(st.integers(1, min(5, n_sensors))),
        n_sinks=draw(st.integers(1, 3)),
        region_x_m=edge, region_y_m=edge, region_z_m=edge,
        mobility_speed_mps=draw(st.sampled_from((0.0, 3.0))),
        holding_h=draw(st.sampled_from(H_GRID)),
        max_sim_time_s=float(draw(st.integers(20, 60))),
        seed=draw(st.integers(0, 2**31 - 1)),
    )


@settings(max_examples=100)
@given(scenarios())
def test_run_invariants(cfg):
    sim = Simulation(cfg)
    record = sim.run()
    again = Simulation(cfg).run()
    assert again.to_csv_row() == record.to_csv_row()
    assert again.per_node_energy_j == record.per_node_energy_j

    lhs, rhs = sim.audit_energy()
    assert abs(lhs - rhs) <= 1e-9 * max(1.0, abs(rhs))
    assert 0.0 <= record.pdr <= 1.0
    assert record.delivered <= record.generated


# Configs drawn from the box that the config keys declare, each bound drawn
# often. The keys that derived quantities combine are drawn together at their
# joint corners: the link attenuation and the calibration target, the mobility
# step against the region, and the holding times. Node counts stay small,
# since none of those quantities reads them.
_BOUNDS = {decl.field: decl.bounds for decl in _DECLS if decl.bounds is not None}
_BOUNDS.update(
    n_sensors=(3, 12), n_sources=(1, 3), n_sinks=(1, 3),
    source_interval_s=(0.1, 1.0),  # so that a 1 s run generates a packet
    # the open ranges, by their closest floats
    alpha=(5e-324, 1.0), pdr_threshold=(5e-324, 1.0 - 2**-53),
    calibration_pdr=(5e-324, 1.0 - 2**-53))
del _BOUNDS["max_sim_time_s"]  # every run lasts 1 s
_CORNERS = (
    ("frequency_khz", "tx_range_m", "spreading_kappa", "atten_const_a0", "noise_density",
     "energy_per_bit", "packet_bits", "calibration_distance_m", "calibration_pdr"),
    ("mobility_speed_mps", "mobility_tick_s", "region_x_m", "region_y_m", "region_z_m"),
    ("tx_range_m", "sound_speed_mps", "holding_h", "max_list_length"),
)


@st.composite
def boxed_configs(draw):
    corner = draw(st.sampled_from(((),) + _CORNERS))
    values = {}
    for field, (lo, hi) in _BOUNDS.items():
        value = st.sampled_from((lo, hi))
        if field not in corner:
            value = st.one_of(value, st.integers(lo, hi) if type(lo) is int else st.floats(lo, hi))
        values[field] = draw(value)
    if "energy_per_bit" not in corner and draw(st.booleans()):
        values["energy_per_bit"] = None  # calibrate
    # within the cross-key bounds, whose refusals would waste the example
    values["initial_list_length"], values["max_list_length"] = sorted(
        (values["initial_list_length"], values["max_list_length"]))
    return values


@settings(max_examples=150)
@given(boxed_configs(), st.integers(0, 2**31 - 1))
def test_every_config_in_the_box_runs(values, seed):
    # every run lasts 1 s, mostly the first round of hellos: in none of these
    # examples does an advertised depth leave its sender's +-tx_range_m window,
    # so the depth cost's clamp goes untested here;
    # TestCliVerbs.test_deep_config_clamps_advertised_depths_and_runs covers it
    for protocol in ("qlfr", "dbr"):
        try:
            cfg = ScenarioConfig(**values, protocol=protocol, max_sim_time_s=1.0, seed=seed)
        except ConfigError:  # a calibration target at or below its floor
            return
        sim = Simulation(cfg)
        for d in (0.0, 1e-200, cfg.tx_range_m):
            assert 0.0 <= sim.link_delivery_prob(d) <= 1.0
        record = sim.run()
        assert 0.0 <= record.pdr <= 1.0
        if protocol == "qlfr":  # a run's own snapshot reads back through the same ranges
            topo = analysis.load_snapshot(sim.snapshot_topology())
            analysis.per_node_report(topo, cfg.max_sim_time_s, cfg.initial_node_energy_j)
