"""Property-based engine invariants over small random scenarios: a run is a
pure function of (config, seed), the energy ledger closes, and the delivery
counts are consistent."""

from hypothesis import given, settings, strategies as st

from uwroute.config import ScenarioConfig
from uwroute.engine import Simulation

# holding steps k on the allowed grid, up to 2 t_max = 0.2 s at the default range
K_GRID = (None, 0.01, 0.025, 0.05, 0.1, 0.2)


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
        holding_k_s=draw(st.sampled_from(K_GRID)),
        max_sim_time_s=float(draw(st.integers(20, 60))),
        seed=draw(st.integers(0, 2**31 - 1)),
    )


@settings(derandomize=True, max_examples=100, deadline=None)
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
