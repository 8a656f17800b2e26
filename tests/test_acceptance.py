"""Acceptance suite: every criterion at its stated tolerance, one printed
pass/fail line per criterion (run with `pytest -s` to see them inline).

The desk-scale trend block simulates N in {50, 100, 150} nodes in a 300 m
cube, ten seeds per point, holding-step divisor h in {20, 4, 2}, that is the
step k = 2 t_max / h in {0.01, 0.05, 0.1} s, plus the depth-greedy baseline
at the highest density. Budget: well under ten minutes on two cores.
"""

import math
import statistics
from concurrent.futures import ProcessPoolExecutor
from fractions import Fraction

import pytest
from scipy import integrate
from scipy.special import erfc

from fixtures import ALL_FIXTURES
from mc_oracle import run_trials
from uwroute import analysis, channel, cli, engine, qcore
from uwroute.config import ScenarioConfig
from uwroute.qlfr import holding_time
from uwroute.world import NodePosition, NodeState

REL = 1e-6


def report(name: str, ok: bool, detail: str = "") -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}"
          + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def close(got, want, rel=REL) -> bool:
    if want == 0.0:
        return abs(got) < 1e-9
    return abs(got - want) / abs(want) < rel


# --- criterion: closed-form unit suite -------------------------------------

def test_closed_form_unit_suite():
    checks = []

    # Thorpe absorption, hand-evaluated term by term
    checks.append(close(channel.thorpe_absorption_db_per_km(10.0),
                        2.75e-4 * 100 + 4400 / 4110 + 11 / 101 + 1e-3))
    checks.append(close(channel.thorpe_absorption_db_per_km(1.0),
                        2.75e-4 + 44 / 4101 + 0.11 / 2 + 1e-3))

    # Rayleigh BPSK error rate
    checks.append(close(channel.rayleigh_bpsk_ber(3.0), 0.5 * (1 - math.sqrt(0.75))))
    checks.append(channel.rayleigh_bpsk_ber(1e6) < 1e-6)
    checks.append(close(channel.rayleigh_bpsk_ber(0.0), 0.5))

    # packet delivery probability
    checks.append(close(channel.packet_success_prob(0.0, 512), 1.0))
    checks.append(close(channel.packet_success_prob(0.5, 1), 0.5))
    checks.append(close(channel.packet_success_prob(1e-4, 1000), (1 - 1e-4) ** 1000))

    # holding time
    table_k = ScenarioConfig(tx_range_m=150.0, sound_speed_mps=1500.0, holding_h=4).holding_k_s
    checks.append(holding_time(1, table_k) == 0.0)
    checks.append(close(table_k, 0.05))
    checks.append(close(holding_time(3, table_k), 0.1))
    k1 = ScenarioConfig(holding_h=1).holding_k_s
    checks.append(close(k1, 0.2) and close(holding_time(2, k1), 0.2))

    # energy and depth costs
    checks.append(qcore.energy_cost(100.0, 100.0) == 0.0)
    checks.append(qcore.energy_cost(0.0, 100.0) == 1.0)
    checks.append(close(qcore.energy_cost(50.0, 100.0), 0.5))
    checks.append(qcore.depth_cost(150.0, 0.0, 150.0) == 0.0)
    checks.append(close(qcore.depth_cost(80.0, 80.0, 150.0), 0.5))
    checks.append(close(qcore.depth_cost(0.0, 150.0, 150.0), 1.0))

    # reward
    full = NodeState(0, "sensor", NodePosition(0, 0, 50.0), 200.0, 100.0)
    checks.append(close(qcore.reward(full, 100.0, 0.0, 150.0), 0.0))
    drained = NodeState(1, "sensor", NodePosition(0, 0, 200.0), 200.0, 100.0)
    drained.residual_energy_j = 0.0
    checks.append(close(qcore.reward(drained, 0.0, 150.0, 150.0), -3.0))
    half = NodeState(2, "sensor", NodePosition(0, 0, 120.0), 200.0, 100.0)
    half.residual_energy_j = 50.0
    checks.append(close(qcore.reward(half, 100.0, 80.0, 150.0), -1.0))

    # q update
    checks.append(qcore.q_update(7.0, -1.0, 4.0, gamma=0.0, alpha=1.0) == -1.0)
    checks.append(close(qcore.q_update(-2.0, -1.0, -1.0, gamma=0.8, alpha=0.5), -1.9))

    report("closed-form-unit-suite", all(checks),
           f"{sum(checks)}/{len(checks)} example values reproduced at 1e-6 relative")


# --- criterion: Rayleigh closed form vs numerical integration ---------------

def test_rayleigh_closed_form_vs_quadrature():
    points = [0.1, 0.5, 1.0, 3.0, 10.0, 50.0, 100.0, 500.0, 2000.0, 1e4]
    worst = 0.0
    for snr in points:
        integrand = lambda x: 0.5 * erfc(math.sqrt(x)) * math.exp(-x / snr) / snr
        numeric, err = integrate.quad(integrand, 0.0, min(60.0 * snr, 700.0),
                                      limit=300, epsabs=1e-12, epsrel=1e-12)
        assert err < 1e-9
        worst = max(worst, abs(numeric - channel.rayleigh_bpsk_ber(snr)))
    report("rayleigh-closed-form", worst < 1e-6,
           f"max |quadrature - closed form| = {worst:.2e} over {len(points)} points")


# --- criteria: analytical model vs Monte-Carlo ------------------------------

TRIALS = 100_000


def test_analytical_vs_monte_carlo_pdr():
    details = []
    ok = True
    for name, fixture in ALL_FIXTURES.items():
        topo, source = fixture()
        p = analysis.delivery_prob_to_sink(topo, source)
        delivered, _ = run_trials(topo, source, TRIALS, seed=7)
        observed = delivered / TRIALS
        sigma = math.sqrt(p * (1 - p) / TRIALS)
        ok &= abs(observed - p) <= 3.0 * sigma
        details.append(f"{name}: |{observed:.5f}-{p:.5f}| = {abs(observed-p)/sigma:.2f} sigma")
    report("analytical-vs-mc-pdr", ok, "; ".join(details))


def test_analytical_vs_monte_carlo_delay():
    details = []
    ok = True
    for name, fixture in ALL_FIXTURES.items():
        topo, source = fixture()
        predicted = analysis.expected_delay_to_sink(topo, source, conditional=True)
        _, mc_delay = run_trials(topo, source, TRIALS, seed=7)
        rel = abs(predicted - mc_delay) / mc_delay
        ok &= rel < 0.05
        details.append(f"{name}: {rel * 100:.2f}%")
    report("analytical-vs-mc-delay", ok, "; ".join(details))


# --- criterion: energy ledger exactness -------------------------------------

def test_energy_ledger_exactness():
    cfg = ScenarioConfig(region_x_m=300.0, region_y_m=300.0, region_z_m=300.0,
                         n_sensors=100, n_sources=5, n_sinks=5,
                         max_sim_time_s=120.0, seed=13)
    sim = engine.Simulation(cfg)
    record = sim.run()
    lhs, rhs = sim.audit_energy()
    rel = abs(lhs - rhs) / rhs
    ok = rel < 1e-9 and close(record.total_energy_j, lhs, rel=1e-12)
    report("energy-ledger-exactness", ok,
           f"sum(per-node) = {lhs:.6f} J vs power*seconds = {rhs:.6f} J, rel = {rel:.2e}")


# --- criterion: holding-time suppression property ---------------------------

def test_holding_time_suppression_property():
    t_max = Fraction(1, 10)
    violations = 0
    cases = 0
    for n2 in range(2, 21):
        for n1 in range(1, n2):
            for h in range(1, n2 - n1 + 1):
                k = 2 * t_max / h
                # worst case: t1 - t2 = t_max and propagation = t_max
                lhs = t_max + k * (n1 - 1) + t_max
                rhs = k * (n2 - 1)
                cases += 1
                if lhs > rhs:
                    violations += 1
    report("holding-suppression-soundness", violations == 0,
           f"{cases} (n1, n2, h) cases, {violations} violations, exact arithmetic")


# --- criterion: desk-scale trend reproduction -------------------------------

DESK = dict(region_x_m=300.0, region_y_m=300.0, region_z_m=300.0,
            n_sources=5, n_sinks=5, max_sim_time_s=600.0)
DENSITIES = (50, 100, 150)
H_VALUES = (20, 4, 2)  # in order of increasing k = 2 t_max / h
SEEDS = tuple(range(1, 11))


def _trend_run(task):
    protocol, n, h, seed = task
    cfg = ScenarioConfig(protocol=protocol, n_sensors=n, holding_h=h, seed=seed, **DESK)
    record = engine.run(cfg)
    return (record.pdr, record.mean_e2e_delay_s, record.total_energy_j,
            record.network_lifetime_s)


@pytest.fixture(scope="module")
def trend_results():
    t_max = ScenarioConfig(**DESK).t_max_s
    print("trend block: " + ", ".join(f"h = {h}: k = {2.0 * t_max / h:g} s" for h in H_VALUES))
    tasks = [("qlfr", n, h, s) for n in DENSITIES for h in H_VALUES for s in SEEDS]
    tasks += [("dbr", 150, 4, s) for s in SEEDS]
    with ProcessPoolExecutor(max_workers=2) as pool:
        outcomes = list(pool.map(_trend_run, tasks, chunksize=4))
    means = {}
    for key in {(t[0], t[1], t[2]) for t in tasks}:
        rows = [o for t, o in zip(tasks, outcomes) if (t[0], t[1], t[2]) == key]
        means[key] = tuple(statistics.fmean(col) for col in zip(*rows))
    return means


def test_trend_delay_increases_with_k(trend_results):
    details = []
    ok = True
    for n in DENSITIES:
        delays = [trend_results[("qlfr", n, h)][1] for h in H_VALUES]
        ok &= delays[0] < delays[1] < delays[2]
        details.append(f"N={n}: " + " < ".join(f"{d:.4f}" for d in delays))
    report("trend-delay-increases-with-k", ok, "; ".join(details))


def test_trend_pdr_nonincreasing_in_k(trend_results):
    details = []
    ok = True
    for n in DENSITIES:
        pdrs = [trend_results[("qlfr", n, h)][0] for h in H_VALUES]
        ok &= pdrs[0] >= pdrs[1] >= pdrs[2]
        details.append(f"N={n}: " + " >= ".join(f"{p:.4f}" for p in pdrs))
    report("trend-pdr-nonincreasing-in-k", ok, "; ".join(details))


def test_trend_energy_nonincreasing_in_k(trend_results):
    details = []
    ok = True
    for n in DENSITIES:
        energies = [trend_results[("qlfr", n, h)][2] for h in H_VALUES]
        ok &= energies[0] >= energies[1] >= energies[2]
        details.append(f"N={n}: " + " >= ".join(f"{e:.0f}" for e in energies))
    report("trend-energy-nonincreasing-in-k", ok, "; ".join(details))


def test_trend_lifetime_beats_baseline(trend_results):
    qlfr = trend_results[("qlfr", 150, 4)][3]
    dbr = trend_results[("dbr", 150, 4)][3]
    report("trend-lifetime-qlfr-vs-dbr", qlfr >= dbr,
           f"qlfr {qlfr:.0f} s >= dbr {dbr:.0f} s at N=150")


def test_trend_delay_beats_baseline(trend_results):
    qlfr = trend_results[("qlfr", 150, 4)][1]
    dbr = trend_results[("dbr", 150, 4)][1]
    report("trend-delay-qlfr-vs-dbr", qlfr <= dbr,
           f"qlfr {qlfr:.4f} s <= dbr {dbr:.4f} s at N=150")


# --- criterion: determinism --------------------------------------------------

def test_run_determinism(tmp_path):
    cfg_file = tmp_path / "scenario.cfg"
    cfg_file.write_text(
        "world.region_x_m = 300\nworld.region_y_m = 300\nworld.region_z_m = 300\n"
        "world.n_sensors = 40\nworld.n_sources = 4\nworld.n_sinks = 3\n"
        "run.max_sim_time_s = 90\nrun.seed = 21\n")
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["run", "--config", str(cfg_file), "--out", str(out_a)]) == 0
    assert cli.main(["run", "--config", str(cfg_file), "--out", str(out_b)]) == 0
    same = ((out_a / "metrics.csv").read_bytes() == (out_b / "metrics.csv").read_bytes()
            and (out_a / "metrics.json").read_bytes() == (out_b / "metrics.json").read_bytes())
    report("run-determinism", same, "two identical runs, byte-identical CSV and JSON bodies")
