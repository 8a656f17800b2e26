"""Config parsing, sweep orchestration, result emission, CLI verbs and
reproducibility of emitted files."""

import csv
import dataclasses
import hashlib
import json
import math
import pathlib
import re
import statistics

import pytest

from uwroute import analysis, cli, engine
from uwroute.channel import ChannelParams
from uwroute.cli import aggregate_sweep, run_sweep
from uwroute.config import (_DECLS, ConfigError, ScenarioConfig, channel_fields,
                            effective_config_text, parse_config, parse_config_text, set_key)
from uwroute.qlfr import PacketHeader, holding_time
from uwroute.world import RoutingKnowledge

FAST_SCENARIO = """
world.region_x_m = 300
world.region_y_m = 300
world.region_z_m = 300
world.n_sensors = 25
world.n_sources = 3
world.n_sinks = 2
run.max_sim_time_s = 60
run.seed = 7
"""

# every key set to a valid value other than its default, in the form
# effective_config_text renders it
EVERY_KEY_SET = """\
world.region_x_m = 400.5
world.region_y_m = 410.25
world.region_z_m = 420.125
world.n_sensors = 77
world.n_sources = 4
world.n_sinks = 3
world.tx_range_m = 140.5
world.mobility_speed_mps = 2.5
world.mobility_tick_s = 7.5
world.hello_interval_s = 12.5
world.sound_speed_mps = 1490.5
protocol.name = dbr
protocol.gamma = 0.7
protocol.alpha = 0.25
protocol.holding_h = 6
protocol.initial_list_length = 3
protocol.max_list_length = 5
protocol.pdr_threshold = 0.8
protocol.suppression_interval_s = 25.5
channel.frequency_khz = 12.5
channel.spreading_kappa = 1.75
channel.atten_const_a0 = 1.25
channel.energy_per_bit = 0.001
channel.noise_density = 2e-09
channel.packet_bits = 256
channel.bit_rate_bps = 5000.5
channel.calibration_distance_m = 90.5
channel.calibration_pdr = 0.85
energy.tx_power_w = 2.5
energy.rx_power_w = 0.75
energy.initial_node_energy_j = 150.5
traffic.source_interval_s = 12.5
run.max_sim_time_s = 300.5
run.seed = 42
"""


class TestParseConfig:
    def test_each_channel_param_is_declared_by_one_channel_key(self):
        declared = {decl.key: decl.param for decl in _DECLS if decl.param is not None}
        assert all(key.startswith("channel.") for key in declared)
        assert sorted(declared.values()) == sorted(
            f.name for f in dataclasses.fields(ChannelParams))

    def test_minimal_override_keeps_defaults(self):
        config = parse_config_text("world.n_sensors = 250\n")
        assert config.n_sensors == 250
        assert config.n_sources == 5 and config.n_sinks == 5
        assert config.tx_range_m == 150.0 and config.sound_speed_mps == 1500.0
        assert config.gamma == 0.8
        assert config.tx_power_w == 2.0 and config.rx_power_w == 0.5

    def test_comments_and_blank_lines(self):
        config = parse_config_text("# comment\n\nprotocol.gamma = 0.5 # inline\n")
        assert config.gamma == 0.5

    def test_gamma_out_of_range(self):
        with pytest.raises(ConfigError, match="gamma"):
            parse_config_text("protocol.gamma = 1.5\n")

    def test_range_error_reports_line(self):
        with pytest.raises(ConfigError, match=r"^<config>:2: protocol\.gamma = 1\.5 out of range"):
            parse_config_text("# c\nprotocol.gamma = 1.5\n")
        with pytest.raises(ConfigError, match=r"^cfg:3: world\.n_sensors = 0 out of range"):
            parse_config_text("world.n_sensors = 4\n\nworld.n_sensors = 0\n", source="cfg")

    def test_cross_key_error_reports_file(self):
        # the last line that sets a key the message names
        with pytest.raises(ConfigError, match=r"^<config>:2: world\.n_sources cannot exceed"):
            parse_config_text("world.n_sensors = 3\nworld.n_sources = 4\nrun.seed = 2\n")
        with pytest.raises(ConfigError, match=r"^<config>:3: world\.n_sources cannot exceed"):
            parse_config_text("world.n_sources = 4\n# c\nworld.n_sensors = 3\n")
        with pytest.raises(ConfigError, match=r"^<config>:2: protocol\.max_list_length below "
                                              r"protocol\.initial_list_length$"):
            parse_config_text("protocol.max_list_length = 3\nprotocol.initial_list_length = 4\n"
                              "run.seed = 2\n")
        # below 0.5 ** 512, the delivery probability of default packets at e_b = 0
        with pytest.raises(ConfigError, match=r"^<config>:2: channel\.calibration_pdr = 1e-200 "):
            parse_config_text("run.seed = 2\nchannel.calibration_pdr = 1e-200\n")
        # a value outside its own key's range: that key's line
        with pytest.raises(ConfigError, match=r"^<config>:1: channel\.noise_density = 1e\+300 "
                                              r"out of range \(in \[1e-15, 0\.001\]\)$"):
            parse_config_text("channel.noise_density = 1e300\n")

    def test_unknown_key_reports_line(self, tmp_path, capsys):
        # the second line is a retired key: airtime now always delays an arrival
        for line in ("bogus.key = 1", "run.serialization_delay = false"):
            key = line.split(" = ")[0]
            with pytest.raises(ConfigError, match=rf"^<config>:3: unknown key '{key}'$"):
                parse_config_text(f"# one\nworld.n_sensors = 10\n{line}\n")
            cfg = tmp_path / "unknown.cfg"
            cfg.write_text(FAST_SCENARIO + line + "\n")
            rc = cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "x")])
            assert rc == 2
            assert capsys.readouterr().err.startswith(f"error: {cfg}:")
            assert not (tmp_path / "x").exists()

    def test_readme_examples_are_declared(self):
        # the README's config sample lists defaults, and its sweep example sweeps a key
        readme = (pathlib.Path(__file__).parents[1] / "README.md").read_text()
        sample = re.search(r"```ini\n(.*?)```", readme, re.S).group(1)
        assert parse_config_text(sample, source="README.md") == ScenarioConfig()
        param, values = re.search(r"uwroute sweep .*?--param (\S+).*?--values (\S+)",
                                  readme, re.S).groups()
        for value in values.split(","):
            set_key(ScenarioConfig(), param, value)

    def test_missing_file_reports_path(self):
        with pytest.raises(ConfigError, match="no/such/file"):
            parse_config("no/such/file.cfg")

    def test_bad_value_type(self):
        with pytest.raises(ConfigError, match="n_sensors"):
            parse_config_text("world.n_sensors = many\n")

    def test_auto_energy_per_bit(self):
        config = parse_config_text("channel.energy_per_bit = auto\n")
        assert config.energy_per_bit is None

    def test_effective_config_roundtrip(self):
        config = parse_config_text("world.n_sensors = 123\nprotocol.name = dbr\n")
        echoed = parse_config_text(effective_config_text(config))
        assert echoed == config

    def test_every_field_declares_one_key(self):
        fields = dataclasses.fields(ScenarioConfig)
        keys = [f.metadata["key"] for f in fields]
        assert all(re.fullmatch(r"[a-z]+\.[a-z0-9_]+", key) for key in keys)
        assert len(set(keys)) == len(keys) == len(fields)
        echoed = [line.split(" = ")[0] for line in effective_config_text(ScenarioConfig())
                  .splitlines()]
        assert echoed == keys
        assert "run.replicates" not in keys

    def test_every_key_roundtrips(self):
        config = parse_config_text(EVERY_KEY_SET)
        default = ScenarioConfig()
        for f in dataclasses.fields(ScenarioConfig):
            assert getattr(config, f.name) != getattr(default, f.name), f.name
        assert effective_config_text(config) == EVERY_KEY_SET
        assert parse_config_text(effective_config_text(config)) == config

    @pytest.mark.parametrize("field, value, key", [
        ("n_sources", 2.0, "world.n_sources"),  # a float for an int key
        ("n_sensors", True, "world.n_sensors"),  # a bool for an int key
        ("seed", "3", "run.seed"),
        ("n_sinks", None, "world.n_sinks"),  # None where the default is not None
        ("gamma", "0.8", "protocol.gamma"),  # text for a float key
        ("gamma", True, "protocol.gamma"),  # a bool for a float key
        ("energy_per_bit", False, "channel.energy_per_bit"),
        ("protocol", 1, "protocol.name"),
    ])
    def test_wrong_type_refused(self, field, value, key):
        with pytest.raises(ConfigError, match=rf"^{re.escape(key)} = {re.escape(repr(value))} "
                                              r"is not an? \w+$"):
            ScenarioConfig(**{field: value})

    def test_right_types_accepted(self):
        config = ScenarioConfig(gamma=1, energy_per_bit=None)
        assert (config.gamma, config.energy_per_bit) == (1, None)

    def test_set_key_refuses_fractional_int(self):
        # a truncated 12.7 would run 12 sensors under a row labelled 12.7
        with pytest.raises(ConfigError, match=r"^world\.n_sensors = 12\.7 is not an integer$"):
            set_key(ScenarioConfig(), "world.n_sensors", 12.7)
        assert set_key(ScenarioConfig(), "world.n_sensors", 12.0).n_sensors == 12

    def test_set_key_parse_error_is_config_error(self):
        with pytest.raises(ConfigError, match=r"^bad value for world\.n_sensors: "):
            set_key(ScenarioConfig(), "world.n_sensors", "many")

    @pytest.mark.parametrize("key", [
        "run.max_sim_time_s", "channel.energy_per_bit", "world.region_x_m", "world.tx_range_m",
        "world.hello_interval_s", "world.mobility_speed_mps", "traffic.source_interval_s"])
    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    def test_non_finite_value_refused(self, key, value):
        with pytest.raises(ConfigError, match=key):
            parse_config_text(f"{key} = {value}\n")
        with pytest.raises(ConfigError, match=key):
            set_key(ScenarioConfig(), key, value)

    @pytest.mark.parametrize("value", [10 ** 400, -10 ** 400, 10 ** 5000],
                             ids=["10**400", "-10**400", "10**5000"])
    def test_int_past_every_float_refused(self, value):
        # float(value) overflows, and past 4300 digits repr(value) fails too
        message = r"^world\.tx_range_m = an integer of \d+ bits out of range \(in \[1, 10000\]\)$"
        with pytest.raises(ConfigError, match=message):
            ScenarioConfig(tx_range_m=value)
        with pytest.raises(ConfigError, match=message):
            set_key(ScenarioConfig(), "world.tx_range_m", value)

    @pytest.mark.parametrize("field, key", [("packet_bits", "channel.packet_bits"),
                                            ("holding_h", "protocol.holding_h")])
    def test_int_key_past_every_float_refused(self, field, key):
        # both are divisors in the engine; an integer past 64 bits is shown by its size
        message = rf"{key} = an integer of 1329 bits out of range \(in \[1, [0-9e+]+\]\)$"
        with pytest.raises(ConfigError, match="^" + message):
            ScenarioConfig(**{field: 10 ** 400})
        with pytest.raises(ConfigError, match="^" + message):
            set_key(ScenarioConfig(), key, 10 ** 400)
        with pytest.raises(ConfigError, match=r"^<config>:1: " + message):
            parse_config_text(f"{key} = 1{'0' * 400}\n")

    def test_invalid_config_cannot_be_built(self):
        with pytest.raises(ConfigError, match="n_sources cannot exceed"):
            ScenarioConfig(n_sensors=3, n_sources=4)
        with pytest.raises(ConfigError, match=r"world\.n_sensors = 0 out of range"):
            dataclasses.replace(ScenarioConfig(), n_sensors=0)

    # the only check on these values: the protocols read them from the config
    @pytest.mark.parametrize("field, value", [
        ("gamma", 1.5), ("gamma", -0.1), ("alpha", 0.0), ("alpha", 1.2),
        ("holding_h", 0), ("holding_h", 1.5), ("holding_h", 4.0), ("holding_h", True)])
    def test_protocol_parameter_refused(self, field, value):
        with pytest.raises(ConfigError, match=rf"^protocol\.{field} = "):
            ScenarioConfig(**{field: value})

    def test_set_key_validates(self):
        config = ScenarioConfig()
        assert set_key(config, "world.n_sensors", "50").n_sensors == 50
        with pytest.raises(ConfigError):
            set_key(config, "not.a.key", 1)
        with pytest.raises(ConfigError):
            set_key(config, "protocol.alpha", 0.0)


class TestSweep:
    def small_config(self):
        return parse_config_text(FAST_SCENARIO)

    def test_rows_and_aggregation(self):
        config = self.small_config()
        rows = run_sweep(config, "world.mobility_speed_mps", [1.0, 3.0],
                         replicates=3, jobs=1)
        assert len(rows) == 6
        assert [r["sweep_value"] for r in rows] == [1.0, 1.0, 1.0, 3.0, 3.0, 3.0]
        assert [r["seed"] for r in rows[:3]] == [7, 8, 9]  # base_seed + replicate
        table = aggregate_sweep(rows)
        # reference recomputation straight from the raw rows
        for entry in table:
            samples = [float(r[entry["metric"]]) for r in rows
                       if r["sweep_value"] == entry["sweep_value"]]
            assert entry["mean"] == pytest.approx(statistics.fmean(samples))
            expected_sd = statistics.stdev(samples) if len(samples) > 1 else 0.0
            assert entry["stddev"] == pytest.approx(expected_sd)
            assert entry["n"] == 3

    @pytest.mark.parametrize("samples", [[math.inf, math.inf], [math.nan, 1.0], [math.inf, 1.0]])
    def test_non_finite_replicates_have_nan_stddev(self, samples):
        # a replicate that delivers nothing has a nan delay; lifetime can be inf
        rows = [{"sweep_value": 1.0, **dict.fromkeys(cli.SWEEP_METRICS, 2.0),
                 "mean_e2e_delay_s": sample} for sample in samples]
        table = {entry["metric"]: entry for entry in aggregate_sweep(rows)}
        delay = table["mean_e2e_delay_s"]
        assert math.isnan(delay["stddev"]) and delay["n"] == 2
        assert repr(delay["mean"]) == repr(statistics.fmean(samples))
        assert table["pdr"]["stddev"] == 0.0 and table["pdr"]["mean"] == 2.0

    def test_parallel_matches_serial(self):
        config = self.small_config()
        serial = run_sweep(config, "protocol.holding_h", [4, 2],
                           replicates=2, jobs=1)
        parallel = run_sweep(config, "protocol.holding_h", [4, 2],
                             replicates=2, jobs=2)
        assert serial == parallel

    def test_repeated_value_refused(self):
        # "04" parses to the value of "4": the same runs again
        with pytest.raises(ConfigError, match="repeats"):
            run_sweep(self.small_config(), "protocol.holding_h", ["4", "2", "04"],
                      replicates=1, jobs=1)

    def test_invalid_sweep_key(self):
        with pytest.raises(ConfigError):
            run_sweep(self.small_config(), "world.not_real", [1], replicates=1, jobs=1)

    def test_swept_seed_seeds_the_replicates(self):
        rows = run_sweep(self.small_config(), "run.seed", ["1", "2", "3"], replicates=2, jobs=1)
        assert [r["seed"] for r in rows] == [1, 2, 2, 3, 3, 4]
        by_seed = {}
        for r in rows:
            metrics = tuple(r[m] for m in cli.SWEEP_METRICS)
            assert by_seed.setdefault(r["seed"], metrics) == metrics  # one run per seed
        assert len(set(by_seed.values())) == 4

    # retired keys: --replicates sets the replicates, and protocol.holding_h
    # the holding step k = 2 t_max / h
    RETIRED = {"run.replicates": "3", "protocol.holding_k_s": "0.05"}

    def test_replicates_key_refused(self, tmp_path, capsys):
        cfg = tmp_path / "scenario.cfg"
        cfg.write_text(FAST_SCENARIO)
        for key in self.RETIRED:
            with pytest.raises(ConfigError, match=rf"^unknown config key '{re.escape(key)}'$"):
                run_sweep(self.small_config(), key, ["1", "3"], jobs=1)
            out = tmp_path / "sweep"
            assert cli.main(["sweep", "--config", str(cfg), "--param", key,
                             "--values", "1,3", "--jobs", "1", "--out", str(out)]) == 2
            assert key in capsys.readouterr().err
            assert not out.exists()

    def test_replicates_line_is_an_unknown_key(self, tmp_path, capsys):
        cfg = tmp_path / "scenario.cfg"
        out = tmp_path / "sweep"
        for key, value in self.RETIRED.items():
            cfg.write_text(f"{FAST_SCENARIO}{key} = {value}\n")
            assert cli.main(["sweep", "--config", str(cfg), "--param", "run.seed",
                             "--values", "7", "--jobs", "1", "--out", str(out)]) == 2
            assert f"unknown key '{key}'" in capsys.readouterr().err
            assert not out.exists()
            assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 2
            assert capsys.readouterr().err == f"error: {cfg}:10: unknown key '{key}'\n"
            assert not out.exists()
        assert len(run_sweep(self.small_config(), "run.seed", ["7"], jobs=1)) == 1


class TestEmitResults:
    """The aggregate tables `uwroute sweep` writes as summary.csv and summary.json."""

    @pytest.fixture(scope="class")
    def sweep_out(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("sweep")
        cfg = tmp / "scenario.cfg"
        cfg.write_text(FAST_SCENARIO)
        assert cli.main(["sweep", "--config", str(cfg), "--param", "protocol.holding_h",
                         "--values", "4,2", "--replicates", "2", "--jobs", "1",
                         "--out", str(tmp / "out")]) == 0
        return tmp / "out"

    def test_csv_with_header(self, sweep_out):
        rows = list(csv.reader((sweep_out / "summary.csv").open()))
        assert rows[0] == ["sweep_value", "metric", "mean", "stddev", "n"]
        assert len(rows) == 1 + 2 * len(cli.SWEEP_METRICS)
        runs = list(csv.DictReader((sweep_out / "runs.csv").open()))
        pdrs = [float(r["pdr"]) for r in runs if r["sweep_value"] == "4"]
        assert rows[1][:2] == ["4", "pdr"]
        assert float(rows[1][2]) == statistics.fmean(pdrs)

    def test_json_mirrors_csv(self, sweep_out):
        parsed = json.loads((sweep_out / "summary.json").read_text())
        rows = list(csv.reader((sweep_out / "summary.csv").open()))[1:]
        assert len(rows) == len(parsed)
        for row, entry in zip(rows, parsed):
            assert (row[0], row[1]) == (entry["sweep_value"], entry["metric"])
            assert float(row[2]) == entry["mean"]
            assert float(row[3]) == entry["stddev"]
            assert int(row[4]) == entry["n"]


class TestCliVerbs:
    def write_config(self, tmp_path):
        path = tmp_path / "scenario.cfg"
        path.write_text(FAST_SCENARIO)
        return str(path)

    def test_run_writes_artifacts(self, tmp_path, capsys):
        cfg = self.write_config(tmp_path)
        out = tmp_path / "results"
        rc = cli.main(["run", "--config", cfg, "--out", str(out),
                       "--trace", str(tmp_path / "trace.jsonl")])
        assert rc == 0
        assert (out / "metrics.csv").exists()
        assert (out / "metrics.json").exists()
        assert (out / "snapshot.json").exists()
        assert (out / "effective_config.txt").exists()
        header, row = (out / "metrics.csv").read_text().strip().splitlines()
        assert header.startswith("protocol,seed,n_sensors")
        assert row.startswith("qlfr,7,25")
        # every trace line is one JSON object
        for line in (tmp_path / "trace.jsonl").read_text().splitlines():
            assert isinstance(json.loads(line), dict)

    @pytest.mark.parametrize("h", [1, 4, 7])
    def test_holding_step_has_one_source(self, tmp_path, h):
        """The config's step is the one the protocol ranks with, the run
        reports and the model reads from the run's snapshot."""
        path = tmp_path / "scenario.cfg"
        path.write_text(FAST_SCENARIO + f"run.max_sim_time_s = 20\nprotocol.holding_h = {h}\n")
        cfg = parse_config(path)
        k = cfg.holding_k_s
        assert k == 2.0 * cfg.t_max_s / h
        sim = engine.Simulation(cfg)
        node, others = sim.nodes[0], [n.id for n in sim.nodes[1:cfg.max_list_length]]
        for n in range(1, cfg.max_list_length + 1):
            plist = (*others[:n - 1], node.id)
            header = PacketHeader(9, 0, RoutingKnowledge(0.0, 0.0, 0.0), 9, plist)
            assert sim.protocol.rank(node, header) == (holding_time(n, k), n)
        sim.run()
        assert analysis.load_snapshot(sim.snapshot_topology()).holding_k_s == k
        out = tmp_path / "results"
        assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 0
        assert json.loads((out / "metrics.json").read_text())["metadata"]["holding_k_s"] == k

    def test_run_writes_q_tables_csv(self, tmp_path):
        out = tmp_path / "results"
        assert cli.main(["run", "--config", self.write_config(tmp_path), "--out", str(out)]) == 0
        rows = list(csv.reader((out / "q_tables.csv").open()))
        assert rows[0] == ["node", "neighbor", "q_value"]
        assert len(rows) > 1
        for node_id, neighbor, q in rows[1:]:
            assert float(q) <= 0.0

    def test_run_writes_deployment_csv(self, tmp_path):
        out = tmp_path / "results"
        assert cli.main(["run", "--config", self.write_config(tmp_path), "--out", str(out)]) == 0
        lines = (out / "deployment.csv").read_text().strip().splitlines()
        assert lines[0] == "id,kind,x_m,y_m,z_m,residual_energy_j"
        assert len(lines) == 1 + 25 + 2  # header, sensors, sinks
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] == "source"
        assert 0.0 <= float(first[5]) <= 100.0

    def test_run_is_byte_identical(self, tmp_path):
        cfg = self.write_config(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert cli.main(["run", "--config", cfg, "--out", str(out_a)]) == 0
        assert cli.main(["run", "--config", cfg, "--out", str(out_b)]) == 0
        assert (out_a / "metrics.csv").read_bytes() == (out_b / "metrics.csv").read_bytes()
        assert (out_a / "metrics.json").read_bytes() == (out_b / "metrics.json").read_bytes()

    def test_seed_override_changes_output(self, tmp_path):
        cfg = self.write_config(tmp_path)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert cli.main(["run", "--config", cfg, "--out", str(out_a)]) == 0
        assert cli.main(["run", "--config", cfg, "--seed", "99", "--out", str(out_b)]) == 0
        assert (out_a / "metrics.csv").read_text() != (out_b / "metrics.csv").read_text()

    def test_sweep_verb(self, tmp_path):
        cfg = self.write_config(tmp_path)
        out = tmp_path / "sweep"
        rc = cli.main(["sweep", "--config", cfg, "--param", "protocol.holding_h",
                       "--values", "4,2", "--replicates", "2", "--jobs", "1",
                       "--out", str(out)])
        assert rc == 0
        runs = list(csv.reader((out / "runs.csv").open()))
        assert len(runs) == 5  # header + 2 values x 2 replicates
        summary = list(csv.reader((out / "summary.csv").open()))
        assert summary[0] == ["sweep_value", "metric", "mean", "stddev", "n"]

    def test_snapshot_channel_reads_back_through_the_declarations(self, tmp_path):
        out = tmp_path / "results"
        assert cli.main(["run", "--out", str(out)]) == 0
        block = json.loads((out / "snapshot.json").read_text())["params"]["channel"]
        fields = channel_fields(block)
        params = ScenarioConfig(**fields).channel_params(fields["energy_per_bit"])
        assert dataclasses.asdict(params) == block

    def test_analyze_verb(self, tmp_path):
        cfg = self.write_config(tmp_path)
        out = tmp_path / "results"
        assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
        out2 = tmp_path / "analysis"
        rc = cli.main(["analyze", "--snapshot", str(out / "snapshot.json"),
                       "--out", str(out2)])
        assert rc == 0
        rows = list(csv.reader((out2 / "per_node.csv").open()))
        assert rows[0][0] == "id"
        assert len(rows) == 28  # header + 25 sensors + 2 sinks... sources included
        aggregates = json.loads((out2 / "aggregates.json").read_text())
        assert "network_lifetime_s" in aggregates

    @staticmethod
    def hand_snapshot():
        """Source 0 sends 10 packets of 512 bits at 10 240 bit/s, 0.05 s, at
        2 W straight to sink 1: 1 J; sensor 2, in range of the source only,
        overhears them at 0.5 W: 0.25 J. Over 100 s with 100 J each: 1e4 s
        and 4e4 s."""
        nodes = [{"id": 0, "kind": "source", "x": 0.0, "y": 0.0, "z": 0.0,
                  "generated": 10, "candidates": [1]},
                 {"id": 1, "kind": "sink", "x": 0.0, "y": 0.0, "z": 100.0,
                  "generated": 0, "candidates": []},
                 {"id": 2, "kind": "sensor", "x": 0.0, "y": 140.0, "z": 0.0,
                  "generated": 0, "candidates": []}]
        params = {"protocol": "qlfr", "tx_range_m": 150.0, "sound_speed_mps": 1500.0,
                  "holding_h": 4, "tx_power_w": 2.0, "rx_power_w": 0.5,
                  "initial_node_energy_j": 100.0,
                  "channel": dataclasses.asdict(
                      ScenarioConfig(bit_rate_bps=10240.0).channel_params(1e-3))}
        return {"params": params, "nodes": nodes, "run": {"duration_s": 100.0, "now_s": 100.0}}

    def test_analyze_lifetime_is_the_model_network_lifetime(self, tmp_path):
        # an older snapshot also recorded the airtime; the channel's M/mu wins
        for stale_seconds_per_packet in (None, 5.0):
            hand = self.hand_snapshot()
            if stale_seconds_per_packet is not None:
                hand["params"]["seconds_per_packet"] = stale_seconds_per_packet
            snap = tmp_path / "snapshot.json"
            snap.write_text(json.dumps(hand))
            out = tmp_path / f"analysis-{stale_seconds_per_packet}"
            assert cli.main(["analyze", "--snapshot", str(snap), "--out", str(out)]) == 0
            rows = {int(r["id"]): r for r in csv.DictReader((out / "per_node.csv").open())}
            assert float(rows[0]["lifetime_s"]) == pytest.approx(1e4, rel=1e-12)
            assert float(rows[1]["lifetime_s"]) == math.inf
            assert float(rows[2]["lifetime_s"]) == pytest.approx(4e4, rel=1e-12)
            aggregates = json.loads((out / "aggregates.json").read_text())
            assert aggregates["network_lifetime_s"] == pytest.approx(1e4, rel=1e-12)
            assert aggregates["network_lifetime_s"] == float(rows[0]["lifetime_s"])
            assert aggregates["total_energy_j"] == pytest.approx(1.25, rel=1e-12)
            assert aggregates["run_time_s"] == 100.0

    BAD_SNAPSHOTS = {  # case -> (edit of the hand snapshot, text the error names)
        "infinite-coordinate": (lambda s: s["nodes"][2].update(y=math.inf),
                                "node 2 y must be a finite number, got inf"),
        # entries of the wrong JSON type, each named by node and field
        "text-coordinate": (lambda s: s["nodes"][0].update(x="1"),
                            "node 0 x must be a finite number, got '1'"),
        "boolean-coordinate": (lambda s: s["nodes"][0].update(x=True),
                               "node 0 x must be a finite number, got True"),
        "nan-coordinate": (lambda s: s["nodes"][0].update(z=math.nan),
                           "node 0 z must be a finite number, got nan"),
        # x and y pass, so the error names the axis that failed
        "text-z": (lambda s: s["nodes"][0].update(z="1"),
                   "node 0 z must be a finite number, got '1'"),
        # an unhashable kind is refused as a wrong kind, not with a TypeError
        "list-kind": (lambda s: s["nodes"][2].update(kind=["sink"]),
                      "node 2 has kind ['sink'], not sensor, source or sink"),
        "text-id": (lambda s: s["nodes"][2].update(id="2"), "node id '2' is not an integer"),
        "number-candidates": (lambda s: s["nodes"][0].update(candidates=5),
                              "node 0 candidates must be a list of node ids, got 5"),
        "list-candidate": (lambda s: s["nodes"][0].update(candidates=[[1]]),
                           "candidate [1] of node 0 names no node"),
        "zero-sound-speed": (lambda s: s["params"].update(sound_speed_mps=0),
                             "world.sound_speed_mps = 0 out of range"),
        "text-duration": (lambda s: s["run"].update(duration_s="100"),
                          "run.max_sim_time_s = '100' is not a number"),
        "repeated-id": (lambda s: s["nodes"].append(dict(s["nodes"][2], x=50.0)),
                        "node id 2"),
        "zero-initial-energy": (lambda s: s["params"].update(initial_node_energy_j=0),
                                "energy.initial_node_energy_j = 0 out of range"),
        "infinite-generated": (lambda s: s["nodes"][0].update(generated=math.inf),
                               "node 0 generated"),
        # JSON integers that no float holds
        "huge-coordinate": (lambda s: s["nodes"][0].update(x=10 ** 400),
                            "node 0 x must be a finite number, got an integer of 1329 bits"),
        "huge-generated": (lambda s: s["nodes"][0].update(generated=10 ** 400),
                           "node 0 generated must be a finite number >= 0, "
                           "got an integer of 1329 bits"),
        # integer coordinates that floats hold, whose squared distance none does
        "far-integer-coordinate": (
            lambda s: (s["nodes"][0].update(x=10 ** 300), s["nodes"][1].update(x=0, y=0, z=100)),
            "candidate 1 of node 0 is beyond world.tx_range_m = 150.0 m"),
        "far-integer-coordinates": (
            lambda s: (s["nodes"][0].update(x=10 ** 300, y=0, z=0),
                       s["nodes"][1].update(x=0, y=0, z=100)),
            "candidate 1 of node 0 is beyond world.tx_range_m = 150.0 m"),
        "negative-generated": (lambda s: s["nodes"][0].update(generated=-5), "node 0 generated"),
        "unknown-kind": (lambda s: s["nodes"][2].update(kind="router"), "'router'"),
        "fractional-holding-h": (lambda s: s["params"].update(holding_h=1.5),
                                 "protocol.holding_h = 1.5 is not an integer"),
        "huge-holding-h": (lambda s: s["params"].update(holding_h=10 ** 400),
                           "protocol.holding_h = an integer of 1329 bits out of range"),
        "channel-without-packet-bits": (lambda s: s["params"]["channel"].pop("packet_bits_M"),
                                        "'packet_bits_M'"),
        "infinite-t-max": (lambda s: s["params"].update(tx_range_m=1e308, sound_speed_mps=1e-10),
                           "world.tx_range_m = 1e+308 out of range"),
        "subnormal-A0": (lambda s: s["params"]["channel"].update(atten_const_A0=1e-320),
                         "channel.atten_const_a0 = 1e-320 out of range"),
        "unknown-candidate": (lambda s: s["nodes"][0].update(candidates=[1, 999]),
                              "candidate 999 of node 0 names no node"),
        # the link model's attenuation overflowed at this distance
        "candidate-past-range": (lambda s: s["nodes"][1].update(z=1e7),
                                 "candidate 1 of node 0 is 10000000.0 m away, "
                                 "beyond world.tx_range_m = 150.0 m"),
    }

    @pytest.mark.parametrize("case", list(BAD_SNAPSHOTS))
    def test_analyze_refuses_bad_snapshot(self, tmp_path, capsys, case):
        edit, needle = self.BAD_SNAPSHOTS[case]
        snap = self.hand_snapshot()
        edit(snap)
        path = tmp_path / "snapshot.json"
        path.write_text(json.dumps(snap))
        out = tmp_path / "analysis"
        assert cli.main(["analyze", "--snapshot", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and needle in err
        assert not out.exists()

    def test_analyze_has_no_run_time_option(self, tmp_path, capsys):
        # lifetimes are projected over the snapshot's own run duration
        snap = tmp_path / "snapshot.json"
        snap.write_text(json.dumps(self.hand_snapshot()))
        out = tmp_path / "analysis"
        with pytest.raises(SystemExit) as exc:
            cli.main(["analyze", "--snapshot", str(snap), "--run-time", "60", "--out", str(out)])
        assert exc.value.code == 2
        assert "unrecognized arguments: --run-time 60" in capsys.readouterr().err
        assert not out.exists()

    def test_sweep_refuses_repeated_value(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        rc = cli.main(["sweep", "--config", self.write_config(tmp_path),
                       "--param", "protocol.holding_h", "--values", "4,4",
                       "--replicates", "2", "--jobs", "1", "--out", str(out)])
        assert rc == 2
        assert "'4' repeats" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("jobs", ["0", "-4"])
    def test_sweep_refuses_jobs_below_one(self, tmp_path, capsys, jobs):
        out = tmp_path / "sweep"
        rc = cli.main(["sweep", "--config", self.write_config(tmp_path),
                       "--param", "protocol.holding_h", "--values", "4",
                       "--jobs", jobs, "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err == f"error: --jobs must be >= 1, got {jobs}\n"
        assert not out.exists()

    def test_deep_config_clamps_advertised_depths_and_runs(self, tmp_path):
        # 300 s of mobility lets advertised depths go stale and leave a
        # sender's +-137.3 m window, and at some of these depths
        # depth - 137.3 rounds: the depth cost must clamp, not refuse
        cfg = tmp_path / "deep.cfg"
        cfg.write_text("world.region_x_m = 400\nworld.region_y_m = 400\n"
                       "world.region_z_m = 2000\nworld.n_sensors = 250\n"
                       "world.tx_range_m = 137.3\nrun.max_sim_time_s = 300\nrun.seed = 3\n")
        out = tmp_path / "results"
        assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        for name in ("metrics.csv", "metrics.json", "snapshot.json", "q_tables.csv",
                     "deployment.csv", "effective_config.txt"):
            assert (out / name).exists()

    def test_analyze_refuses_dbr_snapshot(self, tmp_path, capsys):
        cfg = tmp_path / "dbr.cfg"
        cfg.write_text(FAST_SCENARIO + "protocol.name = dbr\n")
        out = tmp_path / "results"
        assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        capsys.readouterr()
        rc = cli.main(["analyze", "--snapshot", str(out / "snapshot.json"),
                       "--out", str(tmp_path / "analysis")])
        assert rc == 2
        assert "dbr" in capsys.readouterr().err

    def test_calibrate_verb(self, tmp_path, capsys):
        rc = cli.main(["calibrate"])
        assert rc == 0
        report = json.loads(capsys.readouterr().out)
        assert report["pdr_at_target"] == pytest.approx(0.9, abs=1e-6)

    @pytest.mark.parametrize("lines, located, message", [
        ("channel.packet_bits = 1\nchannel.calibration_pdr = 0.3\n", "{cfg}:2: ",
         "channel.calibration_pdr = 0.3 at channel.calibration_distance_m = 100.0 with "
         "channel.packet_bits = 1 is out of reach of channel.energy_per_bit = auto: the "
         "delivery probability as e_b goes to 0 is 0.5, not below the target\n"),
        ("channel.calibration_distance_m = 1e7\n", "{cfg}:1: ",
         "channel.calibration_distance_m = 10000000.0 out of range (in [1, 10000])\n"),
        ("channel.noise_density = 1e300\n", "{cfg}:1: ",
         "channel.noise_density = 1e+300 out of range (in [1e-15, 0.001])\n"),
        # the calibration keys are unused by a run with e_b pinned, but `calibrate`
        # reports the delivery probability at the calibration distance
        ("channel.energy_per_bit = 0.001\nchannel.calibration_distance_m = 1e7\n", "{cfg}:2: ",
         "channel.calibration_distance_m = 10000000.0 out of range (in [1, 10000])\n"),
    ], ids=["below-floor", "attenuation-overflows", "past-the-largest-float",
            "pinned-energy-overflows"])
    def test_calibrate_refuses_an_unreachable_target(self, tmp_path, capsys, lines, located,
                                                     message):
        cfg = tmp_path / "far.cfg"
        cfg.write_text(lines)
        rc = cli.main(["calibrate", "--config", str(cfg), "--out", str(tmp_path / "x")])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: {located.format(cfg=cfg)}{message}")
        assert not (tmp_path / "x").exists()

    def test_default_run_pins_learned_q_values_and_snapshot(self, tmp_path):
        out = tmp_path / "results"
        assert cli.main(["run", "--seed", "3", "--out", str(out)]) == 0
        digests = {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
                   for name in ("q_tables.csv", "snapshot.json", "metrics.csv",
                                "deployment.csv")}
        assert digests == {
            "q_tables.csv": "f0820d124df2c29d67e4e448005e2bae174098ad7a34e0fb9f0d834433b25647",
            "metrics.csv": "8e997a517f103a72d1d601474b7de96818d683e97695847a1436e548d7e2a1f6",
            "deployment.csv": "66f1127e819806f2017db0003b180399f55033833c55be11acf9baaf74b69767",
            "snapshot.json": "03712ba9cb004c24963c964daede8876444d0d65587f0e6cc5cd59a20f5bc0ad",
        }

    @pytest.mark.parametrize("case", ["missing-snapshot", "snapshot-without-channel",
                                      "snapshot-not-an-object", "trace-dir-missing"])
    def test_bad_input_is_refused(self, tmp_path, capsys, case):
        snapshot = tmp_path / "snapshot.json"
        if case == "snapshot-without-channel":
            snapshot.write_text('{"params": {}}')
        elif case == "snapshot-not-an-object":
            snapshot.write_text("[1, 2]")
        out = str(tmp_path / "out")
        if case == "trace-dir-missing":
            argv = ["run", "--config", self.write_config(tmp_path), "--out", out,
                    "--trace", str(tmp_path / "no" / "dir" / "t.jsonl")]
        else:
            argv = ["analyze", "--snapshot", str(snapshot), "--out", out]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not (tmp_path / "out").exists()

    def test_overflowing_mobility_step_is_refused(self, tmp_path, capsys):
        # 1e308 m/s times the 10 s tick would overflow to an infinite step
        cfg = tmp_path / "fast.cfg"
        cfg.write_text(FAST_SCENARIO + "world.mobility_speed_mps = 1e308\n")
        rc = cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "x")])
        assert rc == 2
        assert "world.mobility_speed_mps" in capsys.readouterr().err
        with pytest.raises(ConfigError, match=r"world\.mobility_speed_mps"):
            ScenarioConfig(mobility_speed_mps=1e308).validate()

    def test_overflowing_region_is_refused(self, tmp_path, capsys):
        # twice a 1e308 m side would overflow, so a wall reflection would
        # leave an infinite coordinate
        cfg = tmp_path / "huge.cfg"
        cfg.write_text("world.n_sensors = 10\n"
                       + "".join(f"world.region_{a}_m = 1e308\n" for a in "xyz")
                       + "world.mobility_speed_mps = 1e307\nrun.max_sim_time_s = 30\n")
        rc = cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "x")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "world.region_x_m" in err
        assert not (tmp_path / "x").exists()
        with pytest.raises(ConfigError, match=r"world\.region_z_m"):
            ScenarioConfig(region_z_m=8e307, mobility_speed_mps=1e307).validate()

    @pytest.mark.parametrize("key", ["channel.packet_bits", "protocol.holding_h"])
    def test_int_past_every_float_is_refused(self, tmp_path, capsys, key):
        cfg = tmp_path / "huge.cfg"
        cfg.write_text(f"{key} = 1{'0' * 400}\n")
        rc = cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "x")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and f"{key} = an integer of 1329 bits out of range" in err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("lines, needle", [
        ("world.tx_range_m = 1e308\nworld.sound_speed_mps = 1e-10\n",
         ":10: world.tx_range_m = 1e+308 out of range (in [1, 10000])"),
        ("world.tx_range_m = 8e307\nworld.sound_speed_mps = 1.0\nprotocol.holding_h = 1\n",
         ":10: world.tx_range_m = 8e+307 out of range (in [1, 10000])"),
    ], ids=["infinite-t-max", "infinite-last-holding-time"])
    def test_non_finite_holding_step_is_refused(self, tmp_path, capsys, lines, needle):
        # k = 2 t_max / h = inf would make tau(1) = inf * 0 = nan, and a finite k
        # the last candidate's tau = k * (max_list_length - 1) = inf
        cfg = tmp_path / "hold.cfg"
        cfg.write_text(FAST_SCENARIO + lines)
        rc = cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "x")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and needle in err
        assert not (tmp_path / "x").exists()
        with pytest.raises(ConfigError, match=r"^world\.tx_range_m = 1e\+308 out of range"):
            ScenarioConfig(tx_range_m=1e308, sound_speed_mps=1e-10)
        with pytest.raises(ConfigError, match=r"^world\.tx_range_m = 8e\+307 out of range"):
            ScenarioConfig(tx_range_m=8e307, sound_speed_mps=1.0, holding_h=1)

    def test_range_whose_attenuation_overflows_is_refused(self, tmp_path, capsys):
        # the first link longer than about 2.5e6 m at 10 kHz would raise OverflowError
        # mid-run; the region of this scenario is past its range first
        far = dict(n_sensors=20, n_sources=2, n_sinks=2, region_x_m=5e6, region_y_m=5e6,
                   region_z_m=5e6, sound_speed_mps=1e7, max_sim_time_s=20.0)
        with pytest.raises(ConfigError, match=r"^world\.region_x_m = 5000000\.0 out of range"):
            ScenarioConfig(tx_range_m=4e6, **far)
        cfg = tmp_path / "far.cfg"
        cfg.write_text(FAST_SCENARIO + "world.tx_range_m = 4e6\n")
        rc = cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "x")])
        assert rc == 2
        assert capsys.readouterr().err == (f"error: {cfg}:10: world.tx_range_m = 4000000.0 "
                                           "out of range (in [1, 10000])\n")
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("verb", ["run", "calibrate"])
    @pytest.mark.parametrize("line", ["channel.energy_per_bit = 1e308",
                                      "channel.atten_const_a0 = 1e-320"])
    def test_value_past_its_physical_range_is_refused(self, tmp_path, capsys, verb, line):
        # e_b = 1e308 would make every link probability nan and a run report pdr
        # 0, and A0 = 1e-320 would make the link model divide by zero
        cfg = tmp_path / "past.cfg"
        cfg.write_text(FAST_SCENARIO + line + "\n")
        assert cli.main([verb, "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
        key, value = line.split(" = ")
        assert capsys.readouterr().err.startswith(
            f"error: {cfg}:10: {key} = {float(value)!r} out of range")
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("key", ["world.n_sensors", "world.n_sinks"])
    def test_node_count_past_the_ceiling_is_refused(self, tmp_path, capsys, monkeypatch, key):
        message = (rf"^<config>:2: {re.escape(key)} = 100000000000 "
                   r"out of range \(in \[1, 100000\]\)$")
        with pytest.raises(ConfigError, match=message):
            parse_config_text(f"# c\n{key} = 100000000000\n")
        assert parse_config_text(f"{key} = 100000\n") is not None  # the ceiling itself passes
        monkeypatch.setattr(engine, "deploy", lambda *a: pytest.fail("deployed"))
        cfg = tmp_path / "huge.cfg"
        cfg.write_text(f"{key} = 100000000000\n")
        rc = cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "x")])
        assert rc == 2
        assert capsys.readouterr().err.startswith(f"error: {cfg}:1: {key} = 100000000000")
        assert not (tmp_path / "x").exists()

    def test_negative_seed_in_a_file_is_refused(self, tmp_path, capsys):
        # Random(-5) seeds exactly as Random(5) does, so -5 would name 5's stream
        cfg = tmp_path / "negative.cfg"
        cfg.write_text(FAST_SCENARIO + "run.seed = -5\n")
        assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err == (f"error: {cfg}:10: run.seed = -5 "
                                           "out of range (>= 0)\n")
        assert not (tmp_path / "x").exists()
        with pytest.raises(ConfigError, match=r"^run\.seed = -1 out of range"):
            set_key(ScenarioConfig(), "run.seed", -1)
        assert set_key(ScenarioConfig(), "run.seed", 0).seed == 0

    @pytest.mark.parametrize("argv", [["run", "--seed", "-1"], ["sweep", "--seed", "-1"],
                                      ["sweep", "--param", "run.seed", "--values=-1,0"]])
    def test_negative_seed_override_is_refused(self, tmp_path, capsys, argv):
        if argv[0] == "sweep" and "--param" not in argv:
            argv = argv + ["--param", "protocol.gamma", "--values", "0.5"]
        cfg = self.write_config(tmp_path)
        out = tmp_path / "x"
        assert cli.main([*argv, "--config", cfg, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: run.seed = -1 out of range (>= 0)")
        assert not out.exists()

    def test_bad_config_is_reported(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("protocol.gamma = 2.0\n")
        rc = cli.main(["run", "--config", str(bad), "--out", str(tmp_path / "x")])
        assert rc == 2
        assert "gamma" in capsys.readouterr().err
