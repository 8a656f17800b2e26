"""Scenario configuration: defaults, flat key-value config files, validation.

Config files are plain text, one `section.key = value` per line, `#` for
comments. Unknown keys and out-of-range values are reported with their line
number. The full effective configuration (defaults included) can be echoed
back out, so a result directory always records exactly what ran.
"""

import dataclasses
import math
from dataclasses import dataclass

from .channel import ChannelParams


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class ScenarioConfig:
    # world
    region_x_m: float = 500.0
    region_y_m: float = 500.0
    region_z_m: float = 500.0
    n_sensors: int = 100
    n_sources: int = 5
    n_sinks: int = 5
    tx_range_m: float = 150.0
    mobility_speed_mps: float = 3.0
    mobility_tick_s: float = 10.0
    hello_interval_s: float = 10.0
    sound_speed_mps: float = 1500.0
    # protocol
    protocol: str = "qlfr"
    gamma: float = 0.8
    alpha: float = 0.5
    holding_h: int = 4
    holding_k_s: float | None = None  # overrides holding_h when set
    initial_list_length: int = 2
    max_list_length: int = 4
    pdr_threshold: float = 0.9
    suppression_interval_s: float = 30.0
    # channel
    frequency_khz: float = 10.0
    spreading_kappa: float = 1.5
    atten_const_a0: float = 1.0
    energy_per_bit: float | None = None  # None: calibrate at startup
    noise_density: float = 1e-9
    packet_bits: int = 512
    bit_rate_bps: float = 10_000.0
    calibration_distance_m: float = 100.0
    calibration_pdr: float = 0.9
    # energy
    tx_power_w: float = 2.0
    rx_power_w: float = 0.5
    initial_node_energy_j: float = 100.0
    # traffic and run control
    source_interval_s: float = 10.0
    max_sim_time_s: float = 600.0
    serialization_delay: bool = True
    seed: int = 1
    replicates: int = 1

    def __post_init__(self):
        """An invalid config cannot exist: every construction, including
        `dataclasses.replace`, validates."""
        self.validate()

    # --- derived quantities ---

    @property
    def region(self) -> tuple[float, float, float]:
        return (self.region_x_m, self.region_y_m, self.region_z_m)

    @property
    def d_max_m(self) -> float:
        """Maximum one-hop depth difference: the transmission range."""
        return self.tx_range_m

    @property
    def t_max_s(self) -> float:
        """Maximal one-hop propagation delay R / v0."""
        return self.tx_range_m / self.sound_speed_mps

    @property
    def staleness_s(self) -> float:
        """Neighbor knowledge expires after two hello periods."""
        return 2.0 * self.hello_interval_s

    def effective_holding_h(self) -> int:
        """Priority-step divisor h; derived from holding_k_s when that is set
        (h = 2 t_max / k rounded to the nearest positive integer)."""
        if self.holding_k_s is None:
            return self.holding_h
        h = round(2.0 * self.t_max_s / self.holding_k_s)
        return max(1, h)

    def channel_params(self, energy_per_bit: float) -> ChannelParams:
        return ChannelParams(
            frequency_khz=self.frequency_khz,
            spreading_kappa=self.spreading_kappa,
            atten_const_A0=self.atten_const_a0,
            energy_per_bit=energy_per_bit,
            noise_density_N0=self.noise_density,
            packet_bits_M=self.packet_bits,
            bit_rate_mu=self.bit_rate_bps,
        )

    def validate(self) -> None:
        for entry in _KEYMAP:
            _check_range(entry, getattr(self, entry[1]))
        if self.n_sources > self.n_sensors:
            raise ConfigError("world.n_sources cannot exceed world.n_sensors")
        if self.max_list_length < self.initial_list_length:
            raise ConfigError("protocol.max_list_length below protocol.initial_list_length")
        step = self.mobility_speed_mps * self.mobility_tick_s
        if not math.isfinite(step):
            raise ConfigError(
                f"world.mobility_speed_mps = {self.mobility_speed_mps!r} times "
                f"world.mobility_tick_s = {self.mobility_tick_s!r} overflows the mobility step")
        for axis, side in zip("xyz", self.region):  # as `world._reflect` folds a step
            if not math.isfinite(2.0 * side + step):
                raise ConfigError(f"world.region_{axis}_m = {side!r}: twice the side plus "
                                  f"the mobility step {step!r} overflows")
        if self.holding_k_s is not None and self.holding_k_s > 2.0 * self.t_max_s:
            raise ConfigError(
                f"protocol.holding_k_s = {self.holding_k_s} exceeds 2*t_max = {2.0 * self.t_max_s}"
            )


def _positive(v) -> bool:
    return v > 0


def _nonnegative(v) -> bool:
    return v >= 0


# key, field, type, range check, range description
_KEYMAP = [
    ("world.region_x_m", "region_x_m", float, _positive, "> 0"),
    ("world.region_y_m", "region_y_m", float, _positive, "> 0"),
    ("world.region_z_m", "region_z_m", float, _positive, "> 0"),
    ("world.n_sensors", "n_sensors", int, lambda v: v >= 1, ">= 1"),
    ("world.n_sources", "n_sources", int, lambda v: v >= 1, ">= 1"),
    ("world.n_sinks", "n_sinks", int, lambda v: v >= 1, ">= 1"),
    ("world.tx_range_m", "tx_range_m", float, _positive, "> 0"),
    ("world.mobility_speed_mps", "mobility_speed_mps", float, _nonnegative, ">= 0"),
    ("world.mobility_tick_s", "mobility_tick_s", float, _positive, "> 0"),
    ("world.hello_interval_s", "hello_interval_s", float, _positive, "> 0"),
    ("world.sound_speed_mps", "sound_speed_mps", float, _positive, "> 0"),
    ("protocol.name", "protocol", str, lambda v: v in ("qlfr", "dbr"), "qlfr or dbr"),
    ("protocol.gamma", "gamma", float, lambda v: 0.0 <= v <= 1.0, "in [0, 1]"),
    ("protocol.alpha", "alpha", float, lambda v: 0.0 < v <= 1.0, "in (0, 1]"),
    ("protocol.holding_h", "holding_h", int, lambda v: v >= 1, ">= 1"),
    ("protocol.holding_k_s", "holding_k_s", float, _positive, "> 0"),
    ("protocol.initial_list_length", "initial_list_length", int, lambda v: v >= 1, ">= 1"),
    ("protocol.max_list_length", "max_list_length", int, lambda v: v >= 1, ">= 1"),
    ("protocol.pdr_threshold", "pdr_threshold", float, lambda v: 0.0 < v < 1.0, "in (0, 1)"),
    ("protocol.suppression_interval_s", "suppression_interval_s", float, _positive, "> 0"),
    ("channel.frequency_khz", "frequency_khz", float, _positive, "> 0"),
    ("channel.spreading_kappa", "spreading_kappa", float, lambda v: 1.0 <= v <= 2.0, "in [1, 2]"),
    ("channel.atten_const_a0", "atten_const_a0", float, _positive, "> 0"),
    ("channel.energy_per_bit", "energy_per_bit", float, _positive, "> 0 or none"),
    ("channel.noise_density", "noise_density", float, _positive, "> 0"),
    ("channel.packet_bits", "packet_bits", int, lambda v: v >= 1, ">= 1"),
    ("channel.bit_rate_bps", "bit_rate_bps", float, _positive, "> 0"),
    ("channel.calibration_distance_m", "calibration_distance_m", float, _positive, "> 0"),
    ("channel.calibration_pdr", "calibration_pdr", float, lambda v: 0.0 < v < 1.0, "in (0, 1)"),
    ("energy.tx_power_w", "tx_power_w", float, _positive, "> 0"),
    ("energy.rx_power_w", "rx_power_w", float, _positive, "> 0"),
    ("energy.initial_node_energy_j", "initial_node_energy_j", float, _positive, "> 0"),
    ("traffic.source_interval_s", "source_interval_s", float, _positive, "> 0"),
    ("run.max_sim_time_s", "max_sim_time_s", float, _positive, "> 0"),
    ("run.serialization_delay", "serialization_delay", bool, lambda v: True, "bool"),
    ("run.seed", "seed", int, lambda v: True, "any int"),
    ("run.replicates", "replicates", int, lambda v: v >= 1, ">= 1"),
]

_KEY_TO_ENTRY = {entry[0]: entry for entry in _KEYMAP}
_OPTIONAL_FIELDS = {"energy_per_bit", "holding_k_s"}


def _check_range(entry, value) -> None:
    """Refuse a value outside its own key's range; None (an unset optional
    field) passes."""
    key, _, typ, check, describe = entry
    if value is None:
        return
    if typ is float and not math.isfinite(value):
        raise ConfigError(f"{key} = {value!r} is not a finite number")
    if not check(value):
        raise ConfigError(f"{key} = {value!r} out of range ({describe})")


def _parse_value(raw: str, typ, field: str):
    raw = raw.strip()
    if field in _OPTIONAL_FIELDS and raw.lower() in ("none", "auto"):
        return None
    if typ is bool:
        if raw.lower() in ("true", "yes", "on", "1"):
            return True
        if raw.lower() in ("false", "no", "off", "0"):
            return False
        raise ValueError(f"not a boolean: {raw!r}")
    if typ is int:
        return int(raw)
    if typ is float:
        return float(raw)
    return raw


def parse_config_text(text: str, source: str = "<config>") -> ScenarioConfig:
    overrides = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {line.strip()!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in _KEY_TO_ENTRY:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        entry = _KEY_TO_ENTRY[key]
        _, field, typ, _, _ = entry
        try:
            value = _parse_value(raw, typ, field)
        except ValueError as exc:
            raise ConfigError(f"{source}:{lineno}: bad value for {key}: {exc}") from exc
        try:
            _check_range(entry, value)
        except ConfigError as exc:
            raise ConfigError(f"{source}:{lineno}: {exc}") from exc
        overrides[field] = value
    try:
        return ScenarioConfig(**overrides)
    except ConfigError as exc:
        raise ConfigError(f"{source}: {exc}") from exc


def parse_config(path) -> ScenarioConfig:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return parse_config_text(text, source=str(path))


def set_key(config: ScenarioConfig, key: str, value) -> ScenarioConfig:
    """Return a copy of `config` with the dotted `key` replaced by `value`."""
    if key not in _KEY_TO_ENTRY:
        raise ConfigError(f"unknown config key {key!r}")
    _, field, typ, _, _ = _KEY_TO_ENTRY[key]
    if isinstance(value, str):
        value = _parse_value(value, typ, field)
    elif value is not None and typ in (int, float):
        value = typ(value)
    return dataclasses.replace(config, **{field: value})


def effective_config_text(config: ScenarioConfig) -> str:
    """Render the full configuration, defaults included, in config-file form."""
    lines = []
    for key, field, typ, _, _ in _KEYMAP:
        value = getattr(config, field)
        if value is None:
            rendered = "none"
        elif typ is bool:
            rendered = "true" if value else "false"
        elif typ is float:
            rendered = repr(float(value))
        else:
            rendered = str(value)
        lines.append(f"{key} = {rendered}")
    return "\n".join(lines) + "\n"
