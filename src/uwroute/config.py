"""Scenario configuration: defaults, flat key-value config files, validation.

Each `ScenarioConfig` field is the one declaration of its config key: it holds
the `section.key` name, the default and the range check with its description.
A value's type is the field's annotation with `None` removed, and a field may
be `None` exactly when its default is. Parsing, validation, `set_key` and the
echoed configuration all read these declarations.

Config files are plain text, one `section.key = value` per line, `#` for
comments. Unknown keys, values of the wrong type and out-of-range values are
reported with their line number. The full effective configuration (defaults
included) can be echoed back out, so a result directory always records
exactly what ran.
"""

import dataclasses
import math
import sys
import typing
from dataclasses import dataclass

from . import channel as chan
from .channel import ChannelParams
from .qlfr import HoldingParams, holding_time


class ConfigError(ValueError):
    pass


# ranges: a check and how error messages state it
_ANY = (lambda v: True, "")
_POSITIVE = (lambda v: v > 0, "> 0")
_COUNT = (lambda v: v >= 1, ">= 1")
# about 60 times the largest scenario measured, 1600 nodes
_NODES = (lambda v: 1 <= v <= 100_000, "in [1, 100000]")
_PROBABILITY = (lambda v: 0.0 < v < 1.0, "in (0, 1)")


def _key(name: str, default, valid=_ANY):
    """A field declaring config key `name` (`section.key`), its default and
    its range `valid`."""
    return dataclasses.field(default=default, metadata={"key": name, "range": valid})


@dataclass(frozen=True)
class ScenarioConfig:
    region_x_m: float = _key("world.region_x_m", 500.0, _POSITIVE)
    region_y_m: float = _key("world.region_y_m", 500.0, _POSITIVE)
    region_z_m: float = _key("world.region_z_m", 500.0, _POSITIVE)
    n_sensors: int = _key("world.n_sensors", 100, _NODES)
    n_sources: int = _key("world.n_sources", 5, _COUNT)
    n_sinks: int = _key("world.n_sinks", 5, _NODES)
    tx_range_m: float = _key("world.tx_range_m", 150.0, _POSITIVE)
    mobility_speed_mps: float = _key("world.mobility_speed_mps", 3.0, (lambda v: v >= 0, ">= 0"))
    mobility_tick_s: float = _key("world.mobility_tick_s", 10.0, _POSITIVE)
    hello_interval_s: float = _key("world.hello_interval_s", 10.0, _POSITIVE)
    sound_speed_mps: float = _key("world.sound_speed_mps", 1500.0, _POSITIVE)
    protocol: str = _key("protocol.name", "qlfr", (lambda v: v in ("qlfr", "dbr"), "qlfr or dbr"))
    gamma: float = _key("protocol.gamma", 0.8, (lambda v: 0.0 <= v <= 1.0, "in [0, 1]"))
    alpha: float = _key("protocol.alpha", 0.5, (lambda v: 0.0 < v <= 1.0, "in (0, 1]"))
    holding_h: int = _key("protocol.holding_h", 4, _COUNT)
    # overrides holding_h when set
    holding_k_s: float | None = _key("protocol.holding_k_s", None, _POSITIVE)
    initial_list_length: int = _key("protocol.initial_list_length", 2, _COUNT)
    max_list_length: int = _key("protocol.max_list_length", 4, _COUNT)
    pdr_threshold: float = _key("protocol.pdr_threshold", 0.9, _PROBABILITY)
    suppression_interval_s: float = _key("protocol.suppression_interval_s", 30.0, _POSITIVE)
    frequency_khz: float = _key("channel.frequency_khz", 10.0, _POSITIVE)
    spreading_kappa: float = _key("channel.spreading_kappa", 1.5,
                                  (lambda v: 1.0 <= v <= 2.0, "in [1, 2]"))
    atten_const_a0: float = _key("channel.atten_const_a0", 1.0, _POSITIVE)
    # None: calibrate at startup
    energy_per_bit: float | None = _key("channel.energy_per_bit", None,
                                        (lambda v: v > 0, "> 0 or none"))
    noise_density: float = _key("channel.noise_density", 1e-9, _POSITIVE)
    packet_bits: int = _key("channel.packet_bits", 512, _COUNT)
    bit_rate_bps: float = _key("channel.bit_rate_bps", 10_000.0, _POSITIVE)
    calibration_distance_m: float = _key("channel.calibration_distance_m", 100.0, _POSITIVE)
    calibration_pdr: float = _key("channel.calibration_pdr", 0.9, _PROBABILITY)
    tx_power_w: float = _key("energy.tx_power_w", 2.0, _POSITIVE)
    rx_power_w: float = _key("energy.rx_power_w", 0.5, _POSITIVE)
    initial_node_energy_j: float = _key("energy.initial_node_energy_j", 100.0, _POSITIVE)
    source_interval_s: float = _key("traffic.source_interval_s", 10.0, _POSITIVE)
    max_sim_time_s: float = _key("run.max_sim_time_s", 600.0, _POSITIVE)
    seed: int = _key("run.seed", 1)

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
        return round(2.0 * self.t_max_s / self.holding_k_s)

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
        for decl in _DECLS:
            _check(decl, getattr(self, decl.field))
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
        two_t_max = 2.0 * self.t_max_s
        if not math.isfinite(two_t_max):
            raise ConfigError(f"world.tx_range_m / world.sound_speed_mps: 2*t_max = "
                              f"{two_t_max!r} is not finite")
        if self.holding_k_s is not None and self.holding_k_s > two_t_max:
            raise ConfigError(f"protocol.holding_k_s = {self.holding_k_s} exceeds 2*t_max = "
                              f"{two_t_max}")
        if self.holding_k_s is not None and not math.isfinite(two_t_max / self.holding_k_s):
            raise ConfigError(f"protocol.holding_k_s = {self.holding_k_s!r}: 2*t_max / "
                              "holding_k_s is not finite")
        holding = HoldingParams(self.effective_holding_h(), self.t_max_s)
        last = holding_time(self.max_list_length, holding)
        if not math.isfinite(last):
            step_key = "protocol.holding_h" if self.holding_k_s is None else "protocol.holding_k_s"
            raise ConfigError(f"the holding step k = {holding.k!r} s (world.tx_range_m, "
                              f"world.sound_speed_mps, {step_key}) times "
                              f"protocol.max_list_length - 1 = {self.max_list_length - 1} "
                              f"is {last!r}, not finite")
        # where attenuation overflows does not depend on e_b
        delivery_prob = chan.link_model(self.channel_params(self.energy_per_bit or 1.0))
        if chan.attenuation_overflows(delivery_prob, self.tx_range_m):
            raise ConfigError(f"world.tx_range_m = {self.tx_range_m!r}: the link attenuation "
                              f"at that range overflows at channel.frequency_khz = "
                              f"{self.frequency_khz!r}")
        if self.energy_per_bit is None:
            reason = chan.calibration_target_error(delivery_prob, self.packet_bits,
                                                   self.calibration_distance_m,
                                                   self.calibration_pdr)
            if reason is not None:
                raise ConfigError(
                    f"channel.calibration_pdr = {self.calibration_pdr!r} at "
                    f"channel.calibration_distance_m = {self.calibration_distance_m!r} with "
                    f"channel.packet_bits = {self.packet_bits} is out of reach of "
                    f"channel.energy_per_bit = auto: {reason}")


class _Decl(typing.NamedTuple):
    """One field's declaration, read once from its `dataclasses.Field`."""

    key: str  # section.key
    field: str
    type: type  # the annotation with None removed
    optional: bool  # default None: "none" and "auto" parse to None
    check: typing.Callable
    describe: str  # the range as error messages state it


def _declared(f: dataclasses.Field) -> _Decl:
    typ = next(t for t in typing.get_args(f.type) or (f.type,) if t is not type(None))
    return _Decl(f.metadata["key"], f.name, typ, f.default is None, *f.metadata["range"])


_DECLS = tuple(_declared(f) for f in dataclasses.fields(ScenarioConfig))
_BY_KEY = {decl.key: decl for decl in _DECLS}

# what a value of each declared type may be, and what an error calls it;
# a bool is an int to Python, but no key takes one
_ACCEPTS = {int: ((int,), "an integer"), float: ((int, float), "a number"),
            str: ((str,), "a string")}


def _check(decl: _Decl, value) -> None:
    """Refuse a value of the wrong type or outside its own key's range; None
    passes for an optional key."""
    if value is None and decl.optional:
        return
    types, kind = _ACCEPTS[decl.type]
    if not isinstance(value, types) or isinstance(value, bool):
        raise ConfigError(f"{decl.key} = {value!r} is not {kind}")
    if type(value) is int and not abs(value) <= sys.float_info.max:  # an int or float key
        raise ConfigError(f"{decl.key}: an integer of {value.bit_length()} bits is past "
                          "every finite float")  # and may be too long to print
    if decl.type is float and not math.isfinite(value):
        raise ConfigError(f"{decl.key} = {value!r} is not a finite number")
    if not decl.check(value):
        raise ConfigError(f"{decl.key} = {value!r} out of range ({decl.describe})")


def _parse(decl: _Decl, raw: str):
    raw = raw.strip()
    if decl.optional and raw.lower() in ("none", "auto"):
        return None
    try:
        return decl.type(raw)
    except ValueError as exc:
        raise ConfigError(f"bad value for {decl.key}: {exc}") from exc


def parse_config_text(text: str, source: str = "<config>") -> ScenarioConfig:
    """A config from file text. An error names `source` and the line it was
    found on; a refusal that involves several keys names the last line that
    sets one of the keys its message names."""
    overrides, lines = {}, {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{source}:{lineno}: expected 'key = value', got {line.strip()!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in _BY_KEY:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        decl = _BY_KEY[key]
        try:
            value = _parse(decl, raw)
            _check(decl, value)
        except ConfigError as exc:
            raise ConfigError(f"{source}:{lineno}: {exc}") from exc
        overrides[decl.field] = value
        lines[key] = lineno
    try:
        return ScenarioConfig(**overrides)
    except ConfigError as exc:
        named = [lineno for key, lineno in lines.items() if key in str(exc)]
        where = f"{source}:{max(named)}" if named else source
        raise ConfigError(f"{where}: {exc}") from exc


def parse_config(path) -> ScenarioConfig:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return parse_config_text(text, source=str(path))


def set_key(config: ScenarioConfig, key: str, value) -> ScenarioConfig:
    """Return a copy of `config` with the dotted `key` replaced by `value`.
    A string is parsed as in a config file; a whole-number float for an int
    key becomes that int, and an int for a float key a float when one holds
    it. Any other value must already have the key's type."""
    if key not in _BY_KEY:
        raise ConfigError(f"unknown config key {key!r}")
    decl = _BY_KEY[key]
    if isinstance(value, str):
        value = _parse(decl, value)
    elif decl.type is int and isinstance(value, float) and value.is_integer():
        value = int(value)
    elif decl.type is float and type(value) is int and abs(value) <= sys.float_info.max:
        value = float(value)
    return dataclasses.replace(config, **{decl.field: value})


def effective_config_text(config: ScenarioConfig) -> str:
    """Render the full configuration, defaults included, in config-file form."""
    lines = []
    for decl in _DECLS:
        value = getattr(config, decl.field)
        if value is None:
            rendered = "none"
        elif decl.type is float:
            rendered = repr(float(value))
        else:
            rendered = str(value)
        lines.append(f"{decl.key} = {rendered}")
    return "\n".join(lines) + "\n"
