"""Scenario configuration: defaults, flat key-value config files, validation.

Each `ScenarioConfig` field is the one declaration of its config key: it holds
the `section.key` name, the default and its physical range, whose reason is
written beside it. Within the ranges nothing derived from a config overflows,
so nothing downstream checks for overflow. A value's type is the field's
annotation with `None` removed, and a field may be `None` exactly when its
default is. A `channel.*` field that sets a `ChannelParams` field also
declares that field, so `channel_params` and the snapshot loader map between
the two from the declarations alone. Parsing, validation, `set_key`, the
echoed configuration and the snapshot loader all read these declarations.

Config files are plain text, one `section.key = value` per line, `#` for
comments. Unknown keys, values of the wrong type and out-of-range values are
reported with their line number. The full effective configuration (defaults
included) can be echoed back out, so a result directory always records
exactly what ran.
"""

import dataclasses
import typing
from dataclasses import dataclass

from . import channel as chan
from .channel import ChannelParams


class ConfigError(ValueError):
    pass


def _within(lo, hi):
    """The range [lo, hi]: a check, how error messages state it, and its
    bounds. Both are finite, so nan and the infinities fall outside."""
    return (lambda v: lo <= v <= hi, f"in [{lo:g}, {hi:g}]", (lo, hi))


# Every number has a physical range, taken from the band where the link
# model A(l, f) = A0 l^kappa a(f)^l with Thorpe absorption a(f) is used
# (Stojanovic, WUWNet 2006). Within them nothing the program derives
# overflows: at the joint corner of 100 kHz, 10 km, kappa = 2 and A0 = 1e3
# the attenuation is about 1e119.
_SIDE = _within(1.0, 10_000.0)  # m: from a test tank to the reach of a long-range modem
_INTERVAL = _within(0.1, 86_400.0)  # s: about two packet airtimes at the defaults, to a day
# about 60 times the largest scenario measured, 1600 nodes
_NODES = _within(1, 100_000)
_LIST = _within(1, 100)  # candidates in one priority list
_POWER = _within(1e-3, 1e3)  # W: from a milliwatt to a kilowatt
_PROBABILITY = (lambda v: 0.0 < v < 1.0, "in (0, 1)", None)


def _key(name: str, default, valid, param: str | None = None):
    """A field declaring config key `name` (`section.key`), its default, its
    range `valid` and the `ChannelParams` field `param` it sets, if any."""
    return dataclasses.field(default=default, metadata=dict(key=name, range=valid, param=param))


@dataclass(frozen=True)
class ScenarioConfig:
    region_x_m: float = _key("world.region_x_m", 500.0, _SIDE)
    region_y_m: float = _key("world.region_y_m", 500.0, _SIDE)
    region_z_m: float = _key("world.region_z_m", 500.0, _SIDE)
    n_sensors: int = _key("world.n_sensors", 100, _NODES)
    n_sources: int = _key("world.n_sources", 5, _NODES)
    n_sinks: int = _key("world.n_sinks", 5, _NODES)
    tx_range_m: float = _key("world.tx_range_m", 150.0, _SIDE)
    # m/s: from still water to a fast AUV
    mobility_speed_mps: float = _key("world.mobility_speed_mps", 3.0, _within(0.0, 30.0))
    mobility_tick_s: float = _key("world.mobility_tick_s", 10.0, _INTERVAL)
    hello_interval_s: float = _key("world.hello_interval_s", 10.0, _INTERVAL)
    # m/s: sound in seawater
    sound_speed_mps: float = _key("world.sound_speed_mps", 1500.0, _within(1400.0, 1600.0))
    protocol: str = _key("protocol.name", "qlfr",
                         (lambda v: v in ("qlfr", "dbr"), "qlfr or dbr", None))
    gamma: float = _key("protocol.gamma", 0.8, _within(0.0, 1.0))
    alpha: float = _key("protocol.alpha", 0.5, (lambda v: 0.0 < v <= 1.0, "in (0, 1]", None))
    # the holding step k = 2 t_max / h: every h down to a 1 ms step at the
    # longest t_max, 2 (10 km / 1400 m/s) / 1 ms, about 14 286
    holding_h: int = _key("protocol.holding_h", 4, _within(1, 20_000))
    initial_list_length: int = _key("protocol.initial_list_length", 2, _LIST)
    max_list_length: int = _key("protocol.max_list_length", 4, _LIST)
    pdr_threshold: float = _key("protocol.pdr_threshold", 0.9, _PROBABILITY)
    suppression_interval_s: float = _key("protocol.suppression_interval_s", 30.0, _INTERVAL)
    # kHz: the acoustic band, where Thorpe's absorption formula holds
    frequency_khz: float = _key("channel.frequency_khz", 10.0, _within(0.1, 100.0),
                                param="frequency_khz")
    # cylindrical to spherical spreading
    spreading_kappa: float = _key("channel.spreading_kappa", 1.5, _within(1.0, 2.0),
                                  param="spreading_kappa")
    # 30 dB either side of the unit normalisation
    atten_const_a0: float = _key("channel.atten_const_a0", 1.0, _within(1e-3, 1e3),
                                 param="atten_const_A0")
    # None: calibrate at startup. J/bit: holds every e_b that calibration
    # gives within these ranges (about 3e-50 to 2e131) and a 1e25 "perfect
    # channel", while e_b / (N0 A) stays finite on every link of 1 m or more
    energy_per_bit: float | None = _key("channel.energy_per_bit", None, _within(1e-60, 1e150),
                                        param="energy_per_bit")
    # W/Hz: six decades either side of the default; only e_b / N0 reaches a link
    noise_density: float = _key("channel.noise_density", 1e-9, _within(1e-15, 1e-3),
                                param="noise_density_N0")
    # bits: from one bit to a megabit
    packet_bits: int = _key("channel.packet_bits", 512, _within(1, 1_000_000),
                            param="packet_bits_M")
    # bit/s: up to 1e9, which stands for zero airtime
    bit_rate_bps: float = _key("channel.bit_rate_bps", 10_000.0, _within(1.0, 1e9),
                               param="bit_rate_mu")
    calibration_distance_m: float = _key("channel.calibration_distance_m", 100.0, _SIDE)
    calibration_pdr: float = _key("channel.calibration_pdr", 0.9, _PROBABILITY)
    tx_power_w: float = _key("energy.tx_power_w", 2.0, _POWER)
    rx_power_w: float = _key("energy.rx_power_w", 0.5, _POWER)
    # J: up to about 280 kWh
    initial_node_energy_j: float = _key("energy.initial_node_energy_j", 100.0, _within(1.0, 1e9))
    source_interval_s: float = _key("traffic.source_interval_s", 10.0, _INTERVAL)
    # s: up to about three years
    max_sim_time_s: float = _key("run.max_sim_time_s", 600.0, _within(0.1, 1e8))
    # Random(-n) seeds as Random(n) does, so a seed >= 0 names one stream
    seed: int = _key("run.seed", 1, (lambda v: v >= 0, ">= 0", None))

    def __post_init__(self):
        """An invalid config cannot exist: every construction, including
        `dataclasses.replace`, validates."""
        self.validate()

    # --- derived quantities ---

    @property
    def region(self) -> tuple[float, float, float]:
        return (self.region_x_m, self.region_y_m, self.region_z_m)

    @property
    def t_max_s(self) -> float:
        """Maximal one-hop propagation delay R / v0."""
        return self.tx_range_m / self.sound_speed_mps

    @property
    def holding_k_s(self) -> float:
        """qlfr's holding-time step between adjacent priorities, 2 t_max / h."""
        return 2.0 * self.t_max_s / self.holding_h

    @property
    def staleness_s(self) -> float:
        """Neighbor knowledge expires after two hello periods."""
        return 2.0 * self.hello_interval_s

    # Only `perfbench/workloads.py` calls it, so it goes with the next
    # benchmark change (ROADMAP item 1).
    def effective_holding_h(self) -> int:
        return self.holding_h

    def channel_params(self, energy_per_bit: float) -> ChannelParams:
        """The channel the declared keys set, at `energy_per_bit` in place of
        the key's own value, which is None when e_b is calibrated."""
        return ChannelParams(**{
            decl.param: energy_per_bit if decl.field == "energy_per_bit"
            else getattr(self, decl.field) for decl in _CHANNEL})

    def validate(self) -> None:
        for decl in _DECLS:
            _check(decl, getattr(self, decl.field))
        if self.n_sources > self.n_sensors:
            raise ConfigError("world.n_sources cannot exceed world.n_sensors")
        if self.max_list_length < self.initial_list_length:
            raise ConfigError("protocol.max_list_length below protocol.initial_list_length")
        if self.energy_per_bit is None:
            reason = chan.calibration_target_error(chan.link_model(self.channel_params(1.0)),
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
    bounds: tuple | None  # (lo, hi) of a closed range
    param: str | None  # the ChannelParams field a channel key sets


def _declared(f: dataclasses.Field) -> _Decl:
    typ = next(t for t in typing.get_args(f.type) or (f.type,) if t is not type(None))
    return _Decl(f.metadata["key"], f.name, typ, f.default is None, *f.metadata["range"],
                 f.metadata["param"])


_DECLS = tuple(_declared(f) for f in dataclasses.fields(ScenarioConfig))
_BY_KEY = {decl.key: decl for decl in _DECLS}
_CHANNEL = tuple(decl for decl in _DECLS if decl.param is not None)


def channel_fields(channel: dict) -> dict:
    """The `ScenarioConfig` fields that a channel in `dataclasses.asdict`
    form sets, by field name; a channel that lacks one raises KeyError."""
    return {decl.field: channel[decl.param] for decl in _CHANNEL}


# what a value of each declared type may be, and what an error calls it;
# a bool is an int to Python, but no key takes one
_ACCEPTS = {int: ((int,), "an integer"), float: ((int, float), "a number"),
            str: ((str,), "a string")}


def shown(value) -> str:
    """`repr(value)` for an error message, but the size of a long integer,
    since repr cannot print one of more than 4300 digits."""
    if type(value) is int and value.bit_length() > 64:
        return f"an integer of {value.bit_length()} bits"
    return repr(value)


def _check(decl: _Decl, value) -> None:
    """Refuse a value of the wrong type or outside its own key's range; None
    passes for an optional key."""
    if value is None and decl.optional:
        return
    types, kind = _ACCEPTS[decl.type]
    if not isinstance(value, types) or isinstance(value, bool):
        raise ConfigError(f"{decl.key} = {value!r} is not {kind}")
    if not decl.check(value):
        none = " or none" if decl.optional else ""
        raise ConfigError(f"{decl.key} = {shown(value)} out of range ({decl.describe}{none})")


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
    sets one of the keys its message names. Each such refusal in `validate`
    names a key that the file must set for it to fire, so there is one."""
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
        named = max(lineno for key, lineno in lines.items() if key in str(exc))
        raise ConfigError(f"{source}:{named}: {exc}") from exc


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
    elif decl.type is float and type(value) is int and decl.check(value):
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
