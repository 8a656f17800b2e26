"""Underwater acoustic channel model.

Pure functions for the physical layer: Thorpe absorption, path attenuation,
mean SNR, Rayleigh-faded BPSK bit error rate, and whole-packet delivery
probability. Frequencies are in kHz, distances in meters unless a name says
otherwise. All functions are stateless and thread-safe.

`link_model(params)` is the one production form of the link delivery
probability, bit-equal to the closed-form chain; the engine, the analytical
model's snapshot loader and calibration all go through it, the first two by
way of `link`, which makes a squared length the link's (propagation delay,
delivery probability). Calibration builds one link model and evaluates it at
each trial e_b. A target at or below the delivery probability as e_b goes to
0 is refused through `calibration_target_error`, by `ScenarioConfig` and
calibration alike; the ranges `ScenarioConfig` declares keep every other
target within a finite e_b.

Unit convention for attenuation: the Thorpe formula yields dB per km, so the
absorption factor a(f)^l is exponentiated with the distance in kilometers,
while the spreading term l^kappa uses meters. Exponentiating per meter would
make a 150 m link numerically dead at any realistic frequency.
"""

import math
from dataclasses import dataclass, replace


@dataclass(frozen=True)
class ChannelParams:
    """Acoustic link parameters.

    frequency_khz: carrier frequency f (kHz)
    spreading_kappa: spreading loss exponent, in [1, 2]
    atten_const_A0: constant attenuation factor (dimensionless)
    energy_per_bit: transmit energy per bit (J/bit)
    noise_density_N0: AWGN power density (W/Hz)
    packet_bits_M: packet size (bits)
    bit_rate_mu: transmission rate (bit/s)
    """

    frequency_khz: float
    spreading_kappa: float
    atten_const_A0: float
    energy_per_bit: float
    noise_density_N0: float
    packet_bits_M: int
    bit_rate_mu: float

    def __post_init__(self):
        if self.frequency_khz <= 0:
            raise ValueError(f"frequency_khz must be > 0, got {self.frequency_khz}")
        if not 1.0 <= self.spreading_kappa <= 2.0:
            raise ValueError(f"spreading_kappa must be in [1, 2], got {self.spreading_kappa}")
        for name in ("atten_const_A0", "energy_per_bit", "noise_density_N0", "bit_rate_mu"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")
        if self.packet_bits_M < 1:
            raise ValueError(f"packet_bits_M must be >= 1, got {self.packet_bits_M}")

    @property
    def serialization_s(self) -> float:
        """Time to clock one packet onto the channel, M/mu."""
        return self.packet_bits_M / self.bit_rate_mu


def thorpe_absorption_db_per_km(f: float) -> float:
    """Thorpe absorption coefficient 10*log a(f), in dB/km, for f in kHz."""
    if f <= 0:
        raise ValueError(f"frequency must be > 0 kHz, got {f}")
    f2 = f * f
    return 2.75e-4 * f2 + 44.0 * f2 / (4100.0 + f) + 0.11 * f2 / (1.0 + f2) + 1e-3


def attenuation(l: float, params: ChannelParams) -> float:
    """Path attenuation A(l, f) = A0 * l^kappa * a(f)^(l/1000), linear ratio.

    Spreading uses l in meters; the absorption exponent uses kilometers (see
    module docstring).
    """
    if l <= 0:
        raise ValueError(f"distance must be > 0 m, got {l}")
    a_db_km = thorpe_absorption_db_per_km(params.frequency_khz)
    a_linear = 10.0 ** (a_db_km / 10.0)
    return params.atten_const_A0 * l**params.spreading_kappa * a_linear ** (l / 1000.0)


def mean_snr(l: float, params: ChannelParams) -> float:
    """Average received SNR, e_b / (N0 * A(l, f)), linear."""
    return params.energy_per_bit / (params.noise_density_N0 * attenuation(l, params))


def rayleigh_bpsk_ber(snr_mean: float) -> float:
    """Bit error probability of BPSK under Rayleigh fading with mean SNR.

    Closed form of averaging the AWGN BPSK error rate over the exponential
    SNR density: 0.5 * (1 - sqrt(snr / (1 + snr))).
    """
    if snr_mean < 0:
        raise ValueError(f"mean SNR must be >= 0, got {snr_mean}")
    return 0.5 * (1.0 - math.sqrt(snr_mean / (1.0 + snr_mean)))


def packet_success_prob(p_e: float, bits: int) -> float:
    """Probability that all `bits` bits survive, (1 - p_e)^bits."""
    if not 0.0 <= p_e <= 1.0:
        raise ValueError(f"bit error probability must be in [0, 1], got {p_e}")
    if bits < 1:
        raise ValueError(f"bits must be >= 1, got {bits}")
    return (1.0 - p_e) ** bits


def link_model(params: ChannelParams):
    """Packet delivery probability as a function of link length l (m) and of
    the energy per bit eb, which defaults to `params.energy_per_bit`: the
    other constants of `params` are computed once, and each call evaluates
    packet_success_prob(rayleigh_bpsk_ber(mean_snr(l, params)), M), with
    `params.energy_per_bit` set to eb, operation for operation, so the result
    is bit-equal to that chain wherever the SNR is finite. Where it is not (at
    l == 0, or at a length so short that the attenuation underflows to 0 or
    the SNR overflows) the result is the limit 1.0, so co-located nodes can
    talk; a negative length is refused."""
    a0, kappa, n0, bits = (params.atten_const_A0, params.spreading_kappa,
                           params.noise_density_N0, params.packet_bits_M)
    a_linear = 10.0 ** (thorpe_absorption_db_per_km(params.frequency_khz) / 10.0)
    sqrt, inf = math.sqrt, math.inf

    def delivery_prob(l: float, eb: float = params.energy_per_bit) -> float:
        if l <= 0.0:
            if l == 0.0:
                return 1.0
            raise ValueError(f"distance must be >= 0 m, got {l}")
        try:
            snr = eb / (n0 * (a0 * l**kappa * a_linear ** (l / 1000.0)))
        except ZeroDivisionError:  # the attenuation underflowed to 0
            return 1.0
        if snr == inf:
            return 1.0
        return (1.0 - 0.5 * (1.0 - sqrt(snr / (1.0 + snr)))) ** bits

    return delivery_prob


def link(d2: float, v0: float, delivery_prob) -> tuple[float, float]:
    """A link of squared length d2 as (propagation delay d / v0, delivery
    probability `delivery_prob(d)`), with d = sqrt(d2): the one arithmetic of
    the engine's link tables and the snapshot loader's candidate links."""
    d = math.sqrt(d2)
    return d / v0, delivery_prob(d)


def packet_delivery_prob(l: float, params: ChannelParams) -> float:
    """Probability a whole packet crosses a link of length l without error."""
    return link_model(params)(l)


_CALIBRATION_REL_TOL = 1e-9  # bisection stops at this width relative to log10(e_b)
_CALIBRATION_STEP = 30.0  # the bracket on log10(e_b) widens in these steps from [-30, 30]


def calibration_target_error(delivery_prob, target_distance_m: float,
                             target_pdr: float) -> str | None:
    """Why no e_b > 0 brings the link model `delivery_prob` to `target_pdr`
    at `target_distance_m`, or None: the target must lie above the delivery
    probability at e_b = 0, which is 0.5 ** M for M-bit packets."""
    floor = delivery_prob(target_distance_m, 0.0)
    if target_pdr <= floor:
        return f"the delivery probability as e_b goes to 0 is {floor!r}, not below the target"
    return None


def calibrate_energy_per_bit(params: ChannelParams, target_distance_m: float,
                             target_pdr: float) -> ChannelParams:
    """Return params with energy_per_bit set so that
    packet_delivery_prob(target_distance_m) == target_pdr.

    Solved by bisection on log10(e_b), on one link model evaluated at each
    trial e_b. The operating point is otherwise unconstrained: e_b, N0, f, M
    and mu have no published values. A target that no e_b > 0 reaches is
    refused with ValueError (`calibration_target_error`), and so is one whose
    link model overflows before the bracket holds it, which happens only
    outside the ranges `ScenarioConfig` declares.
    """
    if not 0.0 < target_pdr < 1.0:
        raise ValueError(f"target_pdr must be in (0, 1), got {target_pdr}")
    if not target_distance_m > 0.0:
        raise ValueError(f"target_distance_m must be > 0, got {target_distance_m}")
    delivery_prob = link_model(params)

    def pdr_at(log_eb: float) -> float:
        return delivery_prob(target_distance_m, 10.0**log_eb)

    lo, hi = -_CALIBRATION_STEP, _CALIBRATION_STEP
    try:
        reason = calibration_target_error(delivery_prob, target_distance_m, target_pdr)
        if reason is None:
            while pdr_at(lo) > target_pdr:
                lo -= _CALIBRATION_STEP
            while pdr_at(hi) < target_pdr:
                hi += _CALIBRATION_STEP
    except OverflowError:
        reason = "the link model overflows before the bracket holds the target"
    if reason is not None:
        raise ValueError(f"no finite e_b > 0 gives delivery probability {target_pdr!r} at "
                         f"{target_distance_m!r} m: {reason}")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if pdr_at(mid) < target_pdr:
            lo = mid
        else:
            hi = mid
        if hi - lo < _CALIBRATION_REL_TOL * max(1.0, abs(hi)):
            break
    return replace(params, energy_per_bit=10.0 ** (0.5 * (lo + hi)))
