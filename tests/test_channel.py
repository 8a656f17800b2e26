"""Channel model tests: hand-evaluated closed forms, an independent
log-domain attenuation oracle, and the Rayleigh-average validation by
numerical quadrature."""

import dataclasses
import math
import random
import re

import pytest
from scipy import integrate
from scipy.special import erfc

from uwroute import channel

REL = 1e-6


def default_params(**overrides):
    base = dict(frequency_khz=10.0, spreading_kappa=1.5, atten_const_A0=1.0,
                energy_per_bit=1.0, noise_density_N0=1e-9, packet_bits_M=512,
                bit_rate_mu=10_000.0)
    base.update(overrides)
    return channel.ChannelParams(**base)


class TestThorpe:
    def test_hand_value_10khz(self):
        # term-by-term: 2.75e-4*100 + 44*100/4110 + 0.11*100/101 + 1e-3
        oracle = 2.75e-4 * 100 + 4400 / 4110 + 11 / 101 + 1e-3
        assert channel.thorpe_absorption_db_per_km(10.0) == pytest.approx(oracle, rel=REL)
        assert oracle == pytest.approx(1.208, abs=1e-3)

    def test_hand_value_1khz(self):
        oracle = 2.75e-4 + 44 / 4101 + 0.11 / 2 + 1e-3
        assert channel.thorpe_absorption_db_per_km(1.0) == pytest.approx(oracle, rel=REL)
        assert oracle == pytest.approx(0.0670, abs=1e-3)

    def test_monotone_in_frequency(self):
        assert channel.thorpe_absorption_db_per_km(20.0) > channel.thorpe_absorption_db_per_km(10.0)
        values = [channel.thorpe_absorption_db_per_km(f) for f in range(1, 60)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            channel.thorpe_absorption_db_per_km(0.0)
        with pytest.raises(ValueError):
            channel.thorpe_absorption_db_per_km(-3.0)


class TestAttenuation:
    def test_unit_distance_unit_constant(self):
        params = default_params(spreading_kappa=1.0)
        assert channel.attenuation(1.0, params) == pytest.approx(1.0, abs=1e-3)

    def test_spreading_term_quadruples(self):
        # kappa = 2: doubling l quadruples the spreading factor
        params = default_params(spreading_kappa=2.0)
        a_db = channel.thorpe_absorption_db_per_km(10.0)
        absorb = lambda l: 10 ** (a_db * (l / 1000.0) / 10.0)
        ratio = (channel.attenuation(2.0, params) / absorb(2.0)) / (
            channel.attenuation(1.0, params) / absorb(1.0))
        assert ratio == pytest.approx(4.0, rel=REL)

    def test_oracle_150m(self):
        # independent log-domain evaluation of the same quantity
        params = default_params()
        t10 = 2.75e-4 * 100 + 4400 / 4110 + 11 / 101 + 1e-3
        oracle = 10 ** (1.5 * math.log10(150.0) + t10 * 0.15 / 10.0)
        assert channel.attenuation(150.0, params) == pytest.approx(oracle, rel=REL)
        assert oracle == pytest.approx(1915.3866058, rel=1e-9)

    def test_monotone_in_distance(self):
        params = default_params()
        values = [channel.attenuation(l, params) for l in range(1, 500, 7)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_rejects_nonpositive_distance(self):
        with pytest.raises(ValueError):
            channel.attenuation(0.0, default_params())


class TestMeanSnr:
    def test_ratio_identity(self):
        # snr * A == e_b / N0, so e_b/N0 = 100 with A = 100 gives snr = 1
        params = default_params(energy_per_bit=100.0, noise_density_N0=1.0)
        a = channel.attenuation(42.0, params)
        assert channel.mean_snr(42.0, params) * a == pytest.approx(100.0, rel=REL)
        rescaled = default_params(energy_per_bit=a, noise_density_N0=1.0)
        assert channel.mean_snr(42.0, rescaled) == pytest.approx(1.0, rel=REL)

    def test_decreasing_in_distance(self):
        params = default_params()
        assert channel.mean_snr(150.0, params) < channel.mean_snr(50.0, params)

    def test_oracle_100m(self):
        params = default_params()
        t10 = 2.75e-4 * 100 + 4400 / 4110 + 11 / 101 + 1e-3
        a100 = 10 ** (1.5 * math.log10(100.0) + t10 * 0.1 / 10.0)
        oracle = 1.0 / (1e-9 * a100)
        assert channel.mean_snr(100.0, params) == pytest.approx(oracle, rel=REL)
        assert oracle == pytest.approx(972568.714208, rel=1e-9)


class TestBitError:
    def test_limit_at_zero_snr(self):
        assert channel.rayleigh_bpsk_ber(0.0) == pytest.approx(0.5)

    def test_snr_3(self):
        assert channel.rayleigh_bpsk_ber(3.0) == pytest.approx(0.5 * (1 - math.sqrt(0.75)), rel=REL)
        assert channel.rayleigh_bpsk_ber(3.0) == pytest.approx(0.0669872981, rel=1e-6)

    def test_high_snr_taylor_bound(self):
        # 0.5*(1 - sqrt(x/(1+x))) ~ 1/(4x) for large x
        assert channel.rayleigh_bpsk_ber(1e6) < 1e-6
        assert channel.rayleigh_bpsk_ber(1e6) == pytest.approx(1.0 / 4e6, rel=1e-3)

    def test_range_and_monotonicity(self):
        values = [channel.rayleigh_bpsk_ber(s) for s in
                  (1e-3, 0.1, 1.0, 10.0, 1e3, 1e6)]
        assert all(0.0 < v < 0.5 for v in values)
        assert all(b < a for a, b in zip(values, values[1:]))


class TestPacketDelivery:
    def test_error_free_bits(self):
        assert channel.packet_success_prob(0.0, 512) == 1.0

    def test_single_bit_half(self):
        assert channel.packet_success_prob(0.5, 1) == pytest.approx(0.5)

    def test_power_evaluation(self):
        assert channel.packet_success_prob(1e-4, 1000) == pytest.approx(0.9048328935585562, rel=REL)

    def test_monotone_nonincreasing_in_distance(self):
        params = default_params(energy_per_bit=1e-3)
        values = [channel.packet_delivery_prob(float(l), params) for l in range(1, 501)]
        assert all(0.0 <= v <= 1.0 for v in values)
        assert all(b <= a for a, b in zip(values, values[1:]))

    def test_decreasing_in_packet_size(self):
        p_small = channel.packet_delivery_prob(100.0, default_params(packet_bits_M=256))
        p_large = channel.packet_delivery_prob(100.0, default_params(packet_bits_M=1024))
        assert p_large < p_small


class TestLinkModel:
    """`link_model` is the one production form of the delivery probability:
    it must be bit-equal to the chain of closed forms it folds."""

    PARAMS = [channel.calibrate_energy_per_bit(default_params(), 100.0, 0.9),
              default_params(frequency_khz=25.0, spreading_kappa=1.2, atten_const_A0=2.5,
                             energy_per_bit=3e-3, noise_density_N0=7e-11, packet_bits_M=777),
              default_params(frequency_khz=3.0, spreading_kappa=2.0, energy_per_bit=1e4,
                             packet_bits_M=1, bit_rate_mu=500.0)]
    DISTANCES = [0.25, 1.0, 10.0, 37.3, 99.99, 100.0, 150.0, 300.0, 1000.0, 4321.5]

    @pytest.mark.parametrize("params", PARAMS)
    def test_bit_equal_to_closed_form_chain(self, params):
        link = channel.link_model(params)
        rng = random.Random(3)
        for l in self.DISTANCES + [rng.uniform(0.01, 3000.0) for _ in range(20000)]:
            chain = channel.packet_success_prob(
                channel.rayleigh_bpsk_ber(channel.mean_snr(l, params)), params.packet_bits_M)
            assert link(l) == chain
            assert channel.packet_delivery_prob(l, params) == chain

    def test_rejects_nonpositive_distance(self):
        # zero is the co-located limit, p = 1; only a negative length is refused
        link = channel.link_model(default_params())
        assert link(0.0) == 1.0
        assert channel.packet_delivery_prob(0.0, default_params()) == 1.0
        for l in (-1e-300, -1.0):
            with pytest.raises(ValueError):
                link(l)

    @pytest.mark.parametrize("l, eb", [(1e-170, None), (1e-200, 1e25)],
                             ids=["attenuation-underflows", "snr-overflows"])
    def test_shortest_links_take_the_limit(self, l, eb):
        # kappa = 2 squares the length to 1e-340, which underflows to 0; with
        # e_b = 1e25 the SNR overflows to inf, and inf / (1 + inf) is nan
        params = channel.calibrate_energy_per_bit(default_params(spreading_kappa=2.0), 100.0,
                                                  0.9)
        link = channel.link_model(params)
        assert link(l, params.energy_per_bit if eb is None else eb) == 1.0


class TestSoundSpeed:
    def test_engine_default_is_constant(self):
        from uwroute.config import ScenarioConfig
        assert ScenarioConfig().sound_speed_mps == 1500.0


class TestCalibration:
    def test_hits_target_pdr(self):
        calibrated = channel.calibrate_energy_per_bit(default_params(), 100.0, 0.9)
        assert channel.packet_delivery_prob(100.0, calibrated) == pytest.approx(0.9, abs=1e-6)

    def test_other_operating_point(self):
        calibrated = channel.calibrate_energy_per_bit(default_params(), 150.0, 0.8)
        assert channel.packet_delivery_prob(150.0, calibrated) == pytest.approx(0.8, abs=1e-6)

    def test_rejects_bad_target(self):
        with pytest.raises(ValueError):
            channel.calibrate_energy_per_bit(default_params(), 100.0, 1.5)
        # every e_b delivers at 0 m: no bracket could hold the target
        with pytest.raises(ValueError, match="target_distance_m must be > 0, got 0.0"):
            channel.calibrate_energy_per_bit(default_params(), 0.0, 0.9)

    # calibrated e_b of four channels, taken before calibration shared one
    # link model across its bisection steps; the runs' outputs rest on them
    PINNED = [
        ({}, 100.0, 0.9, 0.0012484993597925776),
        ({}, 150.0, 0.8, 0.0010975105741544513),
        ({"packet_bits_M": 64, "frequency_khz": 25.0}, 100.0, 0.9, 0.0001774785799597975),
        ({"spreading_kappa": 2.0, "atten_const_A0": 10.0}, 100.0, 0.9, 0.12484993597089107),
    ]

    @pytest.mark.parametrize("overrides, distance, pdr, eb", PINNED,
                             ids=["default", "150m-0.8", "64-bits-25khz", "kappa-2-a0-10"])
    def test_pinned_energy_per_bit(self, overrides, distance, pdr, eb):
        params = default_params(**overrides)
        assert channel.calibrate_energy_per_bit(params, distance, pdr).energy_per_bit == eb

    def test_one_absorption_evaluation_per_calibration(self, monkeypatch):
        calls = []
        thorpe = channel.thorpe_absorption_db_per_km
        monkeypatch.setattr(channel, "thorpe_absorption_db_per_km",
                            lambda f: calls.append(f) or thorpe(f))
        channel.calibrate_energy_per_bit(default_params(), 100.0, 0.9)
        assert calls == [10.0]

    def test_trial_energy_is_bit_equal_to_a_rebuilt_model(self):
        # what each bisection step evaluated before it shared one link model
        rng = random.Random(5)
        for _ in range(300):
            params = default_params(frequency_khz=rng.uniform(1.0, 60.0),
                                    spreading_kappa=rng.uniform(1.0, 2.0),
                                    packet_bits_M=rng.randint(1, 2048))
            link = channel.link_model(params)
            l, eb = rng.uniform(0.1, 3000.0), 10.0 ** rng.uniform(-12.0, 3.0)
            rebuilt = channel.link_model(dataclasses.replace(params, energy_per_bit=eb))
            assert link(l, eb) == rebuilt(l)

    FLOOR = r"the delivery probability as e_b goes to 0 is 0\.5, not below the target$"
    # only outside the ranges that ScenarioConfig declares
    OVERFLOW = r"the link model overflows before the bracket holds the target$"

    @pytest.mark.parametrize("overrides, distance, pdr, needle", [
        ({"packet_bits_M": 1}, 100.0, 0.3, FLOOR),
        ({"packet_bits_M": 1}, 100.0, 0.5, FLOOR),
        ({}, 1e7, 0.9, OVERFLOW),
        ({"noise_density_N0": 1e300}, 100.0, 0.9, OVERFLOW),
    ], ids=["below-floor", "at-floor", "attenuation-overflows", "past-the-largest-float"])
    def test_unreachable_target_is_refused(self, overrides, distance, pdr, needle):
        target = rf"delivery probability {pdr!r} at {distance!r} m: "
        with pytest.raises(ValueError, match=re.escape(target) + needle):
            channel.calibrate_energy_per_bit(default_params(**overrides), distance, pdr)


class TestRayleighClosedForm:
    def test_quadrature_agreement(self):
        """The closed form must equal the numerical average of the AWGN BPSK
        error rate over the exponential SNR density, to 1e-6 absolute."""
        snr_points = [0.1, 0.31, 1.0, 3.1, 10.0, 31.0, 100.0, 310.0, 3100.0, 1e4]
        for snr_mean in snr_points:
            integrand = lambda x: 0.5 * erfc(math.sqrt(x)) * math.exp(-x / snr_mean) / snr_mean
            numeric, err = integrate.quad(integrand, 0.0, min(60.0 * snr_mean, 700.0),
                                          limit=300, epsabs=1e-12, epsrel=1e-12)
            assert err < 1e-9
            assert abs(numeric - channel.rayleigh_bpsk_ber(snr_mean)) < 1e-6


class TestParamsValidation:
    def test_kappa_range(self):
        with pytest.raises(ValueError):
            default_params(spreading_kappa=0.9)
        with pytest.raises(ValueError):
            default_params(spreading_kappa=2.1)

    def test_positive_fields(self):
        for bad in (dict(frequency_khz=0.0), dict(atten_const_A0=-1.0),
                    dict(energy_per_bit=0.0), dict(noise_density_N0=0.0),
                    dict(packet_bits_M=0), dict(bit_rate_mu=0.0)):
            with pytest.raises(ValueError):
                default_params(**bad)

    def test_serialization_time(self):
        assert default_params().serialization_s == pytest.approx(0.0512, rel=REL)
